"""Closed-form symbolic DSM accounting: O(descriptors), not O(addresses).

The ``"symbolic"`` executor tier.  Where the wide tier still materialises
every address a loop nest touches, this module derives the per-PE
local/remote counts *analytically* from the same information an access
descriptor carries: each reference decomposes into a small set of
``Segment``\\ s — arithmetic-progression lattices ``base + dpar*i + s*k``
over the parallel iteration ``i`` and a coalesced inner dimension ``k``
— and ownership under a CYCLIC(p) schedule against a BLOCK /
BLOCK-CYCLIC / segmented layout reduces to residue-class and
floor-sum arithmetic on ``(base, stride, span)``:

* BLOCK ownership is interval membership; the count of lattice points
  of an AP falling in ``[A, B)`` is a difference of two *clamped
  floor-sums* (sums of ``clamp(ceil((x - g - b*m)/s), 0, n)``), each
  O(log) via the classic ``floor_sum`` recurrence.
* BLOCK-CYCLIC(c) ownership is a residue condition
  ``(addr - origin) mod cH ∈ [q*c, (q+1)*c)``; with the identity
  ``[y mod M < c] = floor(y/M) - floor((y-c)/M)`` the count over an AP
  is again two floor-sums.  Block cycles advance the residue by
  ``dpar*p*H mod M`` — a periodic sequence whose distinct values and
  multiplicities are closed-form, so H=4096 machines cost no more than
  H=16 when the schedule and layout are aligned (the common case: every
  PE then sees a translated copy of the same picture, and the rows that
  share a residue share one evaluation).

The counts are not a loop over PEs: every (segment, PE) pair is one row
of int64 arrays, segments of the same shape and owner model are batched
across references, and the floor-sums run over all rows at once.  A
triangular nest, whose inner bounds move with the parallel index, is
counted one row per parallel iteration instead.

Anything outside the fragment — symbolic strides after concretisation,
layout clamps, residue budgets — falls back *per segment* (or per
reference) to exact enumeration, and every fallback increments
``dsm.symbolic.fallback`` (plus a reason-suffixed counter) on the
``obs`` collector so the differential harness can see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Mapping, Optional

import numpy as np

from ..distribution.schedule import (
    BlockCyclicLayout,
    BlockLayout,
    ReplicatedLayout,
    SegmentedLayout,
)
from ..symbolic.compile import UncompilableExpr, compile_expr
from ..symbolic.expr import shift_difference
from .executor import _ev_int, collect_refs, enumerate_ref

__all__ = [
    "Segment",
    "SymbolicMiss",
    "floor_sum",
    "decompose_ref",
    "symbolic_phase_stats",
    "symbolic_region",
    "symbolic_redistribution",
]

#: Cap on concretised loop-value combinations per reference and on the
#: residue/loop enumerations inside a single count; beyond it the
#: segment (or reference) falls back to enumeration.
BIND_BUDGET = 4096
LOOP_BUDGET = 1 << 14
#: Cap on one-shot address materialisations (d == 0 shortcut, regions).
ENUM_BUDGET = 1 << 26


class SymbolicMiss(Exception):
    """A reference or segment fell outside the closed-form fragment."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class _Budget(SymbolicMiss):
    def __init__(self, reason: str = "budget"):
        super().__init__(reason)


@dataclass(frozen=True)
class Segment:
    """One AP lattice of a reference: addresses ``base + dpar*i + s*k``.

    ``base`` is extrapolated to parallel iteration ``i = 0`` (the
    counting machinery works in absolute iteration numbers, matching
    ``CyclicSchedule.owner``).  ``s`` is normalised non-negative and is
    zero only when ``n == 1``.  ``mult`` counts collapsed stride-0 inner
    dimensions and identical segments merged during deduplication: every
    lattice point stands for ``mult`` accesses to the same address.
    """

    base: int
    dpar: int
    s: int
    n: int
    mult: int


# ---------------------------------------------------------------------------
# Integer primitives
# ---------------------------------------------------------------------------


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """``sum(floor((a*i + b) / m) for i in range(n))`` in O(log) time.

    The classic Stern–Brocot/Euclid recurrence (as popularised by the
    ACL library), valid for any sign of ``a`` and ``b``; ``m > 0``.
    """
    if n <= 0:
        return 0
    ans = 0
    while True:
        if a >= m or a < 0:
            qa, a = divmod(a, m)
            ans += n * (n - 1) // 2 * qa
        if b >= m or b < 0:
            qb, b = divmod(b, m)
            ans += n * qb
        y = a * n + b
        if y < m:
            return ans
        n, b, a, m = y // m, y % m, m, a


def _ceil_div(a: int, b: int) -> int:
    """ceil(a/b) for b > 0."""
    return -((-a) // b)


#: Bound every intermediate of a vectorised count must stay under to be
#: computed in int64; larger inputs run the same code on Python-int
#: (``dtype=object``) arrays instead.
_I64_SAFE = 1 << 62
#: Cells per vectorised block: bounds the temporaries of one count.
_VEC_CELLS = 1 << 18
#: Below this many elements a floor-sum runs the scalar recurrence per
#: element: numpy's per-call overhead would dominate.
_SCALAR_ROWS = 32


def _floor_sum_vec(n, m: int, a: int, b) -> np.ndarray:
    """Elementwise :func:`floor_sum` over arrays ``n`` (or one shared
    count) and ``b``, with ``m > 0`` and ``a`` shared by every element.

    ``a`` and ``m`` stay scalars through the Euclid recurrence, so every
    element takes the same rounds; an element whose remainder drops
    below ``m`` is retired by its ``n`` reaching zero.  A few elements, Python
    -int (``object``) input, or input where an intermediate could pass
    2**62 go through the scalar recurrence element by element instead.
    """
    b = np.asarray(b)
    if np.ndim(n) == 0:
        n = np.full(b.shape, max(int(n), 0), dtype=np.int64)
    else:
        n = np.maximum(n, 0)
    exact = b.dtype == object or n.dtype == object
    if not exact and b.size > _SCALAR_ROWS:
        X, Bm = int(n.max()), int(np.abs(b).max())
        exact = (2 * X * X * (abs(a) // m + 2) + 2 * X * (Bm // m + 2)
                 + (m + abs(a)) * (X + 2)) >= _I64_SAFE
    if exact or b.size <= _SCALAR_ROWS:
        out = [floor_sum(x, m, a, y) for x, y in zip(n.tolist(), b.tolist())]
        if not exact and max(map(abs, out), default=0) >= _I64_SAFE:
            exact = True
        return np.array(out, dtype=object if exact else np.int64)
    if m == 1:
        return n * (n - 1) // 2 * a + n * b
    ans = np.zeros(n.shape, dtype=np.int64)
    while True:
        if a >= m or a < 0:
            qa, a = divmod(a, m)
            ans += n * (n - 1) // 2 * qa
        qb, b = np.divmod(b, m)
        ans += n * qb
        # An element with a*n + b < m gets n = 0 and adds nothing more.
        n, b = np.divmod(a * n + b, m)
        if not n.any():
            return ans
        a, m = m, a


def _sum_clamp_floor(M, g, d: int, s: int, nu: int):
    """Elementwise ``sum(clamp((g + d*m) // s, 0, nu) for m in range(M))``
    over arrays ``M >= 0`` and ``g``; ``s > 0``."""
    if nu <= 0:
        return g * 0
    if d == 0:
        return M * np.minimum(np.maximum(g // s, 0), nu)
    if d > 0:
        m1 = np.minimum(np.maximum(-((g - s) // d), 0), M)       # v >= 1
        m2 = np.minimum(np.maximum(-((g - nu * s) // d), 0), M)  # v >= nu
        return (M - m2) * nu + _floor_sum_vec(m2 - m1, s, d, g + d * m1)
    nd = -d
    m1 = np.minimum((g - s) // nd, M - 1)       # last m with v >= 1
    m2 = np.minimum((g - nu * s) // nd, M - 1)  # last m with v >= nu
    lo = np.maximum(m2 + 1, 0)
    return lo * nu + _floor_sum_vec(m1 - lo + 1, s, d, g + d * lo)


def _sum_window(M, g, beta: int, s: int, nu: int, A, B, top):
    """Elementwise ``sum over m < M of #{k < nu: A <= g + beta*m + s*k
    < B}``, s > 0; where ``top`` holds the window is unbounded above
    (the last BLOCK PE)."""
    k = len(g)
    both = _sum_clamp_floor(np.concatenate([M, M]),
                            np.concatenate([B - g, A - g]) + (s - 1),
                            -beta, s, nu)
    return np.where(top, nu * M, both[:k]) - both[k:]


def _ap_in_range(M, g, beta: int, A, B, top):
    """Elementwise ``#{m < M: A <= g + beta*m (< B unless top)}``."""
    if beta == 0:
        return np.where((g >= A) & (top | (g < B)), M, 0)
    if beta > 0:
        lo = np.maximum(-((g - A) // beta), 0)
        hi = np.where(top, M - 1,
                      np.minimum(M - 1, -((g - B) // beta) - 1))
    else:
        nd = -beta
        hi = np.minimum((g - A) // nd, M - 1)
        lo = np.where(top, 0, np.maximum((g - B) // nd + 1, 0))
    return np.maximum(hi - lo + 1, 0)


def _residue_table(g, beta: int, cnt, M: int):
    """Distinct values of ``(g + beta*t) mod M`` for t < cnt, per row of
    ``g``/``cnt``, with multiplicities — closed form via the residue
    period M/gcd.  Returns two ``rows x distinct`` arrays (a weight of
    zero pads rows with fewer residues)."""
    b = beta % M
    if b == 0:
        return (g % M)[:, None], cnt[:, None]
    pi = M // gcd(b, M)
    distinct = min(int(cnt.max(initial=0)), pi)
    if distinct > LOOP_BUDGET:
        raise _Budget("residues")
    t = np.arange(distinct, dtype=np.int64).astype(g.dtype)
    rho = (g[:, None] + beta * t) % M
    return rho, np.maximum((cnt[:, None] - t + pi - 1) // pi, 0)


# ---------------------------------------------------------------------------
# Lattice dimension handling
# ---------------------------------------------------------------------------


def _dims(pairs) -> tuple:
    """Normalise (step, count) dims: drop trivial, make steps positive
    (returning the base adjustment), fold stride-0 into a multiplier,
    sort ascending, merge telescoping runs (s2 == s1*n1)."""
    adj, mu, dims = 0, 1, []
    for st, c in pairs:
        if c <= 1:
            continue
        if st == 0:
            mu *= c
            continue
        if st < 0:
            adj += st * (c - 1)
            st = -st
        dims.append((st, c))
    dims.sort()
    merged: list = []
    for st, c in dims:
        if merged and merged[-1][0] * merged[-1][1] == st:
            merged[-1][1] *= c
        else:
            merged.append([st, c])
    return adj, mu, [tuple(x) for x in merged]


def _count_interval(M, g, beta: int, dims, mu: int, A, B, top):
    """Elementwise lattice points of ``g + beta*m + dims`` (m < M) inside
    ``[A, B)`` (unbounded above where ``top`` holds)."""
    if not M.any():
        return g * 0
    if not dims:
        return mu * _ap_in_range(M, g, beta, A, B, top)
    if len(dims) == 1:
        (s, nu), = dims
        return mu * _sum_window(M, g, beta, s, nu, A, B, top)
    (s1, n1), (s2, n2) = dims
    if n1 <= n2:
        ls, ln, s, nu = s1, n1, s2, n2
    else:
        ls, ln, s, nu = s2, n2, s1, n1
    if ln > LOOP_BUDGET:
        raise _Budget("interval-dims")
    # Fold the shorter dimension into the rows, a block of offsets at a
    # time.
    total = g * 0
    step = max(1, _VEC_CELLS // len(g))
    for t0 in range(0, ln, step):
        t = np.arange(t0, min(t0 + step, ln), dtype=np.int64)
        t = t.astype(g.dtype)
        k = t.size
        part = _sum_window(
            np.repeat(M, k), (g[:, None] + ls * t).ravel(), beta, s, nu,
            np.repeat(A, k), np.repeat(B, k), np.repeat(top, k),
        )
        total = total + part.reshape(-1, k).sum(axis=1)
    return mu * total


def _count_cyclic(cnt, g, beta: int, dims, mu: int, c: int,
                  M: int) -> np.ndarray:
    """Elementwise lattice points with ``(g + beta*m + dims) mod M < c``
    (m < cnt).  Rows that share a residue share its count: in the
    aligned case every PE sees a translated copy of one picture, and
    the whole sweep costs one evaluation."""
    total = g * 0
    if not cnt.any():
        return total
    width = 1 if beta % M == 0 else min(
        int(cnt.max()), M // gcd(beta % M, M)
    )
    step = max(1, _VEC_CELLS // width)
    for r0 in range(0, len(g), step):
        rows = slice(r0, r0 + step)
        rho, w = _residue_table(g[rows], beta, cnt[rows], M)
        flat = rho.ravel()
        if flat.size <= _SCALAR_ROWS:
            vals = _lattice_counts(flat, dims, c, M).reshape(rho.shape)
        elif (flat == flat[0]).all():
            vals = _lattice_counts(flat[:1], dims, c, M)[0]
        else:
            uniq, inv = np.unique(flat, return_inverse=True)
            vals = _lattice_counts(uniq, dims, c, M)[inv].reshape(rho.shape)
        total[rows] = (w * vals).sum(axis=1)
    return mu * total


def _lattice_counts(rho, dims, c: int, M: int) -> np.ndarray:
    """``#{k in dims: (rho + k) mod M < c}`` for each residue ``rho``."""
    if not dims:
        return np.where(rho < c, 1, 0)
    if len(dims) == 1:
        (s, nu), = dims
        both = _floor_sum_vec(nu, M, s, np.concatenate([rho, rho - c]))
        return both[:len(rho)] - both[len(rho):]
    (s1, n1), (s2, n2) = dims

    def cost(s, n):
        b = s % M
        return min(n, M // gcd(b, M)) if b else 1

    if cost(s1, n1) <= cost(s2, n2):
        (ls, ln), keep = (s1, n1), [(s2, n2)]
    else:
        (ls, ln), keep = (s2, n2), [(s1, n1)]
    r, w = _residue_table(np.zeros(1, dtype=np.int64), ls,
                          np.array([ln], dtype=np.int64), M)
    r, w = r[0], w[0]
    total = rho * 0
    step = max(1, _VEC_CELLS // r.size)
    for i0 in range(0, len(rho), step):
        inner = (rho[i0:i0 + step, None] + r) % M
        vals = _lattice_counts(inner.ravel(), keep, c, M)
        total[i0:i0 + step] = (w * vals.reshape(inner.shape)).sum(axis=1)
    return total


# ---------------------------------------------------------------------------
# Reference decomposition
# ---------------------------------------------------------------------------


def _ev(expr, env: Mapping[str, int],
        bindings: Optional[Mapping[str, int]] = None) -> int:
    """``expr`` as an exact int under ``env`` (plus ``bindings``).

    Goes through the memoized compiled closure, so a repeated execution
    of a plan re-evaluates its bounds and strides without ``Fraction``
    arithmetic; anything the closure declines is decided by the exact
    interpreter, which names the miss.
    """
    if bindings:
        env = {**env, **bindings}
    try:
        return compile_expr(expr).evali(env)
    except (UncompilableExpr, KeyError, ValueError, ZeroDivisionError):
        pass
    try:
        return _ev_int(expr, env)
    except (KeyError, ZeroDivisionError) as e:
        raise SymbolicMiss("symbolic-value") from e
    except ValueError as e:
        raise SymbolicMiss("non-integer") from e


def decompose_ref(chain, subscript, env: Mapping[str, int],
                  par_lo: int) -> list:
    """Decompose one reference of a parallel-rooted nest into Segments.

    ``chain`` is ``(parallel_loop, inner...)`` as collected by the wide
    tier.  Inner loops whose *stride in the subscript* or whose bounds
    feed other strides/bounds non-affinely (TFFT2's ``2**L`` structure
    loops) are concretised — enumerated value by value under a budget —
    and the surviving constant-stride dims are normalised, telescoped
    and deduplicated into multiplicity-weighted segments.  Raises
    :class:`SymbolicMiss` when the reference is outside the fragment
    (non-rectangular or non-affine in the parallel index, symbolic
    values, budget overruns).
    """
    par, inner = chain[0], list(chain[1:])
    pos_of = {loop.index: t for t, loop in enumerate(inner)}

    dpar_expr = shift_difference(subscript, par.index)
    if par.index in dpar_expr.free_symbols():
        raise SymbolicMiss("nonlinear-par")
    stride_expr = [
        shift_difference(subscript, loop.index) for loop in inner
    ]

    # Only *free* loops need constant strides and evaluable bounds — a
    # concretised loop's stride is folded into the base per binding.  So
    # grow ``conc`` greedily: each round, concretise the loop index that
    # unblocks the most still-free strides/bounds (TFFT2: concretising
    # L3 alone makes J3's stride ``2**L3`` constant per binding, keeping
    # J3 and K3 as closed-form dims instead of 1023 enumerated bases).
    conc: set = set()
    for sym in dpar_expr.free_symbols():
        if sym in pos_of:
            conc.add(pos_of[sym])
    while True:
        votes: dict = {}
        self_conc = False
        for t in range(len(inner)):
            if t in conc:
                continue
            for sym in stride_expr[t].free_symbols():
                if sym == par.index:
                    raise SymbolicMiss("par-dependent-stride")
                u = pos_of.get(sym)
                if u is None:
                    continue
                if u == t:  # stride nonlinear in its own index
                    conc.add(t)
                    self_conc = True
                    break
                if u not in conc:
                    votes[u] = votes.get(u, 0) + 1
            if self_conc:
                break
            for bound in (inner[t].lower, inner[t].upper):
                for sym in bound.free_symbols():
                    u = pos_of.get(sym)
                    if u is not None and u != t and u not in conc:
                        votes[u] = votes.get(u, 0) + 1
        if self_conc:
            continue
        if not votes:
            break
        conc.add(max(votes, key=lambda u: (votes[u], -u)))
    for loop in inner:
        for bound in (loop.lower, loop.upper):
            if par.index in bound.free_symbols():
                raise SymbolicMiss("par-dependent-bounds")
    changed = True
    while changed:
        changed = False
        for t in list(conc):
            for bound in (inner[t].lower, inner[t].upper):
                for sym in bound.free_symbols():
                    u = pos_of.get(sym)
                    if u is not None and u not in conc:
                        conc.add(u)
                        changed = True

    conc_loops = [loop for t, loop in enumerate(inner) if t in conc]
    free_pos = [t for t in range(len(inner)) if t not in conc]
    segments: dict = {}
    emitted = 0

    def emit(bindings: dict):
        nonlocal emitted
        emitted += 1
        if emitted > BIND_BUDGET:
            raise _Budget("concretize")
        dims, mult = [], 1
        base_env = dict(bindings)
        for t in free_pos:
            loop = inner[t]
            lo = _ev(loop.lower, env, bindings)
            hi = _ev(loop.upper, env, bindings)
            n = hi - lo + 1
            if n <= 0:
                return  # zero-trip inner loop: no accesses
            base_env[loop.index.name] = lo
            if n == 1:
                continue
            s = _ev(stride_expr[t], env, bindings)
            if s == 0:
                mult *= n
            else:
                dims.append((s, n))
        dpar = _ev(dpar_expr, env, bindings)
        base_env[par.index.name] = par_lo
        base = _ev(subscript, env, base_env) - dpar * par_lo
        adj, mu, norm = _dims(dims)
        base += adj
        mult *= mu
        if len(norm) > 1:
            norm.sort(key=lambda d: d[1])
            extra, (s_k, n_k) = norm[:-1], norm[-1]
            combos = 1
            for _s, n in extra:
                combos *= n
            if combos * emitted > BIND_BUDGET:
                raise _Budget("dims-concretize")
            for offs in product(*(range(n) for _s, n in extra)):
                off = sum(s * o for (s, _n), o in zip(extra, offs))
                key = (base + off, dpar, s_k, n_k)
                segments[key] = segments.get(key, 0) + mult
            return
        s_k, n_k = norm[0] if norm else (0, 1)
        key = (base, dpar, s_k, n_k)
        segments[key] = segments.get(key, 0) + mult

    def rec(ci: int, bindings: dict):
        if ci == len(conc_loops):
            emit(bindings)
            return
        loop = conc_loops[ci]
        lo = _ev(loop.lower, env, bindings)
        hi = _ev(loop.upper, env, bindings)
        if hi - lo + 1 > BIND_BUDGET:
            raise _Budget("concretize")
        for v in range(lo, hi + 1):
            rec(ci + 1, {**bindings, loop.index.name: v})

    rec(0, {})
    return [
        Segment(base=b, dpar=d, s=s, n=n, mult=m)
        for (b, d, s, n), m in segments.items()
    ]


# ---------------------------------------------------------------------------
# CYCLIC(p) block structure
# ---------------------------------------------------------------------------


def _block_structure(lo: int, hi: int, p: int):
    """Full-block range and partial blocks of iterations [lo, hi].

    Returns ``(jlo_f, jhi_f, partials)`` where blocks ``j`` in
    ``[jlo_f, jhi_f]`` hold exactly ``p`` iterations and ``partials``
    is a list of ``(j, i_first, i_last)`` clipped edge blocks (at most
    two; one when the whole range fits inside a single block).
    """
    jlo, jhi = lo // p, hi // p
    jlo_f = jlo if lo == jlo * p else jlo + 1
    jhi_f = jhi if hi == jhi * p + p - 1 else jhi - 1
    partials = []
    if jlo < jlo_f:
        partials.append((jlo, lo, min(hi, jlo * p + p - 1)))
    if jhi > jhi_f and not (jlo < jlo_f and jhi == jlo):
        partials.append((jhi, max(lo, jhi * p), hi))
    return jlo_f, jhi_f, partials


def _iterations_per_pe(lo: int, hi: int, p: int, H: int) -> np.ndarray:
    """Closed-form ``bincount((arange(lo, hi+1) // p) % H)``."""
    it = np.zeros(H, dtype=np.int64)
    if hi < lo:
        return it
    jlo_f, jhi_f, partials = _block_structure(lo, hi, p)
    nfull = jhi_f - jlo_f + 1
    if nfull > 0:
        it += (nfull // H) * p
        rem = nfull % H
        if rem:
            it[(jlo_f + np.arange(rem)) % H] += p
    for j, a, b in partials:
        it[j % H] += b - a + 1
    return it


# ---------------------------------------------------------------------------
# Layout owner models
# ---------------------------------------------------------------------------


def _resolve(layout, amin: int, amax: int, H: int):
    """Owner model of ``layout`` over addresses [amin, amax].

    ``("interval", blk)``      — owner q iff addr in [q*blk, (q+1)*blk)
                                 (last PE unbounded above; negatives
                                 below every window, hence never local,
                                 matching the clamped numpy formula).
    ``("cyclic", origin, c)``  — owner q iff (addr-origin) mod cH in
                                 [q*c, (q+1)*c); requires amin >= origin
                                 (no clamp engaged).
    ``("reversed", AA, c)``    — cyclic on the mirrored address AA-addr;
                                 requires the whole span in-region.
    """
    if getattr(layout, "H", H) != H:
        raise SymbolicMiss("layout-H")
    if isinstance(layout, BlockLayout):
        return ("interval", _ceil_div(layout.size, layout.H))
    if isinstance(layout, BlockCyclicLayout):
        if not layout.reversed_:
            if amin < layout.origin:
                raise SymbolicMiss("layout-clamp")
            return ("cyclic", layout.origin, layout.chunk)
        if layout.span is None:
            raise SymbolicMiss("layout-span")
        AA = layout.origin + layout.span - 1
        if amin < layout.origin or amax > AA:
            raise SymbolicMiss("layout-clamp")
        return ("reversed", AA, layout.chunk)
    if isinstance(layout, SegmentedLayout):
        pick = None
        for t, (st, en, lay) in enumerate(layout.segments):
            if st <= amin and amax <= en:
                pick = (t, lay)  # later tuples win on overlap
        if pick is None:
            if all(en < amin or st > amax
                   for st, en, _l in layout.segments):
                return _resolve(layout.segments[0][2], amin, amax, H)
            raise SymbolicMiss("layout-segmented")
        t, lay = pick
        for st, en, _l in layout.segments[t + 1:]:
            if not (en < amin or st > amax):
                raise SymbolicMiss("layout-segmented")
        return _resolve(lay, amin, amax, H)
    raise SymbolicMiss("layout-unknown")


def _seg_span(seg: Segment, ilo: int, ihi: int):
    """Min/max address the segment touches over iterations [ilo, ihi]."""
    amin = seg.base + (seg.dpar * (ihi if seg.dpar < 0 else ilo))
    amax = (seg.base + seg.dpar * (ilo if seg.dpar < 0 else ihi)
            + seg.s * (seg.n - 1))
    return amin, amax


# ---------------------------------------------------------------------------
# Per-segment counting
# ---------------------------------------------------------------------------


def _lattice_row(seg: Segment, model):
    """``(key, (base, mult))`` of a segment under an owner model.

    Segments with equal keys are counted in one batch.  The key is the
    model's kind and window plus the segment's ``(dpar, s, n)``; the
    BLOCK-CYCLIC origin folds into the base, and a reversed layout is
    cyclic on the mirrored address ``AA - addr``.
    """
    if model[0] == "interval":
        return ("interval", model[1], seg.dpar, seg.s, seg.n), (
            seg.base, seg.mult)
    if model[0] == "cyclic":
        _kind, origin, c = model
        return ("cyclic", c, seg.dpar, seg.s, seg.n), (
            seg.base - origin, seg.mult)
    _kind, AA, c = model
    return ("cyclic", c, -seg.dpar, seg.s, seg.n), (
        AA - seg.base - seg.s * (seg.n - 1), seg.mult)


def _count_lattices(key, rows, ilo: int, ihi: int, p: int,
                    H: int) -> np.ndarray:
    """Per-PE local counts of ``(base, mult)`` lattice rows sharing a
    :func:`_lattice_row` key.

    PE ``q`` runs the full CYCLIC(p) blocks ``j_q, j_q + H, ...``; every
    (row, PE) pair and every (row, clipped edge block) pair is counted
    at once.  Counts are int64 unless an intermediate could pass 2**62,
    in which case they hold Python ints.
    """
    local = np.zeros(H, dtype=np.int64)
    if ihi < ilo:
        return local
    kind, win, d, s, n = key
    merged: dict = {}
    for b, m in rows:
        merged[b] = merged.get(b, 0) + m
    bases = list(merged)
    mults = np.array(list(merged.values()), dtype=np.int64)[:, None]
    jlo_f, jhi_f, partials = _block_structure(ilo, ihi, p)
    adj_f, mu_f, dims_f = _dims([(d, p), (s, n)])
    adj_p, mu_p, dims_p = _dims([(s, n)])
    beta = d * p * H
    big = max(abs(beta), s, p * H, win * H, LOOP_BUDGET)
    count = max(ihi - ilo + 1, n, LOOP_BUDGET)
    addr = (max(map(abs, bases)) + abs(d) * (abs(ilo) + abs(ihi) + p)
            + s * n + win * H)
    exact = 8 * (big * count + count * count + addr) >= _I64_SAFE
    dt = object if exact else np.int64
    b0 = np.array(bases, dtype=dt)[:, None]
    K = len(bases)

    def counted(pe, cnt, g, step, dims, mu):
        """Counts of rows ``(base, pe)``, weighted by the multiplicities
        and summed over bases."""
        pe, cnt = np.asarray(pe, dtype=dt), np.asarray(cnt, dtype=dt)
        if K > 1:
            spread = np.zeros((K, 1), dtype=dt)
            pe, cnt = (spread + pe).ravel(), (spread + cnt).ravel()
        g = g.ravel()
        if kind == "interval":
            got = _count_interval(cnt, g, step, dims, mu, pe * win,
                                  (pe + 1) * win, pe == H - 1)
        else:
            got = _count_cyclic(cnt, g - pe * win, step, dims, mu, win,
                                win * H)
        return (got.reshape(K, -1) * mults).sum(axis=0).astype(np.int64)

    # PE q's first full block is jlo_f + r_q; it has ceil((nfull - r_q)
    # / H) of them.
    nfull = max(jhi_f - jlo_f + 1, 0)
    r_q = (np.arange(H, dtype=np.int64) - jlo_f) % H
    local += counted(
        np.arange(H, dtype=np.int64), (nfull - r_q + H - 1) // H,
        b0 + (d * p * jlo_f + adj_f) + d * p * np.asarray(r_q, dtype=dt),
        beta,
        dims_f, mu_f,
    )
    if partials:
        qp = np.array([j % H for j, _a, _b in partials], dtype=np.int64)
        starts = np.array([a for _j, a, _b in partials], dtype=dt)
        np.add.at(local, qp, counted(
            qp, [b - a + 1 for _j, a, b in partials],
            b0 + d * starts + adj_p, d, dims_p, mu_p,
        ))
    return local


def _count_segments(pairs, ilo: int, ihi: int, p: int, H: int,
                    obs=None) -> np.ndarray:
    """Per-PE local counts of ``(segment, layout)`` pairs.

    Pairs with the same :func:`_lattice_row` key are counted together,
    whichever reference or array they come from (TFFT2's concretised
    structure loops and the 3-D stencils emit dozens that differ only
    in base); the rest go through :func:`_count_segment` one by one.  A
    segment outside the closed form is enumerated, and counted as a
    fallback on ``obs``.
    """
    local = np.zeros(H, dtype=np.int64)
    groups: dict = {}

    def enumerate_pairs(pairs, reason):
        for seg, layout in pairs:
            _note_fallback(obs, f"segment-{reason}")
            local[:] += _enumerate_segment(seg, ilo, ihi, p, H, layout)

    for seg, layout in pairs:
        model = None
        if seg.dpar != 0 and ihi >= ilo:
            try:
                model = _resolve(layout, *_seg_span(seg, ilo, ihi), H)
            except SymbolicMiss:
                pass
        if model is not None:
            key, row = _lattice_row(seg, model)
            groups.setdefault(key, []).append((row, seg, layout))
            continue
        try:
            local += _count_segment(seg, ilo, ihi, p, H, layout)
        except SymbolicMiss as miss:
            enumerate_pairs([(seg, layout)], miss.reason)
    per = max(1, _VEC_CELLS // (16 * H))
    for key, group in groups.items():
        for k in range(0, len(group), per):
            batch = group[k:k + per]
            try:
                local += _count_lattices(
                    key, [row for row, _s, _l in batch], ilo, ihi, p, H
                )
            except SymbolicMiss as miss:
                enumerate_pairs([(sg, lay) for _r, sg, lay in batch],
                                miss.reason)
    return local


def _count_segment_model(seg: Segment, ilo: int, ihi: int, p: int,
                         H: int, model) -> np.ndarray:
    """Per-PE local counts of one segment under one owner model."""
    key, row = _lattice_row(seg, model)
    return _count_lattices(key, [row], ilo, ihi, p, H)


def _count_segment(seg: Segment, ilo: int, ihi: int, p: int, H: int,
                   layout) -> np.ndarray:
    """Per-PE local counts of one segment under a concrete layout.

    Resolves the owner model over the segment's span; a
    :class:`SegmentedLayout` whose pieces cut through the span is split
    at piece boundaries into sub-ranges of the parallel iteration (the
    reverse-distribution case: TFFT2 F8's conjugate mirrors), with the
    few boundary-straddling iterations enumerated exactly.
    """
    if ihi < ilo:
        return np.zeros(H, dtype=np.int64)
    if seg.dpar == 0:
        return _count_static_span(seg, ilo, ihi, p, H, layout)
    amin, amax = _seg_span(seg, ilo, ihi)
    try:
        model = _resolve(layout, amin, amax, H)
    except SymbolicMiss as miss:
        if (miss.reason == "layout-segmented"
                and isinstance(layout, SegmentedLayout)):
            return _count_split_segmented(seg, ilo, ihi, p, H, layout)
        raise
    return _count_segment_model(seg, ilo, ihi, p, H, model)


def _count_static_span(seg: Segment, ilo: int, ihi: int, p: int, H: int,
                       layout) -> np.ndarray:
    """dpar == 0: every iteration touches the same n addresses."""
    if seg.n > ENUM_BUDGET:
        raise _Budget("static-span")
    addrs = seg.base + seg.s * np.arange(seg.n, dtype=np.int64)
    owners = np.asarray(layout.owner(addrs), dtype=np.int64)
    owned = np.bincount(owners[(owners >= 0) & (owners < H)], minlength=H)
    iters = _iterations_per_pe(ilo, ihi, p, H)
    return owned.astype(np.int64) * iters * seg.mult


def _count_split_segmented(seg: Segment, ilo: int, ihi: int, p: int,
                           H: int, layout) -> np.ndarray:
    """Split a segment at SegmentedLayout piece boundaries.

    Iterations whose whole per-iteration span sits inside one boundary
    interval are counted closed-form with that interval's sub-model;
    iterations straddling a boundary (at most a few per boundary) are
    enumerated.
    """
    b0, d, s, n = seg.base, seg.dpar, seg.s, seg.n
    amin, amax = _seg_span(seg, ilo, ihi)
    cuts = {amin, amax + 1}
    for st, en, _l in layout.segments:
        for x in (st, en + 1):
            if amin < x <= amax:
                cuts.add(x)
    edges = sorted(cuts)
    local = np.zeros(H, dtype=np.int64)
    covered: list = []
    span = s * (n - 1)
    for a, b in zip(edges, edges[1:]):
        # iterations whose span [b0+d*i, b0+d*i+span] fits in [a, b)
        if d > 0:
            sub_lo = max(ilo, _ceil_div(a - b0, d))
            sub_hi = min(ihi, (b - 1 - span - b0) // d)
        else:
            nd = -d
            sub_lo = max(ilo, _ceil_div(b0 + span - (b - 1), nd))
            sub_hi = min(ihi, (b0 - a) // nd)
        if sub_hi < sub_lo:
            continue
        model = _resolve(layout, a, b - 1, H)
        local += _count_segment_model(seg, sub_lo, sub_hi, p, H, model)
        covered.append((sub_lo, sub_hi))
    # enumerate the leftover boundary-straddling iterations
    covered.sort()
    leftovers, cursor = [], ilo
    for a, b in covered:
        if a > cursor:
            leftovers.append((cursor, a - 1))
        cursor = max(cursor, b + 1)
    if cursor <= ihi:
        leftovers.append((cursor, ihi))
    left_n = sum(b - a + 1 for a, b in leftovers)
    if left_n * n > ENUM_BUDGET:
        raise _Budget("split-leftover")
    for a, b in leftovers:
        local += _enumerate_segment(seg, a, b, p, H, layout)
    return local


def _enumerate_segment(seg: Segment, ilo: int, ihi: int, p: int, H: int,
                       layout) -> np.ndarray:
    """Exact numpy enumeration of one segment (the per-segment fallback)."""
    local = np.zeros(H, dtype=np.int64)
    if ihi < ilo:
        return local
    k = seg.s * np.arange(seg.n, dtype=np.int64)
    chunk = max(1, (1 << 22) // seg.n)
    for start in range(ilo, ihi + 1, chunk):
        i = np.arange(start, min(start + chunk, ihi + 1), dtype=np.int64)
        pe = (i // p) % H
        addr = seg.base + seg.dpar * i[:, None] + k[None, :]
        owners = np.asarray(layout.owner(addr), dtype=np.int64)
        hits = (owners == pe[:, None]).sum(axis=1)
        local += np.bincount(pe, weights=hits, minlength=H).astype(np.int64)
    return local * seg.mult


# ---------------------------------------------------------------------------
# Triangular nests: one row per parallel iteration
# ---------------------------------------------------------------------------

#: Cap on the parallel trip count counted row by row.
ROW_BUDGET = 1 << 22


def _iteration_rows(chain, subscript, env: Mapping[str, int],
                    par_values: np.ndarray):
    """Per-iteration lattices ``(a, s, n, mu)`` of a reference whose
    inner bounds move with the parallel index (a triangular nest).

    Parallel iteration ``par_values[t]`` touches ``a[t] + s*k`` for
    ``k < n[t]``, each address ``mu[t]`` times.  Bounds and subscript
    must be affine in the parallel index (so every column is an
    arithmetic sequence, read off two scalar evaluations), inner bounds
    may not depend on other inner indices, and every inner stride must
    be constant, at most one of them nonzero.  Raises
    :class:`SymbolicMiss` outside that fragment.
    """
    par, inner = chain[0], chain[1:]
    moving = {loop.index for loop in inner} | {par.index}
    if par_values.size > ROW_BUDGET:
        raise _Budget("rows")
    at = {par.index.name: int(par_values[0])}
    step = par_values - par_values[0]

    def slope(expr) -> int:
        """Constant ``expr(i + 1) - expr(i)``, or a miss."""
        diff = shift_difference(expr, par.index)
        if diff.free_symbols() & moving:
            raise SymbolicMiss("par-dependent-bounds")
        return _ev(diff, env, at)

    rise = slope(subscript)
    base_at = dict(at)
    s, n, mu = 0, None, 1
    for loop in inner:
        stride = shift_difference(subscript, loop.index)
        if stride.free_symbols() & moving or any(
            bound.free_symbols() & (moving - {par.index})
            for bound in (loop.lower, loop.upper)
        ):
            raise SymbolicMiss("par-dependent-bounds")
        stride = _ev(stride, env)
        lo0, dlo = _ev(loop.lower, env, at), slope(loop.lower)
        count = np.maximum(
            _ev(loop.upper, env, at) - lo0 + 1
            + (slope(loop.upper) - dlo) * step, 0)
        base_at[loop.index.name] = lo0
        rise += stride * dlo
        if stride == 0:
            mu = mu * count
        elif n is None:
            s, n = stride, count
        else:
            raise SymbolicMiss("par-dependent-bounds")
    a = _ev(subscript, env, base_at) + rise * step
    if n is None:
        n = np.ones(par_values.size, dtype=np.int64)
    if s < 0:
        a, s = a + s * np.maximum(n - 1, 0), -s
    return a, s, n, mu * np.ones(par_values.size, dtype=np.int64)


def _count_rows(a, s: int, n, mu, pe, H: int, layout) -> np.ndarray:
    """Per-PE local counts of per-iteration lattices (see
    :func:`_iteration_rows`) run by PEs ``pe`` under ``layout``."""
    local = np.zeros(H, dtype=np.int64)
    live = (n > 0) & (mu > 0)
    if not live.any():
        return local
    a, n, mu, pe = a[live], n[live], mu[live], pe[live]
    last = a + s * (n - 1)
    amin, amax = int(a.min()), int(last.max())
    if max(abs(amin), abs(amax)) >= 1 << 40:
        raise _Budget("rows")
    model = _resolve(layout, amin, amax, H)
    if model[0] == "reversed":
        _kind, AA, c = model
        a, model = AA - last, ("cyclic", 0, c)
    if model[0] == "interval":
        blk = model[1]

        def below(X):  # #{k < n: a + s*k < X}
            if s == 0:
                return np.where(a < X, n, 0)
            return np.clip(-((a - X) // s), 0, n)

        cnt = (np.where(pe == H - 1, n, below((pe + 1) * blk))
               - below(pe * blk))
    else:
        _kind, origin, c = model
        M = c * H
        rho = (a - origin - pe * c) % M
        if s == 0:
            cnt = np.where(rho < c, n, 0)
        else:
            both = _floor_sum_vec(np.concatenate([n, n]), M, s,
                                  np.concatenate([rho, rho - c]))
            cnt = both[:len(rho)] - both[len(rho):]
    np.add.at(local, pe, mu * np.asarray(cnt, dtype=np.int64))
    return local


# ---------------------------------------------------------------------------
# Phase accounting
# ---------------------------------------------------------------------------


def _note_fallback(obs, reason: str):
    if obs is not None:
        obs.count("dsm.symbolic.fallback")
        obs.count(f"dsm.symbolic.fallback.{reason}")


def _rows_counted(chain, subscript, env, par_values, pe_of_iter, H: int,
                  layout, local: np.ndarray, remote: np.ndarray) -> bool:
    """Add a triangular reference's counts row by row; False (nothing
    added) when it is outside :func:`_iteration_rows`' fragment or its
    layout's closed-form models."""
    try:
        a, s, n, mu = _iteration_rows(chain, subscript, env, par_values)
        total = np.zeros(H, dtype=np.int64)
        np.add.at(total, pe_of_iter, mu * n)
        if layout is None or isinstance(layout, ReplicatedLayout):
            owned = total
        else:
            owned = _count_rows(a, s, n, mu, pe_of_iter, H, layout)
    except SymbolicMiss:
        return False
    local += owned
    remote += total - owned
    return True


def symbolic_phase_stats(phase, env: Mapping[str, int], H: int, schedule,
                         layouts: Mapping[str, object], obs=None):
    """Closed-form per-PE (local, remote, iterations) for one phase.

    Returns ``None`` when the phase is outside even the fallback's reach
    (multiple roots, serial root, unevaluable bounds, or a reference
    that ragged enumeration cannot handle either) — exactly where the
    wide tier gives up too, so the caller interprets the phase.
    """
    from ..ir.interp import NestEnumMiss

    if len(phase.roots) != 1:
        return None
    par = phase.roots[0]
    if not par.parallel:
        return None
    try:
        lo, hi = _ev(par.lower, env), _ev(par.upper, env)
    except SymbolicMiss:
        return None
    p = schedule.p
    local = np.zeros(H, dtype=np.int64)
    remote = np.zeros(H, dtype=np.int64)
    if hi < lo:
        return local, remote, np.zeros(H, dtype=np.int64)
    iterations = _iterations_per_pe(lo, hi, p, H)
    par_values = pe_of_iter = None
    pairs: list = []  # (segment, layout) of every owner-checked ref
    per_iter = 0  # their accesses per parallel iteration

    try:
        for ref, chain in collect_refs(par):
            layout = layouts.get(ref.array.name)
            try:
                segs = decompose_ref(chain, ref.subscript, env, lo)
            except SymbolicMiss as miss:
                if pe_of_iter is None:
                    par_values = np.arange(lo, hi + 1, dtype=np.int64)
                    pe_of_iter = np.asarray(schedule.owner(par_values),
                                            dtype=np.int64)
                if miss.reason == "par-dependent-bounds" and _rows_counted(
                    chain, ref.subscript, env, par_values, pe_of_iter, H,
                    layout, local, remote,
                ):
                    continue
                _note_fallback(obs, f"ref-{miss.reason}")
                enumerate_ref(chain, ref, layout, env, par_values,
                              pe_of_iter, H, local, remote)
                continue
            n_ref = sum(s.n * s.mult for s in segs)
            if layout is None or isinstance(layout, ReplicatedLayout):
                local += n_ref * iterations
            else:
                per_iter += n_ref
                pairs.extend((seg, layout) for seg in segs)
        seg_local = _count_segments(pairs, lo, hi, p, H, obs)
        local += seg_local
        remote += per_iter * iterations - seg_local
    except (NestEnumMiss, ValueError, ZeroDivisionError, KeyError):
        return None
    return local, remote, iterations


# ---------------------------------------------------------------------------
# Communication regions
# ---------------------------------------------------------------------------


def _region_pieces(phase, env: Mapping[str, int], array):
    """The unique region of ``phase`` on ``array`` as lattice pieces.

    Returns ``(pieces, clean)`` or None.  Each piece is ``(base, dims)``
    with ``dims`` a tuple of at most two ``(stride, count)`` pairs in
    ascending stride order.  Contiguous (stride-1) pieces are merged by
    exact interval algebra first — overlapping refs like TFFT2 F8's
    conjugate mirrors collapse without any dedup pass — and ``clean``
    reports whether the surviving pieces are provably duplicate-free
    and pairwise disjoint (so the region is exactly their union).
    """
    if len(phase.roots) != 1:
        return None
    par = phase.roots[0]
    if not par.parallel:
        return None
    from ..ir.interp import NestEnumMiss

    try:
        lo, hi = _ev(par.lower, env), _ev(par.upper, env)
        refs = collect_refs(par)
    except (SymbolicMiss, NestEnumMiss):
        return None
    seen: dict = {}
    if hi >= lo:
        T = hi - lo + 1
        for ref, chain in refs:
            if ref.array.name != array.name:
                continue
            try:
                segs = decompose_ref(chain, ref.subscript, env, lo)
            except SymbolicMiss:
                return None
            for seg in segs:
                base = seg.base + seg.dpar * lo
                adj, _mu, dims = _dims([(seg.dpar, T), (seg.s, seg.n)])
                seen[(base + adj, tuple(dims))] = True

    intervals = []
    lattices = []
    for base, dims in seen:
        if not dims or (len(dims) == 1 and dims[0][0] == 1):
            n = dims[0][1] if dims else 1
            intervals.append((base, base + n))  # half-open
        else:
            lattices.append((base, dims))
    intervals.sort()
    merged: list = []
    for ilo, ihi in intervals:
        if merged and ilo <= merged[-1][1]:
            if ihi > merged[-1][1]:
                merged[-1][1] = ihi
        else:
            merged.append([ilo, ihi])
    pieces = [
        (ilo, ((1, ihi - ilo),) if ihi - ilo > 1 else ())
        for ilo, ihi in merged
    ] + lattices

    clean = True
    for _base, dims in lattices:
        if len(dims) == 2 and (dims[0][1] - 1) * dims[0][0] >= dims[1][0]:
            clean = False  # possible intra-piece duplicates
    if clean:
        for i, p1 in enumerate(pieces):
            for p2 in pieces[i + 1:]:
                lo1, hi1 = _piece_bounds(p1)
                lo2, hi2 = _piece_bounds(p2)
                if hi1 < lo2 or hi2 < lo1:
                    continue
                if not _pieces_disjoint(p1, p2):
                    clean = False
                    break
            if not clean:
                break
    return pieces, clean


def _piece_bounds(piece):
    base, dims = piece
    return base, base + sum((n - 1) * s for s, n in dims)


def _piece_size(dims) -> int:
    size = 1
    for _s, n in dims:
        size *= n
    return size


def symbolic_region(phase, env: Mapping[str, int], array):
    """Sorted unique addresses ``phase`` touches on ``array``, or None.

    The descriptor-level replacement for
    :func:`repro.ir.interp.phase_access_set`: each reference's segments
    become at-most-2D lattice pieces; provably-disjoint pieces
    enumerate and sort directly, and only unprovable overlaps pay a
    dedup pass — still never walking the O(accesses) stream.
    """
    out = _region_pieces(phase, env, array)
    if out is None:
        return None
    pieces, clean = out
    if sum(_piece_size(dims) for _b, dims in pieces) > ENUM_BUDGET:
        return None
    chunks = [_enumerate_piece(base, dims) for base, dims in pieces]
    if not chunks:
        return np.empty(0, dtype=np.int64)
    region = np.concatenate(chunks)
    region.sort()
    if clean:
        return region
    keep = np.empty(region.size, dtype=bool)
    keep[0] = True
    np.not_equal(region[1:], region[:-1], out=keep[1:])
    return region[keep]


def _pieces_disjoint(p1, p2) -> bool:
    """Prove two range-overlapping lattice pieces disjoint by residue.

    Both pieces must share the same outer stride S with non-wrapping
    inner residue intervals mod S that do not intersect."""
    def interval(piece):
        base, dims = piece
        if not dims:
            return None
        S = dims[-1][0]
        inner = sum((n - 1) * s for s, n in dims[:-1])
        r = base % S
        if r + inner >= S:
            return None  # wraps
        return S, r, r + inner

    i1, i2 = interval(p1), interval(p2)
    if i1 is None or i2 is None or i1[0] != i2[0]:
        return False
    return i1[2] < i2[1] or i2[2] < i1[1]


def _enumerate_piece(base: int, dims) -> np.ndarray:
    if not dims:
        return np.array([base], dtype=np.int64)
    if len(dims) == 1:
        s, n = dims[0]
        return base + s * np.arange(n, dtype=np.int64)
    (s1, n1), (s2, n2) = dims
    grid = (base
            + s2 * np.arange(n2, dtype=np.int64)[:, None]
            + s1 * np.arange(n1, dtype=np.int64)[None, :])
    return grid.ravel()


# ---------------------------------------------------------------------------
# Closed-form redistribution plans
# ---------------------------------------------------------------------------

#: Cap on representative addresses evaluated per folded pair count.
FOLD_BUDGET = 1 << 22


def _uniform_runs(layout, lo: int, hi: int) -> list:
    """Split ``[lo, hi]`` into runs each governed by one plain layout.

    Segmented layouts contribute their (start-sorted) segments clipped
    to the range, with inter-segment gaps falling back to the first
    sub-layout — exactly :meth:`SegmentedLayout.owner`'s default.  The
    owner mask is applied in segment order, so where sorted segments
    overlap the *later* one wins: earlier segments are clipped at the
    next segment's start.  Raises :class:`SymbolicMiss` on unsorted
    segments, where that reduction does not hold.
    """
    if not isinstance(layout, SegmentedLayout):
        return [(lo, hi, layout)]
    segs = layout.segments
    eff: list = []
    for i, (start, end, sub) in enumerate(segs):
        if i + 1 < len(segs):
            nxt = segs[i + 1][0]
            if nxt < start:
                raise SymbolicMiss("fold-segments")
            end = min(end, nxt - 1)
        if start <= end:
            eff.append((start, end, sub))
    fallback = segs[0][2]
    runs: list = []
    cur = lo
    for start, end, sub in eff:
        if end < cur:
            continue
        if start > hi:
            break
        if start > cur:
            runs.extend(_uniform_runs(fallback, cur, start - 1))
        sub_lo, sub_hi = max(cur, start), min(hi, end)
        runs.extend(_uniform_runs(sub, sub_lo, sub_hi))
        cur = sub_hi + 1
    if cur <= hi:
        runs.extend(_uniform_runs(fallback, cur, hi))
    return runs


def _run_period(layout, lo: int, hi: int) -> Optional[int]:
    """Period of ``layout.owner`` on ``[lo, hi]``, or None.

    BLOCK-CYCLIC is purely modular (period ``chunk * H``) at or above
    its origin; reversed layouts are modular inside their anchored
    span (the mirror is affine).  BLOCK is ``min``-clamped, but below
    ``block * H`` the clamp is inert and the same period is vacuously
    correct — no two in-range addresses are a period apart.
    """
    if isinstance(layout, BlockCyclicLayout):
        if layout.reversed_:
            if layout.span is None:
                return None
            if lo < layout.origin or hi >= layout.origin + layout.span:
                return None
        elif lo < layout.origin:
            return None
        return layout.chunk * layout.H
    if isinstance(layout, BlockLayout):
        blk = -(-layout.size // layout.H)
        if lo < 0 or hi >= blk * layout.H:
            return None
        return blk * layout.H
    return None


def _pair_count(counts, x, w, layout_k, layout_g, H: int) -> None:
    """Accumulate weighted (owner_k, owner_g) pair counts for ``x``."""
    qk = np.asarray(layout_k.owner(x), dtype=np.int64)
    qg = np.asarray(layout_g.owner(x), dtype=np.int64)
    hist = np.bincount(qk * H + qg, weights=w, minlength=counts.size)
    counts += hist.astype(np.int64)


def _fold_interval(counts, lo, hi, layout_k, layout_g, H: int) -> None:
    """Pair-count a contiguous run via one owner period's representatives."""
    pk = _run_period(layout_k, lo, hi)
    pg = _run_period(layout_g, lo, hi)
    n = hi - lo + 1
    L = n if pk is None or pg is None else pk * pg // gcd(pk, pg)
    use = min(n, L)
    if use > FOLD_BUDGET:
        raise _Budget("fold")
    x = lo + np.arange(use, dtype=np.int64)
    if use == L and n > L:
        w = np.full(use, n // L, dtype=np.int64)
        w[: n % L] += 1
    else:
        w = np.ones(use, dtype=np.int64)
    _pair_count(counts, x, w, layout_k, layout_g, H)


def _fold_piece(counts, base, dims, layout_k, layout_g, H: int) -> None:
    """Pair-count one region piece by period folding.

    Contiguous pieces split at segment boundaries and fold each run.
    Strided lattices must sit inside a single uniform periodic run of
    both layouts; the outer dimension then repeats in owner space with
    period ``L / gcd(s, L)``, so only that many outer offsets (times
    the full inner dimension) are evaluated, weighted by repetition.
    """
    amin = base
    amax = base + sum((n - 1) * s for s, n in dims)
    if not dims or (len(dims) == 1 and dims[0][0] == 1):
        cuts: set = set()
        for lay in (layout_k, layout_g):
            for r_lo, r_hi, _sub in _uniform_runs(lay, amin, amax):
                cuts.add(r_lo)
                cuts.add(r_hi + 1)
        cuts.update((amin, amax + 1))
        edges = sorted(c for c in cuts if amin <= c <= amax + 1)
        for a, b in zip(edges, edges[1:]):
            _fold_interval(counts, a, b - 1, layout_k, layout_g, H)
        return
    periods = []
    for lay in (layout_k, layout_g):
        runs = _uniform_runs(lay, amin, amax)
        if len(runs) != 1:
            raise SymbolicMiss("fold-split")
        period = _run_period(runs[0][2], amin, amax)
        if period is None:
            raise SymbolicMiss("fold-period")
        periods.append(period)
    L = periods[0] * periods[1] // gcd(periods[0], periods[1])
    s_out, n_out = dims[-1]
    offs = np.zeros(1, dtype=np.int64)
    for s, n in dims[:-1]:
        offs = (offs[:, None]
                + s * np.arange(n, dtype=np.int64)[None, :]).ravel()
    P = L // gcd(s_out % L, L) if s_out % L else 1
    use = min(n_out, P)
    if use * offs.size > FOLD_BUDGET:
        raise _Budget("fold")
    m = np.arange(use, dtype=np.int64)
    if use == P and n_out > P:
        w_m = np.full(use, n_out // P, dtype=np.int64)
        w_m[: n_out % P] += 1
    else:
        w_m = np.ones(use, dtype=np.int64)
    x = (base + s_out * m[:, None] + offs[None, :]).ravel()
    w = np.repeat(w_m, offs.size)
    _pair_count(counts, x, w, layout_k, layout_g, H)


def symbolic_redistribution(phase, env: Mapping[str, int], array,
                            layout_k, layout_g, H: int, edge):
    """Closed-form put aggregation for a redistribution edge, or None.

    Instead of materialising the drain region and evaluating both
    owner maps element by element, each region piece is pair-counted
    from one owner-period's worth of representative addresses (both
    layouts are periodic on every uniform run), weighted by the number
    of repetitions.  The resulting (source, dest) count matrix yields
    the same puts, in the same lexicographic order, as
    :func:`repro.dsm.comm.aggregate_puts` over the enumerated region.
    """
    from .comm import CommunicationPlan, put_list

    out = _region_pieces(phase, env, array)
    if out is None:
        return None
    pieces, clean = out
    if not clean:
        return None  # piece union is a multiset: counts would double
    counts = np.zeros(H * H, dtype=np.int64)
    try:
        for base, dims in pieces:
            _fold_piece(counts, base, dims, layout_k, layout_g, H)
    except SymbolicMiss:
        return None
    counts = counts.reshape(H, H)
    np.fill_diagonal(counts, 0)  # elements already in place never move
    # Row-major nonzero == lexicographic (source, dest) — the same order
    # aggregate_puts emits.  ``tolist()`` bulk-converts to Python ints;
    # at H=4096 an all-to-all edge has ~16M puts, and per-element
    # ``int(np.int64)`` casts would dominate the whole tier.
    src, dst = np.nonzero(counts)
    puts = put_list(src.tolist(), dst.tolist(), counts[src, dst].tolist())
    return CommunicationPlan(array=array.name, edge=edge, pattern="global",
                             puts=puts)
