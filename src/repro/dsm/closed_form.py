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
  PE then sees a translated copy of the same picture, and a memo
  collapses the whole sweep to one evaluation).

Anything outside the fragment — symbolic strides after concretisation,
layout clamps, residue budgets — falls back *per segment* (or per
reference) to exact enumeration, and every fallback increments
``dsm.symbolic.fallback`` (plus a reason-suffixed counter) on the
``obs`` collector so the differential harness can see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
from ..symbolic.expr import shift_difference

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


def _sum_clamp_floor(M: int, g: int, d: int, s: int, nu: int) -> int:
    """``sum(clamp((g + d*m) // s, 0, nu) for m in range(M))``, s > 0."""
    if M <= 0 or nu <= 0:
        return 0
    if d == 0:
        return M * min(max(g // s, 0), nu)
    if d > 0:
        m1 = max(_ceil_div(s - g, d), 0)       # first m with v >= 1
        m2 = max(_ceil_div(nu * s - g, d), 0)  # first m with v >= nu
        m1c, m2c = min(m1, M), min(m2, M)
        total = (M - m2c) * nu
        if m2c > m1c:
            total += floor_sum(m2c - m1c, s, d, g + d * m1c)
        return total
    nd = -d
    m1 = (g - s) // nd       # last m with v >= 1
    m2 = (g - nu * s) // nd  # last m with v >= nu
    m1c, m2c = min(m1, M - 1), min(m2, M - 1)
    total = 0
    if m2c >= 0:
        total += (m2c + 1) * nu
    lo = max(m2c + 1, 0)
    if m1c >= lo:
        total += floor_sum(m1c - lo + 1, s, d, g + d * lo)
    return total


def _sum_window(M: int, g: int, beta: int, s: int, nu: int, A: int,
                B: Optional[int]) -> int:
    """``sum over m < M of #{k < nu: A <= g + beta*m + s*k < B}``, s > 0.

    ``B is None`` means an unbounded window top (the last BLOCK PE).
    """
    hi = nu * M if B is None else _sum_clamp_floor(
        M, B - g + s - 1, -beta, s, nu
    )
    lo = _sum_clamp_floor(M, A - g + s - 1, -beta, s, nu)
    return hi - lo


def _ap_in_range(M: int, g: int, beta: int, A: int,
                 B: Optional[int]) -> int:
    """``#{m < M: A <= g + beta*m (< B)}``."""
    if M <= 0:
        return 0
    if beta == 0:
        return M if g >= A and (B is None or g < B) else 0
    if beta > 0:
        lo = max(_ceil_div(A - g, beta), 0)
        hi = M - 1 if B is None else min(M - 1, _ceil_div(B - g, beta) - 1)
        return max(hi - lo + 1, 0)
    nd = -beta
    hi = min((g - A) // nd, M - 1)
    lo = 0 if B is None else max((g - B) // nd + 1, 0)
    return max(hi - lo + 1, 0)


def _mod_window_count(rho: int, s: int, nu: int, c: int, M: int) -> int:
    """``#{k < nu: (rho + s*k) mod M < c}`` via two floor-sums."""
    return floor_sum(nu, M, s, rho) - floor_sum(nu, M, s, rho - c)


def _residues(g: int, beta: int, cnt: int, M: int):
    """Distinct values of ``(g + beta*t) mod M`` for t < cnt, with
    multiplicities — closed form via the residue period M/gcd."""
    b = beta % M
    if b == 0 or cnt == 1:
        yield g % M, cnt
        return
    pi = M // gcd(b, M)
    distinct = min(cnt, pi)
    if distinct > LOOP_BUDGET:
        raise _Budget("residues")
    for t in range(distinct):
        yield (g + beta * t) % M, (cnt - t + pi - 1) // pi


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


def _count_interval(M: int, g: int, beta: int, dims, mu: int, A: int,
                    B: Optional[int]) -> int:
    """Lattice points of ``g + beta*m + dims`` (m < M) inside [A, B)."""
    if M <= 0:
        return 0
    if not dims:
        return mu * _ap_in_range(M, g, beta, A, B)
    if len(dims) == 1:
        (s, nu), = dims
        return mu * _sum_window(M, g, beta, s, nu, A, B)
    (s1, n1), (s2, n2) = dims
    if n1 <= n2:
        ls, ln, s, nu = s1, n1, s2, n2
    else:
        ls, ln, s, nu = s2, n2, s1, n1
    if ln > LOOP_BUDGET:
        raise _Budget("interval-dims")
    return mu * sum(
        _sum_window(M, g + ls * t, beta, s, nu, A, B) for t in range(ln)
    )


def _count_cyclic(M_cnt: int, g: int, beta: int, dims, mu: int, c: int,
                  M: int, memo: dict) -> int:
    """Lattice points with ``(g + beta*m + dims) mod M < c`` (m < M_cnt)."""
    if M_cnt <= 0:
        return 0
    total = 0
    for rho, k_mult in _residues(g, beta, M_cnt, M):
        total += k_mult * _lattice_mod_count(rho, dims, c, M, memo)
    return mu * total


def _lattice_mod_count(rho: int, dims, c: int, M: int, memo: dict) -> int:
    if not dims:
        return 1 if rho < c else 0
    if len(dims) == 1:
        key = (dims[0], rho)
        v = memo.get(key)
        if v is None:
            (s, nu), = dims
            v = _mod_window_count(rho, s, nu, c, M)
            memo[key] = v
        return v
    key = (dims[0], dims[1], rho)
    v = memo.get(key)
    if v is not None:
        return v
    (s1, n1), (s2, n2) = dims

    def cost(s, n):
        b = s % M
        return min(n, M // gcd(b, M)) if b else 1

    if cost(s1, n1) <= cost(s2, n2):
        loop, keep = (s1, n1), [(s2, n2)]
    else:
        loop, keep = (s2, n2), [(s1, n1)]
    v = 0
    for r, k_mult in _residues(0, loop[0], loop[1], M):
        v += k_mult * _lattice_mod_count((rho + r) % M, keep, c, M, memo)
    memo[key] = v
    return v


# ---------------------------------------------------------------------------
# Reference decomposition
# ---------------------------------------------------------------------------


def _ev(expr, fenv: dict, bindings: Optional[Mapping[str, int]] = None) -> int:
    env = fenv
    if bindings:
        env = dict(fenv)
        for k, v in bindings.items():
            env[k] = Fraction(v)
    try:
        v = expr.evalf(env)
    except (KeyError, ValueError, ZeroDivisionError) as e:
        raise SymbolicMiss("symbolic-value") from e
    if v.denominator != 1:
        raise SymbolicMiss("non-integer")
    return int(v)


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
    fenv = {k: Fraction(v) for k, v in env.items()}
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
            lo = _ev(loop.lower, fenv, bindings)
            hi = _ev(loop.upper, fenv, bindings)
            n = hi - lo + 1
            if n <= 0:
                return  # zero-trip inner loop: no accesses
            base_env[loop.index.name] = lo
            if n == 1:
                continue
            s = _ev(stride_expr[t], fenv, bindings)
            if s == 0:
                mult *= n
            else:
                dims.append((s, n))
        dpar = _ev(dpar_expr, fenv, bindings)
        base_env[par.index.name] = par_lo
        base = _ev(subscript, fenv, base_env) - dpar * par_lo
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
        lo = _ev(loop.lower, fenv, bindings)
        hi = _ev(loop.upper, fenv, bindings)
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


def _count_segment_model(seg: Segment, ilo: int, ihi: int, p: int,
                         H: int, model) -> np.ndarray:
    """Per-PE local counts of one segment under one owner model."""
    local = np.zeros(H, dtype=np.int64)
    if ihi < ilo:
        return local
    b0, d, s, n = seg.base, seg.dpar, seg.s, seg.n
    if model[0] == "reversed":
        _kind, AA, c = model
        seg2 = Segment(base=AA - b0 - s * (n - 1), dpar=-d, s=s, n=n,
                       mult=seg.mult)
        return _count_segment_model(seg2, ilo, ihi, p, H,
                                    ("cyclic", 0, c))
    jlo_f, jhi_f, partials = _block_structure(ilo, ihi, p)
    adj_f, mu_f, dims_f = _dims([(d, p), (s, n)])
    adj_p, mu_p, dims_p = _dims([(s, n)])
    beta = d * p * H
    memo: dict = {}
    if model[0] == "interval":
        _kind, blk = model
        for q in range(H):
            j_q = jlo_f + ((q - jlo_f) % H)
            Mq = 0 if j_q > jhi_f else (jhi_f - j_q) // H + 1
            B = None if q == H - 1 else (q + 1) * blk
            cnt = _count_interval(
                Mq, b0 + d * p * j_q + adj_f, beta, dims_f, mu_f,
                q * blk, B,
            )
            if cnt:
                local[q] += cnt
        for j, a, b in partials:
            q = j % H
            B = None if q == H - 1 else (q + 1) * blk
            local[q] += _count_interval(
                b - a + 1, b0 + d * a + adj_p, d, dims_p, mu_p,
                q * blk, B,
            )
    else:
        _kind, origin, c = model
        M = c * H
        for q in range(H):
            j_q = jlo_f + ((q - jlo_f) % H)
            Mq = 0 if j_q > jhi_f else (jhi_f - j_q) // H + 1
            g = b0 + d * p * j_q + adj_f - origin - q * c
            cnt = _count_cyclic(Mq, g, beta, dims_f, mu_f, c, M, memo)
            if cnt:
                local[q] += cnt
        for j, a, b in partials:
            q = j % H
            g = b0 + d * a + adj_p - origin - q * c
            local[q] += _count_cyclic(
                b - a + 1, g, d, dims_p, mu_p, c, M, memo
            )
    if seg.mult != 1:
        local *= seg.mult
    return local


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
# Phase accounting
# ---------------------------------------------------------------------------


def _collect_refs(par):
    """(ref, chain) pairs under a parallel root, as the wide tier walks."""
    from ..ir.core import LoopNode, RefNode

    refs: list = []

    def walk(node, chain):
        for child in node.children:
            if isinstance(child, RefNode):
                refs.append((child.ref, chain))
            elif isinstance(child, LoopNode):
                walk(child, chain + (child,))
            else:  # pragma: no cover - defensive
                raise SymbolicMiss("unknown-node")

    walk(par, (par,))
    return refs


def _note_fallback(obs, reason: str):
    if obs is not None:
        obs.count("dsm.symbolic.fallback")
        obs.count(f"dsm.symbolic.fallback.{reason}")


def _enumerate_ref(chain, ref, layout, env, lo: int, hi: int, p: int,
                   H: int, local: np.ndarray, remote: np.ndarray):
    """Wide-style ragged enumeration of a single reference (ref fallback).

    Raises ``NestEnumMiss`` when even enumeration cannot handle the
    nest, which aborts the whole symbolic phase (the caller then falls
    through to the wide/interp tiers, exactly as wide would)."""
    from ..ir.interp import NestEnumMiss, NestTooBig, ragged_nest_addresses

    counting_only = layout is None or isinstance(layout, ReplicatedLayout)
    trip = hi - lo + 1
    start, block = 0, trip
    while start < trip:
        size = min(block, trip - start)
        vals = np.arange(lo + start, lo + start + size, dtype=np.int64)
        try:
            addresses, ordinals = ragged_nest_addresses(
                chain,
                None if counting_only else ref.subscript,
                env,
                level0_values=vals,
            )
        except NestTooBig:
            if size <= 1:
                raise NestEnumMiss() from None
            block = max(size // 2, 1)
            continue
        pe = (vals[ordinals] // p) % H
        if counting_only:
            local += np.bincount(pe, minlength=H)
        else:
            owners = np.asarray(layout.owner(addresses), dtype=np.int64)
            is_local = owners == pe
            local += np.bincount(pe[is_local], minlength=H)
            remote += np.bincount(pe[~is_local], minlength=H)
        start += size


def symbolic_phase_stats(phase, env: Mapping[str, int], H: int, schedule,
                         layouts: Mapping[str, object], obs=None):
    """Closed-form per-PE (local, remote, iterations) for one phase.

    Returns ``None`` when the phase is outside even the fallback's reach
    (multiple roots, serial root, unevaluable bounds, or a reference
    that ragged enumeration cannot handle either) — the caller then
    tries the wide tier, so counts stay exact in every configuration.
    """
    from ..ir.interp import NestEnumMiss

    if len(phase.roots) != 1:
        return None
    par = phase.roots[0]
    if not par.parallel:
        return None
    fenv = {k: Fraction(v) for k, v in env.items()}
    try:
        lo, hi = _ev(par.lower, fenv), _ev(par.upper, fenv)
    except SymbolicMiss:
        return None
    p = schedule.p
    local = np.zeros(H, dtype=np.int64)
    remote = np.zeros(H, dtype=np.int64)
    if hi < lo:
        return local, remote, np.zeros(H, dtype=np.int64)
    iterations = _iterations_per_pe(lo, hi, p, H)

    try:
        refs = _collect_refs(par)
        for ref, chain in refs:
            layout = layouts.get(ref.array.name)
            counting_only = (
                layout is None or isinstance(layout, ReplicatedLayout)
            )
            try:
                segs = decompose_ref(chain, ref.subscript, env, lo)
            except SymbolicMiss as miss:
                _note_fallback(obs, f"ref-{miss.reason}")
                _enumerate_ref(chain, ref, layout, env, lo, hi, p, H,
                               local, remote)
                continue
            per_iter = sum(s.n * s.mult for s in segs)
            if counting_only:
                local += per_iter * iterations
                continue
            seg_local = np.zeros(H, dtype=np.int64)
            for seg in segs:
                try:
                    seg_local += _count_segment(seg, lo, hi, p, H, layout)
                except SymbolicMiss as miss:
                    _note_fallback(obs, f"segment-{miss.reason}")
                    seg_local += _enumerate_segment(seg, lo, hi, p, H,
                                                    layout)
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
    fenv = {k: Fraction(v) for k, v in env.items()}
    try:
        lo, hi = _ev(par.lower, fenv), _ev(par.upper, fenv)
        refs = _collect_refs(par)
    except SymbolicMiss:
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
    from .comm import CommunicationPlan, PutOperation

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
    puts = [
        PutOperation(source=q, dest=r, elements=c)
        for q, r, c in zip(
            src.tolist(), dst.tolist(), counts[src, dst].tolist()
        )
    ]
    return CommunicationPlan(array=array.name, edge=edge, pattern="global",
                             puts=puts)
