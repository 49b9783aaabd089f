"""Stride coalescing — §2.1, after Paek/Hoeflinger/Padua's LMAD algebra.

Two exact rewrites are applied to each descriptor row until fixpoint:

**Rule A — contiguous merge.**  If for dims ``j`` (outer) and ``k``
(inner) of equal sign ``delta_j == delta_k * alpha_k``, the two dims
describe one contiguous sweep: they merge into a single dim with stride
``delta_k`` and count ``alpha_j * alpha_k``.  This is exact *per slice*
of the outer variables even when the strides reference outer indices —
which is how TFFT2's ``(J, K)`` pair with ``delta_J = 2**(L-1)``,
``alpha_K = 2**(L-1)`` collapses to a dense run of ``P/2`` elements.

**Rule B — invariant-slice drop.**  A dim ``j`` with loop variable ``v``
is removed when every ``v``-slice of the row describes the *same*
region.  Exact sufficient condition:

  (i)  ``v`` is free in no *other* dim's stride or count (so all slices
       have identical shape), and
  (ii) the **slice base** — the subscript φ with every other
       contributing variable substituted at its minimising corner — does
       not depend on ``v`` (so all slices have identical anchor).

After TFFT2's Rule-A merge, the ``L`` dimension passes both tests: the
slice base ``φ(J=0, K=0) = 2*P*I`` loses its ``L`` dependence, and the
dense run of ``P/2`` elements is the same for every ``L`` — giving the
paper's Figure 3(c).  A constant-stride dim like ``2*j`` in ``2*j + k``
fails (ii) (slice base ``2*j``), so nothing unsound is dropped.

Both rules are validated against brute-force address enumeration in the
test suite; anything the rules cannot prove is left untouched (the
descriptor stays correct, only less simplified).
"""

from __future__ import annotations

from typing import Optional

from .. import memo
from ..symbolic import Context, Expr
from .ard import ARD, Dim
from .pd import PhaseDescriptor

__all__ = ["coalesce_row", "coalesce_pd"]


def _strides_equal(a: Expr, b: Expr, ctx: Context) -> bool:
    if a == b:
        return True
    subst = ctx.pow2_substitution()
    if subst:
        return a.subs(subst) == b.subs(subst)
    return False


def _rebuild(row: ARD, dims: tuple) -> ARD:
    return ARD(
        array=row.array,
        kinds=row.kinds,
        dims=dims,
        tau=row.tau,
        subscript=row.subscript,
        label=row.label,
        corners=row.corners,
    )


def _try_merge(row: ARD, ctx: Context) -> Optional[ARD]:
    """One Rule-A step: merge the first mergeable (outer, inner) pair."""
    dims = row.dims
    for j in range(len(dims)):
        for k in range(len(dims)):
            if j == k:
                continue
            outer, inner = dims[j], dims[k]
            if outer.parallel or inner.parallel:
                # The parallel dimension is kept intact: iteration
                # descriptors need its stride untouched.
                continue
            if outer.sign != inner.sign:
                continue
            if not _strides_equal(outer.stride, inner.stride * inner.count, ctx):
                continue
            merged = Dim(
                stride=inner.stride,
                count=outer.count * inner.count,
                sign=inner.sign,
                index=None,
                parallel=False,
                dense=inner.dense or inner.stride.is_one,
            )
            new_dims = tuple(
                merged if idx == k else d
                for idx, d in enumerate(dims)
                if idx != j
            )
            return _rebuild(row, new_dims)
    return None


def _slice_base(row: ARD, skip) -> Expr:
    """φ with every corner except ``skip``'s substituted, innermost-first."""
    base = row.subscript
    for symbol, bound in row.corners:  # already innermost-first
        if symbol == skip:
            continue
        base = base.subs({symbol: bound})
    return base


def _try_drop(row: ARD, ctx: Context) -> Optional[ARD]:
    """One Rule-B step: drop the first dim whose slices provably coincide."""
    dims = row.dims
    for j, dj in enumerate(dims):
        if dj.parallel or dj.index is None:
            continue
        if dj.count.is_zero:
            # A zero-trip dim has no slices: "every slice coincides" is
            # vacuously true but dropping it would resurrect an access
            # that never executes.
            continue
        v = dj.index
        others = [d for i, d in enumerate(dims) if i != j]
        if any(
            v in (d.stride.free_symbols() | d.count.free_symbols())
            for d in others
        ):
            continue  # slice shapes differ
        base = _slice_base(row, skip=v)
        if v in base.free_symbols():
            # Retry after power-of-two rewriting (a dependence like
            # P*2**-L - 2**(p-L) only cancels once P is written as 2**p).
            subst = ctx.pow2_substitution()
            if not subst or v in base.subs(subst).free_symbols():
                continue  # slice anchors differ
        new_dims = tuple(d for i, d in enumerate(dims) if i != j)
        return _rebuild(row, new_dims)
    return None


#: Fixpoint results keyed by ``(row, ctx fingerprint)`` — the same rows
#: are re-coalesced for every (phase, array) pair during LCG
#: construction, and rows/contexts are immutable, so the rewrite is a
#: pure function of the key.
_COALESCED = memo.register("coalesce", 4096)


def coalesce_row(row: ARD, ctx: Context) -> ARD:
    """Apply Rules A and B to one row until fixpoint (memoized)."""
    try:
        key = (row, ctx._fingerprint())
        hit = _COALESCED.get(key)
    except TypeError:  # unhashable payload: compute uncached
        return _coalesce_row_impl(row, ctx)
    if hit is None:
        hit = _COALESCED.put(key, _coalesce_row_impl(row, ctx))
    return hit


def _coalesce_row_impl(row: ARD, ctx: Context) -> ARD:
    current = row
    changed = True
    while changed:
        changed = False
        merged = _try_merge(current, ctx)
        if merged is not None:
            current = merged
            changed = True
            continue
        dropped = _try_drop(current, ctx)
        if dropped is not None:
            current = dropped
            changed = True
    return current


def coalesce_pd(pd: PhaseDescriptor, ctx: Context) -> PhaseDescriptor:
    """Coalesce every row of a phase descriptor."""
    return PhaseDescriptor(
        phase_name=pd.phase_name,
        array=pd.array,
        rows=[coalesce_row(r, ctx) for r in pd.rows],
    )
