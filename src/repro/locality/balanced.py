"""The balanced locality condition — paper Eq. 1–3 (§4.2).

For phases ``F_k`` and ``F_g`` accessing array ``X``::

    UL(I^k(X,i), p_k) + h^k  =  UL(I^g(X,i'), p_g) + h^g          (1)
    1 <= p_k <= ceil((u_k1 + 1) / H)                              (2)
    1 <= p_g <= ceil((u_g1 + 1) / H)                              (3)

For ascending uniform IDs the two sides are affine in the chunk sizes,
so (1) reduces to a linear Diophantine equation

    a_k * p_k - a_g * p_g = c        (a = delta_P slope)

whose solutions inside the load-balance box (2)–(3) are the feasible
CYCLIC(p) blockings.  TFFT2's F2–F3 pair yields
``p_2 + 2*Q*P - P = 2*P*p_3``: the only integer solution is
``(p_2, p_g) = (P, Q)``, which violates the boxes — communication;
F3–F4 yields ``p_3 = p_4`` with ``ceil(Q/H)`` boxed solutions — locality.

The symbolic path proves feasibility/infeasibility for *all* parameter
values when it can; otherwise a concrete parameter binding decides the
instance (exactly how the paper's own GAMS step operates numerically).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .. import memo
from ..symbolic import (
    CeilDiv,
    Context,
    DiophantineSolution,
    Expr,
    ceil_div,
    divide_exact,
    solve_linear_diophantine,
    sym,
)
from ..iteration import IterationDescriptor

__all__ = ["Feasibility", "BalancedCondition", "balanced_condition"]


class Feasibility(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"


#: Structural memo of :meth:`BalancedCondition.decide` verdicts.  The
#: decision is a pure function of the equation (slopes, shift, trips),
#: the assumption context and the concrete binding — the ``p_k``/``p_g``
#: symbol *names* never enter it — so structurally identical phase pairs
#: across programs (and across processes, via plan bundles) share one
#: verdict.  Witness expressions are name-free for the same reason.
_DECIDED = memo.register("decide", 1 << 14)


@dataclass
class BalancedCondition:
    """The instantiated Eq. 1–3 for a phase pair and one array.

    ``slope_k * p_k - slope_g * p_g = shift`` plus the two box bounds.
    ``affine`` is False when either balanced value failed to linearise
    (mixed-direction IDs, unresolved min/max): the condition then cannot
    be decided symbolically and concrete evaluation is required.
    """

    phase_k: str
    phase_g: str
    array: str
    p_k: object  # Symbol
    p_g: object  # Symbol
    slope_k: Optional[Expr]
    slope_g: Optional[Expr]
    shift: Optional[Expr]  # c_g - c_k
    trip_k: Expr
    trip_g: Expr
    affine: bool

    # -- presentation ----------------------------------------------------

    def equation_str(self) -> str:
        if not self.affine:
            return "<non-affine balanced values>"
        return (
            f"{self.slope_k}*{self.p_k} = {self.slope_g}*{self.p_g}"
            + (f" + ({self.shift})" if not self.shift.is_zero else "")
        )

    def box_str(self, H) -> tuple:
        return (
            f"1 <= {self.p_k} <= ceil({self.trip_k}/{H})",
            f"1 <= {self.p_g} <= ceil({self.trip_g}/{H})",
        )

    # -- symbolic decision --------------------------------------------------

    def check_symbolic(self, ctx: Context, H) -> tuple:
        """Try to decide feasibility for all parameter values.

        Returns ``(Feasibility, witness)`` where the witness is a
        ``(p_k_expr, p_g_expr)`` minimal solution when FEASIBLE.
        """
        if not self.affine:
            return Feasibility.UNKNOWN, None
        a_k, a_g, c = self.slope_k, self.slope_g, self.shift
        if c.is_zero:
            # Parallel-invariant sides (slope 0: the row does not move
            # with the chunk) never balance against a moving side — the
            # equation degenerates to ``a * p = 0`` with ``p >= 1`` —
            # while two invariant sides balance trivially.
            if a_k.is_zero and a_g.is_zero:
                return Feasibility.FEASIBLE, (_one(), _one())
            if a_k.is_zero or a_g.is_zero:
                moving = a_g if a_k.is_zero else a_k
                if ctx.is_positive(moving) or ctx.is_positive(-moving):
                    return Feasibility.INFEASIBLE, None
                return Feasibility.UNKNOWN, None
            # a_k * p_k = a_g * p_g: minimal solution from the stride
            # ratio.  Note that c == 0 solutions are *cyclically
            # consistent*: the per-chunk extents a_k*p_k and a_g*p_g are
            # equal, so every round of the CYCLIC distribution stays
            # aligned, not just the first.
            r = divide_exact(a_g, a_k)
            if r is not None and ctx.is_integer_valued(r) and ctx.is_positive(r):
                witness = (r, _one())
                if self._witness_fits(ctx, H, witness):
                    return Feasibility.FEASIBLE, witness
                if self._witness_overflows(ctx, H, witness):
                    return Feasibility.INFEASIBLE, None
                return Feasibility.UNKNOWN, witness
            r = divide_exact(a_k, a_g)
            if r is not None and ctx.is_integer_valued(r) and ctx.is_positive(r):
                witness = (_one(), r)
                if self._witness_fits(ctx, H, witness):
                    return Feasibility.FEASIBLE, witness
                if self._witness_overflows(ctx, H, witness):
                    return Feasibility.INFEASIBLE, None
                return Feasibility.UNKNOWN, witness
            return Feasibility.UNKNOWN, None
        # c != 0: a solution can only align *every* round of the CYCLIC
        # distribution if each processor receives a single chunk — the
        # degenerate "execute sequentially" solution the paper discusses
        # for F2-F3: p_k = trip_k, p_g = trip_g (valid only at H = 1).
        residual = a_k * self.trip_k - a_g * self.trip_g - c
        if residual.is_zero:
            witness = (self.trip_k, self.trip_g)
            if self._witness_fits(ctx, H, witness):
                return Feasibility.FEASIBLE, witness
            return Feasibility.UNKNOWN, witness
        if ctx.is_positive(residual) or ctx.is_positive(-residual):
            return Feasibility.INFEASIBLE, None
        return Feasibility.UNKNOWN, None

    def _witness_fits(self, ctx: Context, H, witness) -> bool:
        """p <= ceil(trip / H)  ⇐  H * (p - 1) + 1 <= trip."""
        from ..symbolic import as_expr

        H = as_expr(H)
        wk, wg = (as_expr(w) for w in witness)
        ok_k = ctx.is_le(H * (wk - 1) + 1, self.trip_k)
        ok_g = ctx.is_le(H * (wg - 1) + 1, self.trip_g)
        return ok_k and ok_g

    def _witness_overflows(self, ctx: Context, H, witness) -> bool:
        """Prove the minimal solution exceeds a box for *every* H >= 1.

        ``p > ceil(trip/H)``  ⇐  ``H*(p-1) >= trip + H - 1``  ⇐ (H >= 1)
        ``p - 1 >= trip``; we additionally try the H-scaled form so that
        e.g. ``p_k = 2*P*Q - P + 1`` against ``trip = P*Q`` is caught.
        """
        from ..symbolic import as_expr

        H = as_expr(H)
        for w, trip in ((witness[0], self.trip_k), (witness[1], self.trip_g)):
            w = as_expr(w)
            if ctx.is_le(trip + H - 1, H * (w - 1)):
                return True
            if ctx.is_le(trip, w - 1):
                return True
        return False

    # -- concrete decision ---------------------------------------------------

    def solve_concrete(
        self, env: Mapping[str, int], H: int
    ) -> DiophantineSolution:
        """Decide the condition exactly for one parameter binding.

        With ``shift == 0`` every boxed Diophantine solution is returned
        (all are cyclically consistent — per-chunk extents match).  With
        ``shift != 0`` only the degenerate whole-trip solution can align
        every CYCLIC round, so feasibility reduces to checking it.

        Evaluation goes through the compiled-expression path (exact, and
        memoized per expression), falling back to ``Fraction`` tree
        interpretation only for the rare uncompilable residue.
        """
        if not self.affine:
            raise ValueError("non-affine balanced condition")

        from ..symbolic import UncompilableExpr, compile_expr

        def ev(e: Expr) -> int:
            try:
                return compile_expr(e).evali(env)
            except UncompilableExpr:
                pass
            v = e.evalf({k: Fraction(val) for k, val in env.items()})
            if v.denominator != 1:
                raise ValueError(f"{e} not integral under {env}")
            return int(v)

        a = ev(self.slope_k)
        b = ev(self.slope_g)
        c = ev(self.shift)
        trip_k, trip_g = ev(self.trip_k), ev(self.trip_g)
        xmax = -(-trip_k // H)
        ymax = -(-trip_g // H)
        if c == 0:
            return solve_linear_diophantine(a, b, c, xmax=xmax, ymax=ymax)
        if a * trip_k - b * trip_g == c and trip_k <= xmax and trip_g <= ymax:
            return DiophantineSolution(
                x0=trip_k, y0=trip_g, step_x=0, step_y=0, count=1
            )
        return DiophantineSolution(0, 0, 0, 0, 0)

    def _decide_key(
        self, ctx: Context, H, env, H_value
    ) -> Optional[tuple]:
        if not self.affine:
            return None
        from ..symbolic import as_expr

        return (
            self.slope_k._key(),
            self.slope_g._key(),
            self.shift._key(),
            self.trip_k._key(),
            self.trip_g._key(),
            ctx._fingerprint(),
            as_expr(H)._key(),
            tuple(sorted((k, int(v)) for k, v in (env or {}).items())),
            H_value,
        )

    def decide(
        self,
        ctx: Context,
        H,
        env: Optional[Mapping[str, int]] = None,
        H_value: Optional[int] = None,
    ) -> tuple:
        """Symbolic first, concrete fallback.  Returns (Feasibility, witness)."""
        key = self._decide_key(ctx, H, env, H_value)
        if key is not None:
            hit = _DECIDED.get(key)
            if hit is not None:
                return hit
        verdict, witness = self.check_symbolic(ctx, H)
        if verdict is Feasibility.UNKNOWN:
            if self.affine and env is not None and H_value is not None:
                sol = self.solve_concrete(env, H_value)
                if sol.feasible:
                    verdict, witness = Feasibility.FEASIBLE, sol.smallest()
                else:
                    verdict, witness = Feasibility.INFEASIBLE, None
        if key is not None and verdict is not Feasibility.UNKNOWN:
            _DECIDED.put(key, (verdict, witness))
        return verdict, witness


def _one():
    from ..symbolic import ONE

    return ONE


def balanced_condition(
    id_k: IterationDescriptor,
    id_g: IterationDescriptor,
    ctx: Context,
    halo_slack=None,
) -> BalancedCondition:
    """Build Eq. 1–3 from two iteration descriptors.

    ``halo_slack`` — the overlapping-storage distance Δs available
    between the two phases.  A constant offset between equal-slope
    balanced values that fits inside the replicated halo does not force
    communication (the halo copies absorb the misalignment), so such a
    shift is cancelled: a Jacobi sweep's read anchor ``tau = 0`` and its
    copy-back's write anchor ``tau = 1`` still yield ``p_k = p_g``.
    """
    p_k = sym(f"p_{id_k.phase_name}")
    p_g = sym(f"p_{id_g.phase_name}")
    aff_k = id_k.balanced_affine(p_k)
    aff_g = id_g.balanced_affine(p_g)
    affine = aff_k is not None and aff_g is not None
    slope_k = aff_k[0] if aff_k else None
    slope_g = aff_g[0] if aff_g else None
    shift = (aff_g[1] - aff_k[1]) if affine else None
    if (
        affine
        and halo_slack is not None
        and slope_k == slope_g
        and not shift.is_zero
    ):
        absorbed = (
            ctx.is_le(shift, halo_slack)
            if ctx.is_nonneg(shift)
            else ctx.is_le(-shift, halo_slack)
        )
        if absorbed:
            from ..symbolic import ZERO

            shift = ZERO
    return BalancedCondition(
        phase_k=id_k.phase_name,
        phase_g=id_g.phase_name,
        array=id_k.array.name,
        p_k=p_k,
        p_g=p_g,
        slope_k=slope_k,
        slope_g=slope_g,
        shift=shift,
        trip_k=id_k.parallel_trip,
        trip_g=id_g.parallel_trip,
        affine=affine,
    )
