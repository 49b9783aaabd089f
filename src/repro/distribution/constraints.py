"""Constraint extraction from the LCG — the Table 2 generator (§4.3a).

For a labelled LCG the integer programming model has one variable
``p_kj`` per (phase k, array j) node — the CYCLIC chunk size of the
phase's parallel loop — and four constraint families:

* **Locality constraints** — one per ``L`` edge: the balanced-locality
  equation ``slope_k * p_k = slope_g * p_g + shift`` that keeps the two
  phases' chunks covering the same data sub-region.
* **Load-balance constraints** — per node: ``1 <= p <= ceil(trip / H)``.
* **Storage constraints** — per node with storage symmetry:
  ``delta_P * p * H <= Δd`` for a shifted pair (the H processors' first
  sweep must not run into the shifted copy) and
  ``delta_P * p * H <= Δr / 2`` for a reverse pair (the ascending and
  descending fronts must not cross the mirror midpoint).
* **Affinity constraints** — ``p_k,j1 = p_k,j2``: a phase has a single
  parallel loop, so its chunk size is shared by every array it touches.

The system is symbolic in every program parameter and in ``H``, so it
is derived once per labelled LCG: :func:`constraint_system` answers a
repeat (another machine size, cost model or chunk clamp of the same
program) from the ``constraints`` memo bank, and only Eq. 7 is
re-solved.  :func:`extract_constraints` stays the pure derivation the
bank is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from .. import memo
from ..descriptors.fingerprint import program_fingerprint
from ..symbolic import Context, Expr, Symbol, as_expr, ceil_div, sym
from ..locality.lcg import LCG
from ..locality.intra import check_intra_phase

__all__ = [
    "LocalityConstraint",
    "LoadBalanceConstraint",
    "StorageConstraint",
    "AffinityConstraint",
    "ConstraintSystem",
    "constraint_system",
    "extract_constraints",
]

#: Extracted systems by :func:`system_key`.  A value holds the five
#: families and the overlaps, never the LCG: a hit is rebuilt around
#: the caller's LCG, so the bank keeps no program alive.
_SYSTEMS = memo.register("constraints", 1 << 10)


@dataclass(frozen=True)
class LocalityConstraint:
    """``slope_k * p_k == slope_g * p_g + shift`` (an L edge)."""

    var_k: str
    var_g: str
    slope_k: Expr
    slope_g: Expr
    shift: Expr
    array: str
    edge: tuple  # (phase_k, phase_g)

    def __str__(self) -> str:
        s = f"{_coef(self.slope_k)}{self.var_k} = {_coef(self.slope_g)}{self.var_g}"
        if not self.shift.is_zero:
            s += f" + ({self.shift})"
        return s


@dataclass(frozen=True)
class LoadBalanceConstraint:
    """``1 <= p <= ceil(trip / H)``."""

    var: str
    trip: Expr
    phase: str
    array: str

    def bound(self, H) -> Expr:
        return ceil_div(self.trip, as_expr(H))

    def __str__(self) -> str:
        return f"1 <= {self.var} <= ceil(({self.trip})/H)"


@dataclass(frozen=True)
class StorageConstraint:
    """``delta_P * p * H <= limit`` with ``limit = Δd`` or ``Δr/2``."""

    var: str
    delta_p: Expr
    limit: Expr
    kind: str  # "shifted" | "reverse"
    phase: str
    array: str

    def __str__(self) -> str:
        return f"{_coef(self.delta_p)}{self.var}*H <= {self.limit}"


@dataclass(frozen=True)
class AffinityConstraint:
    """``p_k,j1 == p_k,j2`` for a phase touching several arrays."""

    var_a: str
    var_b: str
    phase: str

    def __str__(self) -> str:
        return f"{self.var_a} = {self.var_b}"


def _coef(e: Expr) -> str:
    return "" if e.is_one else f"{e}*"


@dataclass
class ConstraintSystem:
    """The full Table-2 style system extracted from one LCG."""

    lcg: LCG
    variables: dict = field(default_factory=dict)  # var name -> (phase, array)
    locality: list = field(default_factory=list)
    load_balance: list = field(default_factory=list)
    storage: list = field(default_factory=list)
    affinity: list = field(default_factory=list)
    #: per-variable overlapping-storage distance Δs (halo width); feeds
    #: the frontier term of the C^kg cost: halo traffic scales with the
    #: number of block boundaries, i.e. decreases with the chunk size.
    overlaps: dict = field(default_factory=dict)

    def var_name(self, phase: str, array: str) -> str:
        return self.lcg.p_names[(phase, array)]

    def render(self) -> str:
        lines = ["Locality constraints:"]
        lines += [f"  {c}" for c in self.locality]
        lines.append("Load balance constraints:")
        lines += [f"  {c}" for c in self.load_balance]
        lines.append("Storage constraints:")
        lines += [f"  {c}" for c in self.storage]
        lines.append("Affinity constraints:")
        lines += [f"  {c}" for c in self.affinity]
        return "\n".join(lines)


def extract_constraints(lcg: LCG) -> ConstraintSystem:
    """Read the four constraint families off a labelled LCG."""
    system = ConstraintSystem(lcg=lcg)
    program = lcg.program
    ctx = program.context

    # Variables + load balance + storage, per (phase, array) node.
    per_phase_vars: dict[str, list[str]] = {}
    for array in program.arrays_in_use():
        for phase in program.phases:
            if not any(a.name == array.name for a in phase.arrays()):
                continue
            var = system.var_name(phase.name, array.name)
            system.variables[var] = (phase.name, array.name)
            per_phase_vars.setdefault(phase.name, []).append(var)

            par = phase.parallel_loop
            trip = par.trip_count if par is not None else as_expr(1)
            system.load_balance.append(
                LoadBalanceConstraint(
                    var=var, trip=trip, phase=phase.name, array=array.name
                )
            )

            intra = check_intra_phase(phase, array, ctx)
            if intra.symmetry is None or intra.iteration_descriptor is None:
                continue
            if intra.symmetry.overlap:
                widest = intra.symmetry.overlap[0][2]
                for (_, _, dist) in intra.symmetry.overlap[1:]:
                    if ctx.is_le(widest, dist):
                        widest = dist
                system.overlaps[var] = widest
            idesc = intra.iteration_descriptor
            primary = idesc.primary_row()
            if primary.delta_p.is_zero:
                continue
            # Storage constraints concern *macro* copies: a shifted or
            # mirrored region that must be placed symmetrically.  Halo
            # micro-shifts (distance within one parallel sweep) belong
            # to overlap handling, not storage allocation, so a shifted
            # pair only yields a constraint when the copy lies beyond
            # the primary row's full sweep.
            sweep = (primary.count_p - 1) * primary.delta_p + primary.extent
            phase_ctx = phase.loop_context(ctx)
            for (_, _, dist) in intra.symmetry.shifted:
                if not phase_ctx.is_le(sweep, dist):
                    continue
                system.storage.append(
                    StorageConstraint(
                        var=var,
                        delta_p=primary.delta_p,
                        limit=dist,
                        kind="shifted",
                        phase=phase.name,
                        array=array.name,
                    )
                )
            for (_, _, dist) in intra.symmetry.reverse:
                if not phase_ctx.is_le(sweep, dist):
                    continue
                system.storage.append(
                    StorageConstraint(
                        var=var,
                        delta_p=primary.delta_p,
                        limit=dist / 2,
                        kind="reverse",
                        phase=phase.name,
                        array=array.name,
                    )
                )

    # Locality constraints: one per L edge carrying an affine balanced
    # condition.
    for array in lcg.arrays():
        for edge in lcg.edges(array):
            if edge.label != "L" or edge.balanced is None:
                continue
            bal = edge.balanced
            if not bal.affine:
                continue
            system.locality.append(
                LocalityConstraint(
                    var_k=system.var_name(edge.phase_k, array),
                    var_g=system.var_name(edge.phase_g, array),
                    slope_k=bal.slope_k,
                    slope_g=bal.slope_g,
                    shift=bal.shift,
                    array=array,
                    edge=(edge.phase_k, edge.phase_g),
                )
            )

    # Affinity constraints: chain the variables of each phase.
    for phase_name, variables in per_phase_vars.items():
        for a, b in zip(variables, variables[1:]):
            system.affinity.append(
                AffinityConstraint(var_a=a, var_b=b, phase=phase_name)
            )

    return system


def _bal_key(value):
    # Balanced slopes/shift are ``None`` on a non-affine condition.
    return value._key() if isinstance(value, Expr) else value


def system_key(lcg: LCG) -> tuple:
    """Everything :func:`extract_constraints` reads off ``lcg``.

    The program's names and per-(phase, array) structure (context
    included), the variable naming (it follows array first-use order,
    which the per-phase fingerprints alone do not fix), and every live
    edge's label with the balanced condition of its ``L`` edges.  The
    key is built of structural value tuples, so it is stable across
    processes and survives the plan bundle's pickle.
    """
    edges = []
    for array in lcg.arrays():
        for edge in lcg.edges(array):
            bal = edge.balanced
            if edge.label != "L" or bal is None:
                cond = None
            else:
                cond = (
                    bal.affine,
                    _bal_key(bal.slope_k),
                    _bal_key(bal.slope_g),
                    _bal_key(bal.shift),
                )
            edges.append(
                (array, edge.phase_k, edge.phase_g, edge.label, cond)
            )
    return (
        "cs1",
        program_fingerprint(lcg.program),
        tuple(lcg.p_names.items()),
        tuple(edges),
    )


def constraint_system(
    lcg: LCG, extract=extract_constraints
) -> ConstraintSystem:
    """The constraint system of ``lcg``, derived at most once per key.

    A miss runs ``extract`` (the pure :func:`extract_constraints`;
    ``analyze`` passes the name it resolves through the package, like
    every stage it calls) and banks the families; a hit rebuilds the
    system around ``lcg`` from them.
    """
    key = system_key(lcg)
    hit = _SYSTEMS.get(key)
    if hit is None:
        system = extract(lcg)
        _SYSTEMS.put(
            key,
            (
                tuple(system.variables.items()),
                tuple(system.locality),
                tuple(system.load_balance),
                tuple(system.storage),
                tuple(system.affinity),
                tuple(system.overlaps.items()),
            ),
        )
        return system
    variables, locality, load_balance, storage, affinity, overlaps = hit
    return ConstraintSystem(
        lcg=lcg,
        variables=dict(variables),
        locality=list(locality),
        load_balance=list(load_balance),
        storage=list(storage),
        affinity=list(affinity),
        overlaps=dict(overlaps),
    )
