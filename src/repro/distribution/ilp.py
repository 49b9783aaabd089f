"""The integer programming model and its solvers (§4.3a).

The paper feeds Table-2 style systems to GAMS; we provide two
independent solvers and cross-check them in the test suite:

* :func:`solve_enumerative` — exact.  Affine union-find over the
  equality constraints (locality + affinity) collapses each connected
  component of variables onto a single integer parameter ``t``
  (``p_v = a_v * t + b_v``); the box/storage constraints clip ``t`` to a
  finite range; the (nonlinear, ceil-laden) objective of Eq. 7 is then
  evaluated exactly for every feasible ``t`` per component.  This
  mirrors the mathematical structure the paper exploits — chains share
  one degree of freedom.
* :func:`solve_milp` — the same discretised problem expressed as a 0/1
  selection program and handed to ``scipy.optimize.milp`` (the GAMS
  stand-in).  Used as a cross-check and as the extension point for
  richer linear models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, lcm
from typing import Mapping, Optional

import numpy as np

from .. import memo
from ..obs import obs_span
from ..symbolic import Expr
from .constraints import ConstraintSystem
from .costs import MachineCosts, T3D, communication_cost, imbalance_cost

__all__ = [
    "DistributionPlan",
    "TermMemo",
    "VariableComponent",
    "objective_breakdown",
    "reduce_system",
    "solve_enumerative",
    "solve_milp",
]


#: Memo for repeated objective/constraint evaluations: the relaxation
#: loop re-reduces the system and the per-component enumeration re-reads
#: the same trip counts for every candidate ``t``, always under the same
#: few parameter bindings.  Hash-consed ``Expr`` nodes make the key cheap.
_EVALUATED = memo.register("eval", 1 << 14)


def _ev(expr: Expr, env: Mapping[str, int]) -> Fraction:
    key = (expr, tuple(sorted(env.items())))
    hit = _EVALUATED.get(key)
    if hit is None:
        hit = _EVALUATED.put(
            key, expr.evalf({k: Fraction(v) for k, v in env.items()})
        )
    return hit


def _ev_int(expr: Expr, env: Mapping[str, int]) -> int:
    v = _ev(expr, env)
    if v.denominator != 1:
        raise ValueError(f"{expr} not integral under {env}")
    return int(v)


class TermMemo:
    """Cross-solve memo for Eq. 7 terms (sessions, what-if sweeps).

    Two levels, both keyed on plain evaluated integers/floats so hits
    return the *identical* floats a cold evaluation produces (the
    accumulation order in :func:`_cost_at` is unchanged, so a
    memoized solve is bit-identical to a fresh one):

    * ``component`` — a whole component's argmin: structural key
      (members, candidate ``t`` range, trips, overlaps, work, ``H``,
      machine) -> ``(best_t, best_cost)``.  A sweep that edits one
      phase re-enumerates only the touched component; every other
      component is answered here without evaluating a single candidate.
    * ``terms`` — one variable's ``(imbalance, frontier-comm)`` pair,
      shared between components and across grid points that agree on
      the per-variable inputs.
    """

    __slots__ = (
        "component",
        "terms",
        "component_hits",
        "component_misses",
        "term_hits",
        "term_misses",
    )

    def __init__(self):
        self.component: dict = {}
        self.terms: dict = {}
        self.component_hits = 0
        self.component_misses = 0
        self.term_hits = 0
        self.term_misses = 0

    def stats(self) -> dict:
        return {
            "component_entries": len(self.component),
            "term_entries": len(self.terms),
            "component_hits": self.component_hits,
            "component_misses": self.component_misses,
            "term_hits": self.term_hits,
            "term_misses": self.term_misses,
        }

    def clear(self) -> None:
        self.component.clear()
        self.terms.clear()
        self.component_hits = self.component_misses = 0
        self.term_hits = self.term_misses = 0


class _AffineUnionFind:
    """Union-find maintaining ``p_v = a_v * p_root + b_v`` (rationals)."""

    def __init__(self):
        self.parent: dict[str, str] = {}
        self.rel: dict[str, tuple] = {}  # v -> (a, b) wrt parent

    def add(self, v: str) -> None:
        if v not in self.parent:
            self.parent[v] = v
            self.rel[v] = (Fraction(1), Fraction(0))

    def find(self, v: str) -> tuple:
        """Return (root, a, b) with p_v = a * p_root + b (path-compressed)."""
        if self.parent[v] == v:
            return v, Fraction(1), Fraction(0)
        root, pa, pb = self.find(self.parent[v])
        a, b = self.rel[v]
        # p_v = a * p_parent + b;  p_parent = pa * p_root + pb
        na, nb = a * pa, a * pb + b
        self.parent[v] = root
        self.rel[v] = (na, nb)
        return root, na, nb

    def union(self, u: str, v: str, a: Fraction, b: Fraction) -> bool:
        """Impose ``p_u = a * p_v + b``.  Returns False on inconsistency."""
        ru, au, bu = self.find(u)
        rv, av, bv = self.find(v)
        if ru == rv:
            # au * t + bu must equal a * (av * t + bv) + b for all feasible t
            # -> consistent only when coefficients match (else the system
            #    pins t to a single value; callers handle via bounds).
            return (au == a * av) and (bu == a * bv + b)
        # p_ru: from p_u = au * p_ru + bu  ->  p_ru = (p_u - bu)/au
        # p_u = a*p_v + b = a*(av*p_rv + bv) + b
        # p_ru = (a*av*p_rv + a*bv + b - bu) / au
        self.parent[ru] = rv
        self.rel[ru] = ((a * av) / au, (a * bv + b - bu) / au)
        return True


def _integer_relation(a: Fraction, b: Fraction) -> tuple:
    """``p = a*t + b`` as ``(a*d, b*d, d)`` over the common denominator."""
    d = lcm(a.denominator, b.denominator)
    return (
        a.numerator * (d // a.denominator),
        b.numerator * (d // b.denominator),
        d,
    )


@dataclass
class VariableComponent:
    """One connected set of p-variables sharing the parameter ``t``.

    ``members`` maps each variable to its relation ``p = (A*t + B) / d``
    as the integers ``(A, B, d)`` with ``d >= 1``, so enumerating
    candidates takes no rational arithmetic.
    """

    root: str
    members: dict  # var -> (A, B, d): p = (A*t + B) / d
    t_min: int
    t_max: int
    pinned: Optional[int] = None  # inconsistent union resolved to fixed t
    _ts_cache: Optional[list] = field(default=None, repr=False, compare=False)

    def values_for(self, t: int) -> Optional[dict]:
        """All member p values at parameter ``t`` (None if non-integral)."""
        out = {}
        for var, (A, B, d) in self.members.items():
            p, rem = divmod(A * t + B, d)
            if rem or p < 1:
                return None
            out[var] = p
        return out

    def feasible_ts(self, limit: int = 100_000) -> list:
        if self._ts_cache is not None:
            return self._ts_cache
        if self.t_max - self.t_min > limit:
            raise ValueError(
                f"component {self.root}: t range too large "
                f"({self.t_min}..{self.t_max})"
            )
        self._ts_cache = [
            t
            for t in range(max(self.t_min, 1), self.t_max + 1)
            if self.values_for(t) is not None
        ]
        return self._ts_cache


@dataclass
class DistributionPlan:
    """Solver output: chunk sizes and objective breakdown.

    ``relaxed_edges`` lists locality (L) edges the solver had to demote
    to communication because no integer chunking satisfied the full
    system — e.g. when a balanced equation forces a chunk past a storage
    bound.  The executor treats them exactly like C edges.

    ``relaxed_storage`` lists symmetric-placement storage constraints
    the solver dropped because even the minimal chunk ``p = 1`` violated
    them (``H`` exceeds the shifted gap Δd or the mirror half-span
    Δr/2): the scheme the constraint protects is unavailable on this
    machine size, so the node falls back to plain chunking and any L
    edge incident on it is demoted alongside.
    """

    chunks: dict  # var name -> p value
    phase_chunks: dict  # phase name -> p value (affinity-merged)
    objective: float
    imbalance: float
    communication: float
    components: list = field(default_factory=list)
    relaxed_edges: list = field(default_factory=list)  # (phase_k, phase_g, array)
    relaxed_storage: list = field(default_factory=list)  # (phase, array, kind)

    def chunk(self, phase: str) -> int:
        return self.phase_chunks[phase]


def reduce_system(
    system: ConstraintSystem,
    env: Mapping[str, int],
    H: int,
    skip_locality: Optional[set] = None,
    chunk_bounds: Optional[Mapping[str, tuple]] = None,
    skip_storage: Optional[set] = None,
) -> list:
    """Collapse equalities into :class:`VariableComponent` boxes.

    ``skip_locality`` holds (phase_k, phase_g, array) triples whose
    locality constraint is ignored (relaxed to communication).
    ``skip_storage`` holds :class:`StorageConstraint` objects to drop —
    a symmetric-placement scheme the machine size makes unavailable.
    ``chunk_bounds`` maps phase names to ``(lo, hi)`` clamps on that
    phase's chunk variables (``lo == hi`` pins the chunk), shrinking
    the per-variable ``[1, ub]`` box before the component t-range is
    derived.
    """
    skip_locality = skip_locality or set()
    skip_storage = skip_storage or set()
    uf = _AffineUnionFind()
    for var in system.variables:
        uf.add(var)

    pinned_values: dict[str, int] = {}

    for c in system.affinity:
        uf.union(c.var_a, c.var_b, Fraction(1), Fraction(0))
    for c in system.locality:
        if (c.edge[0], c.edge[1], c.array) in skip_locality:
            continue
        a_k = _ev(c.slope_k, env)
        a_g = _ev(c.slope_g, env)
        shift = _ev(c.shift, env)
        # a_k p_k = a_g p_g + shift  ->  p_k = (a_g/a_k) p_g + shift/a_k
        ok = uf.union(c.var_k, c.var_g, a_g / a_k, shift / a_k)
        if not ok:
            # The component is over-constrained: the two relations pin t.
            root, a, b = uf.find(c.var_k)
            # a*t + b = (a_g/a_k) * (a'*t + b') + shift/a_k with (a',b') of var_g
            _, ag2, bg2 = uf.find(c.var_g)
            lhs_a, lhs_b = a, b
            rhs_a = (a_g / a_k) * ag2
            rhs_b = (a_g / a_k) * bg2 + shift / a_k
            if lhs_a == rhs_a:
                continue  # same relation, fine
            t_star = (rhs_b - lhs_b) / (lhs_a - rhs_a)
            if t_star.denominator == 1 and t_star >= 1:
                pinned_values[root] = int(t_star)
            else:
                pinned_values[root] = -1  # infeasible marker

    # Gather bounds per variable, then per component.
    ub: dict[str, int] = {}
    for c in system.load_balance:
        trip = _ev_int(c.trip, env)
        ub_v = -(-trip // H)
        ub[c.var] = min(ub.get(c.var, 1 << 60), ub_v)
    for c in system.storage:
        if c in skip_storage:
            continue
        dp = _ev(c.delta_p, env)
        limit = _ev(c.limit, env)
        # delta_p * p * H <= limit  ->  p <= limit / (delta_p * H)
        bound = limit / (dp * H)
        ub_v = int(bound) if bound >= 1 else 0
        ub[c.var] = min(ub.get(c.var, 1 << 60), ub_v)

    lb: dict[str, int] = {}
    if chunk_bounds:
        for var, (phase, _array) in system.variables.items():
            clamp = chunk_bounds.get(phase)
            if clamp is None:
                continue
            lo, hi = clamp
            lb[var] = max(1, int(lo))
            ub[var] = min(ub.get(var, 1 << 60), int(hi))

    groups: dict[str, dict] = {}
    for var in system.variables:
        root, a, b = uf.find(var)
        groups.setdefault(root, {})[var] = _integer_relation(a, b)

    components = []
    for root, members in groups.items():
        t_lo, t_hi = 1, 1 << 60
        for var, (A, B, d) in members.items():
            ub_v = ub.get(var, 1 << 60)
            lb_v = lb.get(var, 1)
            # lb_v <= (A*t + B)/d <= ub_v, with A possibly negative
            if A > 0:
                t_lo = max(t_lo, -((B - lb_v * d) // A))
                t_hi = min(t_hi, (ub_v * d - B) // A)
            elif A < 0:
                t_lo = max(t_lo, -((B - ub_v * d) // A))
                t_hi = min(t_hi, (lb_v * d - B) // A)
            else:
                if not (lb_v * d <= B <= ub_v * d):
                    t_hi = 0  # infeasible
        comp = VariableComponent(
            root=root, members=members, t_min=t_lo, t_max=min(t_hi, 1 << 31)
        )
        if root in pinned_values:
            pv = pinned_values[root]
            if pv < 0 or not (t_lo <= pv <= t_hi):
                comp.t_max = 0  # infeasible component
            else:
                comp.t_min = comp.t_max = pv
                comp.pinned = pv
        components.append(comp)
    return components


def _var_inputs(system, var, env, work, trips):
    """The evaluated per-variable Eq. 7 inputs: (trip, work, halo width).

    ``None`` when the variable has no load-balance constraint (it
    contributes nothing to the objective); ``width`` is ``None`` when
    no overlap constraint exists for the variable.
    """
    lb = trips.get(var)
    if lb is None:
        return None
    trip = _ev_int(lb.trip, env)
    wk = work.get(lb.phase, 1.0)
    overlap = system.overlaps.get(var) if hasattr(system, "overlaps") else None
    if overlap is not None:
        try:
            width = _ev_int(overlap, env)
        except (ValueError, KeyError):
            width = 0
    else:
        width = None
    return trip, wk, width


def _var_term(trip, wk, width, p, H, machine, memo=None):
    """One variable's (imbalance, frontier-comm) pair at chunk ``p``.

    The two floats are computed exactly as the inline Eq. 7 evaluation
    always has, so a :class:`TermMemo` hit returns the identical values
    a cold evaluation produces — memoized solves stay bit-identical.
    """
    if memo is not None:
        tkey = (trip, p, H, wk, width, machine.alpha, machine.beta)
        pair = memo.terms.get(tkey)
        if pair is not None:
            memo.term_hits += 1
            return pair
    imb = imbalance_cost(trip, p, H, wk)
    if width is not None:
        blocks = -(-trip // p)
        comm = machine.beta * width * blocks + machine.alpha * min(
            blocks, 2 * H
        )
    else:
        comm = None
    pair = (imb, comm)
    if memo is not None:
        memo.terms[tkey] = pair
        memo.term_misses += 1
    return pair


def _component_rows(system, comp, env, work, trips) -> list:
    """``(var, A, B, d, inputs)`` per member, inputs evaluated once.

    ``inputs`` is :func:`_var_inputs` of the member; every candidate
    ``t`` of the component reuses it.
    """
    return [
        (var, A, B, d, _var_inputs(system, var, env, work, trips))
        for var, (A, B, d) in comp.members.items()
    ]


def _cost_at(rows, t, H, machine, memo=None) -> float:
    """Eq. 7 objective of one component at a feasible ``t``.

    D^k — CYCLIC(p) idle-cycle imbalance — plus the p-dependent slice of
    C^kg: frontier/halo traffic, which pays ``beta * Δs`` per block
    boundary (``ceil(trip/p)`` boundaries), so larger chunks trade load
    balance against halo volume exactly as the paper's model does.
    Terms are summed in member order, so the float is the same however
    often, and from whichever memo, it is produced.
    """
    total = 0.0
    for _var, A, B, d, inputs in rows:
        if inputs is None:
            continue
        trip, wk, width = inputs
        imb, comm = _var_term(
            trip, wk, width, (A * t + B) // d, H, machine, memo=memo
        )
        total += imb
        if comm is not None:
            total += comm
    return total


def _component_key(rows, ts, H, machine):
    """A structural memo key capturing every input of a component argmin.

    Two solves agreeing on this key (members with their affine
    relations and evaluated trips/halo widths/work weights, the
    candidate ``t`` list, ``H`` and the machine coefficients) evaluate
    the identical cost function over the identical candidates, so
    caching ``(best_t, best_cost)`` under it is exact.
    """
    return (tuple(sorted(rows)), tuple(ts), H, machine.alpha, machine.beta)


def solve_enumerative(
    system: ConstraintSystem,
    env: Mapping[str, int],
    H: int,
    machine: MachineCosts = T3D,
    work: Optional[Mapping[str, float]] = None,
    region_sizes: Optional[Mapping[tuple, int]] = None,
    chunk_bounds: Optional[Mapping[str, tuple]] = None,
    memo: Optional[TermMemo] = None,
) -> DistributionPlan:
    """Exact optimisation of Eq. 7 by per-component enumeration.

    ``work`` optionally weights each phase's per-iteration work;
    ``region_sizes`` maps (phase_k, phase_g, array) C edges to moved
    element counts for the communication term (constant per labelling,
    reported in the objective but not steering the argmin).
    ``chunk_bounds`` clamps phases' chunks (see :func:`reduce_system`);
    ``memo`` is a :class:`TermMemo` carried across solves by sessions
    and sweeps — hits skip a component's candidate enumeration entirely
    and are bit-identical to evaluating it.

    A locality constraint whose ``p_k`` slope is zero under ``env``
    cannot tie ``p_k`` to ``p_g`` (see :func:`_unsolvable_locality`);
    its L edge is demoted before the first reduction.  When the full
    system is infeasible, locality constraints are relaxed
    one at a time (greedy, largest-slope-ratio first — the tightest
    coupling is the likeliest culprit) and the affected L edge is
    demoted to communication; relaxations are reported in
    ``DistributionPlan.relaxed_edges``.  When no locality constraint
    remains to drop, a *storage* constraint binding the infeasible
    component is relaxed instead (tightest bound first): a mirror or
    shifted placement whose box excludes even ``p = 1`` simply does not
    exist at this ``H``, and insisting on it is not a property of the
    program.  Dropped schemes are reported in
    ``DistributionPlan.relaxed_storage`` and every L edge incident on
    the affected node is demoted to keep the no-traffic promise sound.
    """
    obs = getattr(system.lcg.program.context, "obs", None)
    work = dict(work or {})
    relaxed = _unsolvable_locality(system, env)
    if obs is not None and relaxed:
        obs.count("ilp.zero_slope_relaxations", len(relaxed))
    relaxed_storage: set = set()
    while True:
        components = reduce_system(
            system, env, H, skip_locality=relaxed, chunk_bounds=chunk_bounds,
            skip_storage=relaxed_storage,
        )
        infeasible = [c for c in components if not c.feasible_ts()]
        if not infeasible:
            break
        culprit = _pick_relaxation(system, env, infeasible, relaxed)
        if culprit is not None:
            relaxed.add(culprit)
            if obs is not None:
                obs.count("ilp.relaxations")
            continue
        storage_culprit = _pick_storage_relaxation(
            system, env, H, infeasible, relaxed_storage
        )
        if storage_culprit is None:
            raise ValueError(
                f"infeasible component rooted at {infeasible[0].root}: no "
                f"locality relaxation restores integer feasibility"
            )
        relaxed_storage.add(storage_culprit)
        node = (storage_culprit.phase, storage_culprit.array)
        for c in system.locality:
            key = (c.edge[0], c.edge[1], c.array)
            if key in relaxed:
                continue
            if (
                system.variables[c.var_k] == node
                or system.variables[c.var_g] == node
            ):
                relaxed.add(key)
        if obs is not None:
            obs.count("ilp.storage_relaxations")

    chunks: dict[str, int] = {}
    imbalance_total = 0.0
    trips = {c.var: c for c in system.load_balance}
    for comp in components:
        if obs is not None:
            obs.count("ilp.components")
        ts = comp.feasible_ts()
        rows = _component_rows(system, comp, env, work, trips)
        mkey = None
        if memo is not None:
            mkey = _component_key(rows, ts, H, machine)
            hit = memo.component.get(mkey)
            if hit is not None:
                best_t, best_cost = hit
                memo.component_hits += 1
                if obs is not None:
                    obs.count("ilp.component_memo_hits")
                chunks.update(comp.values_for(best_t))
                imbalance_total += best_cost
                continue
            memo.component_misses += 1
        with obs_span(obs, f"ilp:component:{comp.root}") as sp:
            if obs is not None:
                obs.count("ilp.candidates", len(ts))
            best_t, best_cost = None, None
            for t in ts:
                cost = _cost_at(rows, t, H, machine, memo=memo)
                if best_cost is None or cost < best_cost:
                    best_t, best_cost = t, cost
            values = comp.values_for(best_t)
            sp.set(candidates=len(ts), best_t=best_t)
        if memo is not None:
            memo.component[mkey] = (best_t, best_cost)
        chunks.update(values)
        imbalance_total += best_cost

    comm_total = 0.0
    for array in system.lcg.arrays():
        for edge in system.lcg.communication_edges(array):
            size = 0
            if region_sizes:
                size = region_sizes.get((edge.phase_k, edge.phase_g, array), 0)
            overlap = None
            if edge.intra_k.has_overlap and edge.intra_k.symmetry is not None:
                first = edge.intra_k.symmetry.overlap[0][2]
                try:
                    overlap = _ev_int(first, env)
                except (ValueError, KeyError):
                    overlap = None
            comm_total += communication_cost(size, H, overlap, machine)

    phase_chunks: dict[str, int] = {}
    for var, p in chunks.items():
        phase, _ = system.variables[var]
        prev = phase_chunks.get(phase)
        if prev is not None and prev != p:
            raise AssertionError(
                f"affinity violated for phase {phase}: {prev} vs {p}"
            )
        phase_chunks[phase] = p

    return DistributionPlan(
        chunks=chunks,
        phase_chunks=phase_chunks,
        objective=imbalance_total + comm_total,
        imbalance=imbalance_total,
        communication=comm_total,
        components=components,
        relaxed_edges=sorted(relaxed),
        relaxed_storage=sorted(
            (c.phase, c.array, c.kind) for c in relaxed_storage
        ),
    )


def objective_breakdown(
    system: ConstraintSystem,
    plan: DistributionPlan,
    env: Mapping[str, int],
    H: int,
    machine: MachineCosts = T3D,
    work: Optional[Mapping[str, float]] = None,
) -> dict:
    """Split a solved plan's objective into pure-imbalance vs communication.

    ``DistributionPlan.imbalance`` folds the p-dependent frontier/halo
    traffic into the D^k sum (that mix *is* the quantity the argmin
    minimises); sweeps presenting a Pareto front need the two axes the
    paper trades off — wasted cycles vs moved data — so this re-walks
    the chosen chunks and separates the terms.  Reporting only: the
    plan itself is untouched.
    """
    work = dict(work or {})
    trips = {c.var: c for c in system.load_balance}
    imbalance = 0.0
    frontier = 0.0
    for var, p in plan.chunks.items():
        inputs = _var_inputs(system, var, env, work, trips)
        if inputs is None:
            continue
        trip, wk, width = inputs
        imb, comm = _var_term(trip, wk, width, p, H, machine)
        imbalance += imb
        if comm is not None:
            frontier += comm
    return {
        "imbalance": imbalance,
        "communication": frontier + plan.communication,
    }


def _unsolvable_locality(system: ConstraintSystem, env) -> set:
    """Keys of locality constraints with a zero ``p_k`` slope under ``env``.

    ``0*p_k = a_g*p_g + shift`` does not express ``p_k`` through
    ``p_g``.  Two zero slopes (two chunk-invariant balanced rows) hold
    at every chunk pair, yet independent chunks do not keep the edge's
    data local, so the edge is demoted to communication like any other
    relaxed L edge rather than dropped from the system.
    """
    return {
        (c.edge[0], c.edge[1], c.array)
        for c in system.locality
        if _ev(c.slope_k, env) == 0
    }


def _pick_relaxation(
    system: ConstraintSystem,
    env: Mapping[str, int],
    infeasible: list,
    already: set,
) -> Optional[tuple]:
    """Choose a locality constraint to demote to communication.

    Only constraints whose variables live in an infeasible component are
    candidates; among them the one with the largest slope ratio (the
    steepest chunk amplification, e.g. ``p81 = 2*Q*p71``) is dropped
    first — it is the constraint that blows chunks past their boxes.
    """
    bad_vars: set = set()
    for comp in infeasible:
        bad_vars.update(comp.members)
    best, best_ratio = None, None
    for c in system.locality:
        key = (c.edge[0], c.edge[1], c.array)
        if key in already:
            continue
        if c.var_k not in bad_vars and c.var_g not in bad_vars:
            continue
        a_k = _ev(c.slope_k, env)
        a_g = _ev(c.slope_g, env)
        # A zero slope pins its chunk outright: the steepest coupling.
        ratio = max(a_k / a_g, a_g / a_k) if a_k and a_g else inf
        if best_ratio is None or ratio > best_ratio:
            best, best_ratio = key, ratio
    return best


def _pick_storage_relaxation(
    system: ConstraintSystem,
    env: Mapping[str, int],
    H: int,
    infeasible: list,
    already: set,
) -> Optional[object]:
    """Choose a storage constraint to drop from an infeasible component.

    Candidates are constraints whose variable sits in an infeasible
    component; the one with the tightest chunk bound — the smallest
    ``limit / (delta_P * H)``, i.e. the box that crushed the component —
    goes first.  Ties break on ``(var, kind)`` so the choice is
    deterministic across runs and processes.
    """
    bad_vars: set = set()
    for comp in infeasible:
        bad_vars.update(comp.members)
    best, best_key = None, None
    for c in system.storage:
        if c in already or c.var not in bad_vars:
            continue
        bound = _ev(c.limit, env) / (_ev(c.delta_p, env) * H)
        key = (bound, c.var, c.kind)
        if best_key is None or key < best_key:
            best, best_key = c, key
    return best


def solve_milp(
    system: ConstraintSystem,
    env: Mapping[str, int],
    H: int,
    machine: MachineCosts = T3D,
    work: Optional[Mapping[str, float]] = None,
) -> DistributionPlan:
    """The same optimisation as a 0/1 selection MILP via scipy.

    One binary variable per (component, feasible t); per-component
    exactly-one constraints; the linear objective carries the exact
    precomputed cost of each choice.  Serves as the GAMS stand-in and as
    an independent cross-check of :func:`solve_enumerative`.
    """
    from scipy.optimize import LinearConstraint, milp
    from scipy.optimize import Bounds

    work = dict(work or {})
    components = reduce_system(
        system, env, H, skip_locality=_unsolvable_locality(system, env)
    )
    choices: list[tuple] = []  # (component index, t, cost)
    trips = {c.var: c for c in system.load_balance}
    for ci, comp in enumerate(components):
        ts = comp.feasible_ts()
        if not ts:
            raise ValueError(f"infeasible component rooted at {comp.root}")
        rows = _component_rows(system, comp, env, work, trips)
        for t in ts:
            choices.append((ci, t, _cost_at(rows, t, H, machine)))

    n = len(choices)
    # Small t-proportional epsilon so ties break toward the smallest
    # chunking, matching solve_enumerative's deterministic choice (the
    # solver runs with a zero MIP gap so the epsilon is respected).
    c_vec = np.array(
        [cost + 1e-6 * t for (_, t, cost) in choices], dtype=float
    )
    # exactly-one per component
    A = np.zeros((len(components), n))
    for j, (ci, _, _) in enumerate(choices):
        A[ci, j] = 1.0
    constraint = LinearConstraint(A, lb=1.0, ub=1.0)
    res = milp(
        c=c_vec,
        constraints=[constraint],
        integrality=np.ones(n),
        bounds=Bounds(0.0, 1.0),
        options={"mip_rel_gap": 0.0},
    )
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    chosen = [choices[j] for j in range(n) if res.x[j] > 0.5]

    chunks: dict[str, int] = {}
    imbalance_total = 0.0
    for ci, t, cost in chosen:
        chunks.update(components[ci].values_for(t))
        imbalance_total += cost

    phase_chunks: dict[str, int] = {}
    for var, p in chunks.items():
        phase, _ = system.variables[var]
        phase_chunks[phase] = p

    return DistributionPlan(
        chunks=chunks,
        phase_chunks=phase_chunks,
        objective=imbalance_total,
        imbalance=imbalance_total,
        communication=0.0,
        components=components,
    )
