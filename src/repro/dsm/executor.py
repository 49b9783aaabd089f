"""Deterministic DSM machine executor.

Plays the Cray T3D's role in the reproduction: executes a program's
phases under an iteration schedule and per-array data layouts, counting
— from the *actual address streams* of the loop nests — how many
accesses each processor serves locally vs. remotely, and generating the
aggregated put traffic between phases.

Two execution modes back the §4.3 experiment:

* :func:`execute_static` — one fixed layout per array for the whole run
  (the naive baseline: BLOCK or any layout you pass); every non-local
  access pays the remote cost.
* :func:`execute_with_plan` — the LCG-driven mode: each chain gets its
  balanced BLOCK-CYCLIC layout, privatizable arrays are replicated,
  C edges trigger explicit redistributions (global pattern) or halo
  updates (frontier), after which phase accesses are intended to be
  local — any residual remote access is *measured*, not assumed, so the
  simulator doubles as a soundness check of the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from ..ir import Phase, Program, enumerate_phase
from ..ir.core import AccessKind
from ..distribution.costs import MachineCosts, T3D
from ..distribution.schedule import (
    BlockCyclicLayout,
    BlockLayout,
    CyclicSchedule,
    ReplicatedLayout,
)
from ..obs import obs_span
from .comm import (
    CommunicationPlan,
    frontier_update,
    null_redistribution,
    redistribution,
)

#: Bytes per array element, for the traffic gauge (the T3D moves
#: 64-bit words).
ELEMENT_BYTES = 8

__all__ = [
    "PhaseStats",
    "ExecutionReport",
    "execute_static",
    "execute_with_plan",
    "chain_layouts",
]


@dataclass
class PhaseStats:
    """Per-phase access accounting."""

    phase: str
    local: np.ndarray  # per-PE local access counts
    remote: np.ndarray  # per-PE remote access counts
    iterations: np.ndarray  # per-PE iteration counts

    @property
    def total_accesses(self) -> int:
        return int(self.local.sum() + self.remote.sum())

    @property
    def remote_fraction(self) -> float:
        total = self.total_accesses
        return float(self.remote.sum()) / total if total else 0.0

    def compute_time(self, machine: MachineCosts = T3D) -> float:
        """Makespan of the phase: slowest processor's access bill.

        Each access carries ``compute_scale`` units of useful work on
        top of its local/remote memory cost.
        """
        work = (self.local + self.remote) * machine.compute_scale
        per_pe = (
            work + self.local * machine.local + self.remote * machine.remote
        )
        return float(per_pe.max()) if per_pe.size else 0.0


@dataclass
class ExecutionReport:
    """Whole-program execution under one strategy."""

    program: str
    H: int
    phases: list = field(default_factory=list)  # list[PhaseStats]
    comms: list = field(default_factory=list)  # list[CommunicationPlan]
    machine: MachineCosts = T3D

    @property
    def total_local(self) -> int:
        return int(sum(p.local.sum() for p in self.phases))

    @property
    def total_remote(self) -> int:
        return int(sum(p.remote.sum() for p in self.phases))

    @property
    def comm_volume(self) -> int:
        return sum(c.volume for c in self.comms)

    @property
    def comm_messages(self) -> int:
        return sum(c.messages for c in self.comms)

    def parallel_time(self) -> float:
        compute = sum(p.compute_time(self.machine) for p in self.phases)
        comm = sum(c.makespan(self.machine, self.H) for c in self.comms)
        return compute + comm

    def serial_time(self) -> float:
        """All accesses on one processor, all local, no communication."""
        total = sum(p.total_accesses for p in self.phases)
        return total * (self.machine.local + self.machine.compute_scale)

    def efficiency(self) -> float:
        """Parallel efficiency  E = T_1 / (H * T_H).

        A report with zero parallel time but nonzero serial work has no
        meaningful efficiency (the ratio diverges) — that case yields
        NaN rather than a silently perfect 1.0.  An empty program (no
        work at all) is vacuously efficient.
        """
        t_h = self.parallel_time()
        if t_h == 0.0:
            return 1.0 if self.serial_time() == 0.0 else float("nan")
        return self.serial_time() / (self.H * t_h)

    def speedup(self) -> float:
        t_h = self.parallel_time()
        return self.serial_time() / t_h if t_h else float(self.H)

    def summary(self) -> str:
        return (
            f"{self.program} on H={self.H}: "
            f"local={self.total_local} remote={self.total_remote} "
            f"comm={self.comm_volume}el/{self.comm_messages}msg "
            f"speedup={self.speedup():.2f} eff={self.efficiency():.1%}"
        )


#: The accounting tiers, fastest first: "symbolic" (closed-form
#: descriptor accounting, falling back to "wide"), "wide"
#: (descriptor-first ragged enumeration, the default), and "off"
#: (always interpret).  Every tier falls back to interpretation, so the
#: counts are identical whichever one answers.
_TIERS = ("symbolic", "wide", "off")


def _resolve_tier(fast_path: Optional[str]) -> str:
    """``fast_path`` validated; ``None`` means the default ``"wide"``."""
    if fast_path is None:
        return "wide"
    if fast_path not in _TIERS:
        raise ValueError(f"unknown fast-path mode {fast_path!r}")
    return fast_path


def _try_fast_stats(
    phase: Phase,
    env: Mapping[str, int],
    H: int,
    schedule: CyclicSchedule,
    layouts: Mapping[str, object],
    mode: str = "wide",
    obs=None,
):
    """Vectorised phase accounting, or None to fall back to interpretation.

    Dispatches on the tier ``mode``: the symbolic path counts in closed
    form and falls back to the wide path, which enumerates the whole
    nest descriptor-first (handles non-rectangular bounds and ``Pow2``
    subscripts).
    """
    if mode == "symbolic":
        stats = _symbolic_fast_stats(phase, env, H, schedule, layouts,
                                     obs=obs)
        if stats is not None:
            if obs is not None:
                obs.count("dsm.fast_path.symbolic")
            return stats
    if mode == "off":
        return None
    stats = _wide_fast_stats(phase, env, H, schedule, layouts)
    if stats is not None and obs is not None:
        obs.count("dsm.fast_path.wide")
    return stats


def _symbolic_fast_stats(
    phase: Phase,
    env: Mapping[str, int],
    H: int,
    schedule: CyclicSchedule,
    layouts: Mapping[str, object],
    obs=None,
):
    """Closed-form accounting from the access descriptors (the
    "symbolic" tier): delegates to :mod:`repro.dsm.closed_form`, which
    counts owner/accessor lattice intersections per (base, stride,
    span) segment instead of enumerating addresses.  Returns None when
    the phase is outside even the per-segment fallback's reach."""
    from .closed_form import symbolic_phase_stats

    counts = symbolic_phase_stats(phase, env, H, schedule, layouts, obs=obs)
    if counts is None:
        return None
    local, remote, iterations = counts
    return PhaseStats(
        phase=phase.name, local=local, remote=remote, iterations=iterations
    )


def _wide_fast_stats(
    phase: Phase,
    env: Mapping[str, int],
    H: int,
    schedule: CyclicSchedule,
    layouts: Mapping[str, object],
):
    """Descriptor-first accounting via ragged vectorized enumeration.

    Requires a single parallel-rooted nest (so every access attributes
    to a parallel iteration); everything else — multi-level non-
    rectangular bounds, ``2**L`` strides, reversed segments — is handled
    by :func:`repro.ir.interp.ragged_nest_addresses`, chunked over
    blocks of parallel iterations with adaptive halving so the live cell
    count stays bounded.  ``layout.owner`` is applied to whole address
    blocks at once.
    """
    from ..ir.core import LoopNode, RefNode
    from ..ir.interp import NestEnumMiss, NestTooBig, ragged_nest_addresses

    if len(phase.roots) != 1:
        return None
    par = phase.roots[0]
    if not par.parallel:
        return None
    try:
        par_lo = _ev_int(par.lower, env)
        par_hi = _ev_int(par.upper, env)
    except (KeyError, ValueError, ZeroDivisionError):
        return None
    local = np.zeros(H, dtype=np.int64)
    remote = np.zeros(H, dtype=np.int64)
    trip = par_hi - par_lo + 1
    if trip <= 0:
        return PhaseStats(
            phase=phase.name,
            local=local,
            remote=remote,
            iterations=np.zeros(H, dtype=np.int64),
        )
    par_values = np.arange(par_lo, par_hi + 1, dtype=np.int64)
    pe_of_iter = np.asarray(schedule.owner(par_values), dtype=np.int64)
    iterations = np.bincount(pe_of_iter, minlength=H).astype(np.int64)

    refs: list = []

    def collect(node, chain):
        for child in node.children:
            if isinstance(child, RefNode):
                refs.append((child.ref, chain))
            elif isinstance(child, LoopNode):
                collect(child, chain + (child,))
            else:  # pragma: no cover - defensive
                raise NestEnumMiss()

    try:
        collect(par, (par,))
        for ref, chain in refs:
            layout = layouts.get(ref.array.name)
            counting_only = layout is None or isinstance(
                layout, ReplicatedLayout
            )
            start = 0
            block = trip
            while start < trip:
                size = min(block, trip - start)
                try:
                    addresses, ordinals = ragged_nest_addresses(
                        chain,
                        None if counting_only else ref.subscript,
                        env,
                        level0_values=par_values[start:start + size],
                    )
                except NestTooBig:
                    if size <= 1:
                        raise NestEnumMiss() from None
                    block = max(size // 2, 1)
                    continue
                pe = pe_of_iter[start + ordinals]
                if counting_only:
                    local += np.bincount(pe, minlength=H)
                else:
                    owners = np.asarray(
                        layout.owner(addresses), dtype=np.int64
                    )
                    is_local = owners == pe
                    local += np.bincount(pe[is_local], minlength=H)
                    remote += np.bincount(pe[~is_local], minlength=H)
                start += size
    except (NestEnumMiss, ValueError, ZeroDivisionError, KeyError):
        return None
    return PhaseStats(
        phase=phase.name, local=local, remote=remote, iterations=iterations
    )


def _phase_stats(
    phase: Phase,
    env: Mapping[str, int],
    H: int,
    schedule: CyclicSchedule,
    layouts: Mapping[str, object],
    fast_path: str = "wide",
    obs=None,
) -> PhaseStats:
    fast = _try_fast_stats(
        phase, env, H, schedule, layouts, mode=fast_path, obs=obs
    )
    if fast is not None:
        return fast
    if obs is not None:
        obs.count("dsm.fast_path.interp")
    local = np.zeros(H, dtype=np.int64)
    remote = np.zeros(H, dtype=np.int64)
    iterations = np.zeros(H, dtype=np.int64)
    for ia in enumerate_phase(phase, env):
        pe = 0 if ia.iteration is None else int(schedule.owner(ia.iteration))
        if ia.iteration is not None:
            iterations[pe] += 1
        for tr in ia.traces:
            layout = layouts.get(tr.array)
            n = tr.addresses.size
            if n == 0:
                continue
            if layout is None or isinstance(layout, ReplicatedLayout):
                local[pe] += n
                continue
            owners = layout.owner(tr.addresses)
            n_local = int(np.count_nonzero(owners == pe))
            local[pe] += n_local
            remote[pe] += n - n_local
    return PhaseStats(phase=phase.name, local=local, remote=remote,
                      iterations=iterations)


def execute_static(
    program: Program,
    env: Mapping[str, int],
    H: int,
    layouts: Optional[Mapping[str, object]] = None,
    chunk: int = 1,
    machine: MachineCosts = T3D,
    fast_path: Optional[str] = None,
) -> ExecutionReport:
    """Run with one fixed layout per array and CYCLIC(chunk) scheduling.

    Default layouts are BLOCK over each array's full extent — the naive
    baseline a compiler without locality analysis would pick.
    ``fast_path`` picks the accounting tier: ``"symbolic"``,
    ``"wide"`` (the default) or ``"off"``.
    """
    fast_path = _resolve_tier(fast_path)
    if layouts is None:
        layouts = {
            a.name: BlockLayout(size=_ev_int(a.size, env), H=H)
            for a in program.arrays_in_use()
        }
    obs = getattr(program.context, "obs", None)
    report = ExecutionReport(program=program.name, H=H, machine=machine)
    for phase in program.phases:
        par = phase.parallel_loop
        trip = _ev_int(par.trip_count, env) if par is not None else 1
        schedule = CyclicSchedule(trip=trip, p=chunk, H=H)
        report.phases.append(
            _phase_stats(
                phase, env, H, schedule, layouts, fast_path=fast_path, obs=obs
            )
        )
    return report


def chain_layouts(
    lcg,
    plan,
    env: Mapping[str, int],
    H: int,
) -> dict:
    """Per-(phase, array) layouts from the LCG chains and the ILP plan.

    Each chain's layout derives from its first node's primary ID row:
    BLOCK-CYCLIC with chunk ``p * delta_P`` anchored at the region base.
    Privatizable nodes get a replicated layout.
    """
    from ..locality.intra import check_intra_phase

    program = lcg.program
    ctx = program.context
    layouts: dict = {}
    relaxed = {
        (k, g)
        for (k, g, arr) in getattr(plan, "relaxed_edges", [])
    }
    relaxed_by_array: dict = {}
    for (k, g, arr) in getattr(plan, "relaxed_edges", []):
        relaxed_by_array.setdefault(arr, set()).add((k, g))
    fold_edges: list = []
    for array in program.arrays_in_use():
        broken = relaxed_by_array.get(array.name, set())
        for chain in lcg.chains(array.name, broken=broken):
            head = program.phase(chain[0])
            intra = check_intra_phase(head, array, ctx)
            chain_layout = None
            if (
                intra.attribute != "P"
                and intra.iteration_descriptor is not None
            ):
                p = plan.phase_chunks.get(head.name, 1)
                chain_layout = _layout_from_id(
                    intra.iteration_descriptor, p, env, H
                )
            prev_name = None
            for name in chain:
                node = program.phase(name)
                node_intra = check_intra_phase(node, array, ctx)
                if node_intra.attribute == "P":
                    layouts[(name, array.name)] = ReplicatedLayout(H=H)
                elif chain_layout is not None:
                    member_layout = chain_layout
                    if node_intra.iteration_descriptor is not None:
                        own = _layout_from_id(
                            node_intra.iteration_descriptor,
                            plan.phase_chunks.get(name, 1),
                            env,
                            H,
                        )
                        # Reverse/shifted distribution switch: a folded
                        # (segmented) member adopts its own layout; the
                        # balanced condition makes it agree with the
                        # chain layout on the primary segment, so the
                        # fold redistribution only moves the mirrors.
                        from ..distribution.schedule import SegmentedLayout

                        if isinstance(own, SegmentedLayout) and not isinstance(
                            chain_layout, SegmentedLayout
                        ):
                            member_layout = own
                            if prev_name is not None:
                                fold_edges.append(
                                    (prev_name, name, array.name)
                                )
                    layouts[(name, array.name)] = member_layout
                else:
                    layouts[(name, array.name)] = BlockLayout(
                        size=_ev_int(array.size, env), H=H
                    )
                prev_name = name
    layouts["__fold_edges__"] = fold_edges
    return layouts


def _layout_from_id(idesc, p: int, env: Mapping[str, int], H: int):
    """Layout realising locality for a (possibly multi-row) ID.

    Single ascending row: plain BLOCK-CYCLIC(p * delta_P) at the base.
    Multiple rows with disjoint segments: a :class:`SegmentedLayout`
    whose descending segments use the *reverse distribution* (the
    processor of the touching iteration owns the element).  Overlapping
    segments fall back to the primary row's layout.

    Returns ``None`` when a row's shape is iteration-dependent (a
    triangular bound leaves the parallel index free in the extent): no
    single closed-form layout realises locality for such a region, and
    the caller falls back to BLOCK.
    """
    from ..distribution.schedule import SegmentedLayout

    try:
        return _layout_from_id_rows(idesc, p, env, H, SegmentedLayout)
    except KeyError:
        return None


def _layout_from_id_rows(idesc, p, env, H, SegmentedLayout):
    segments = []
    for row in idesc.rows:
        delta = _ev_int(row.delta_p, env) if not row.delta_p.is_zero else 1
        delta = max(delta, 1)
        count = _ev_int(row.count_p, env)
        extent = _ev_int(row.extent, env)
        base0 = _ev_int(row.base0, env)
        chunk = max(p * delta, 1)
        lo = base0
        hi = base0 + (count - 1) * delta + extent
        if row.sign_p >= 0:
            lay = BlockCyclicLayout(origin=lo, chunk=chunk, H=H)
        else:
            lay = BlockCyclicLayout(
                origin=lo, chunk=chunk, H=H, span=hi - lo + 1, reversed_=True
            )
        segments.append((lo, hi, lay))
    if len(segments) == 1:
        return segments[0][2]
    segments.sort(key=lambda s: s[0])
    for (l1, h1, lay1), (l2, h2, lay2) in zip(segments, segments[1:]):
        if l2 <= h1:
            # Overlapping rows: piecewise locality only holds if both
            # sub-layouts agree on every shared address (e.g. the single
            # boundary element of TFFT2 F8's conjugate-pair segments).
            shared = np.arange(l2, min(h1, h2) + 1)
            if shared.size > 4096 or not np.array_equal(
                np.atleast_1d(lay1.owner(shared)),
                np.atleast_1d(lay2.owner(shared)),
            ):
                primary = idesc.primary_row()
                delta = (
                    _ev_int(primary.delta_p, env)
                    if not primary.delta_p.is_zero
                    else 1
                )
                return BlockCyclicLayout(
                    origin=_ev_int(primary.base0, env),
                    chunk=max(p * max(delta, 1), 1),
                    H=H,
                )
    return SegmentedLayout(segments=tuple(segments), H=H)


def execute_with_plan(
    program: Program,
    lcg,
    plan,
    env: Mapping[str, int],
    H: int,
    machine: MachineCosts = T3D,
    fast_path: Optional[str] = None,
) -> ExecutionReport:
    """LCG-driven execution: chain layouts + explicit C-edge communication.

    ``fast_path`` picks the accounting tier: ``"symbolic"``,
    ``"wide"`` (the default) or ``"off"``.
    """
    from ..ir.interp import phase_access_set

    fast_path = _resolve_tier(fast_path)
    obs = getattr(program.context, "obs", None)
    layouts = chain_layouts(lcg, plan, env, H)
    fold_edges = layouts.pop("__fold_edges__", [])
    report = ExecutionReport(program=program.name, H=H, machine=machine)

    # Drain regions are needed only on redistribution edges and repeat
    # across edges sharing a drain phase (redblack's frontier-heavy plan
    # used to re-enumerate one per edge) — compute them lazily, once.
    region_cache: dict = {}

    def drain_region(drain, array):
        key = (drain.name, array.name)
        if key not in region_cache:
            region = None
            if fast_path == "symbolic":
                from .closed_form import symbolic_region

                region = symbolic_region(drain, env, array)
                if region is None and obs is not None:
                    obs.count("dsm.symbolic.fallback")
                    obs.count("dsm.symbolic.fallback.region")
            if region is None:
                region = phase_access_set(drain, env, array)
            region_cache[key] = region
        return region_cache[key]

    with obs_span(obs, "dsm"):
        for phase in program.phases:
            par = phase.parallel_loop
            trip = _ev_int(par.trip_count, env) if par is not None else 1
            p = plan.phase_chunks.get(phase.name, 1)
            schedule = CyclicSchedule(trip=trip, p=p, H=H)
            phase_layouts = {
                a.name: layouts[(phase.name, a.name)] for a in phase.arrays()
            }
            with obs_span(obs, f"phase:{phase.name}") as sp:
                stats = _phase_stats(
                    phase,
                    env,
                    H,
                    schedule,
                    phase_layouts,
                    fast_path=fast_path,
                    obs=obs,
                )
                n_local = int(stats.local.sum())
                n_remote = int(stats.remote.sum())
                sp.set(local=n_local, remote=n_remote)
            if obs is not None:
                obs.count("dsm.local", n_local)
                obs.count("dsm.remote", n_remote)
            report.phases.append(stats)

        # Communication on C edges (plus any L edges the ILP relaxed):
        # global redistribution between the two phases' layouts, or a
        # frontier halo update when the source overlap is what forces the
        # edge.
        relaxed = {
            (k, g, arr) for (k, g, arr) in getattr(plan, "relaxed_edges", [])
        }
        for array in program.arrays_in_use():
            comm_edges = list(lcg.communication_edges(array.name))
            fold_here = {
                (k, g) for (k, g, arr) in fold_edges if arr == array.name
            }
            for e in lcg.edges(array.name):
                key = (e.phase_k, e.phase_g, array.name)
                if key in relaxed or (e.phase_k, e.phase_g) in fold_here:
                    comm_edges.append(e)
            for edge in comm_edges:
                layout_k = layouts[(edge.phase_k, array.name)]
                layout_g = layouts[(edge.phase_g, array.name)]
                drain = program.phase(edge.phase_g)
                if isinstance(layout_k, ReplicatedLayout) or isinstance(
                    layout_g, ReplicatedLayout
                ):
                    continue
                label = f"comm:{array.name}:{edge.phase_k}->{edge.phase_g}"
                with obs_span(obs, label) as sp:
                    if edge.intra_k.has_overlap and layout_k is layout_g:
                        sym = edge.intra_k.symmetry
                        overlap = _ev_int(sym.overlap[0][2], env)
                        cp = frontier_update(
                            array.name,
                            (edge.phase_k, edge.phase_g),
                            overlap,
                            H,
                        )
                    elif (
                        fast_path == "symbolic"
                        and layout_k == layout_g
                    ):
                        # identical layouts move nothing: skip the
                        # region entirely (byte-identical empty plan)
                        cp = null_redistribution(
                            array.name, (edge.phase_k, edge.phase_g)
                        )
                    else:
                        cp = None
                        if fast_path == "symbolic":
                            from .closed_form import symbolic_redistribution

                            cp = symbolic_redistribution(
                                drain,
                                env,
                                array,
                                layout_k,
                                layout_g,
                                H,
                                (edge.phase_k, edge.phase_g),
                            )
                            if cp is None and obs is not None:
                                obs.count("dsm.symbolic.fallback")
                                obs.count(
                                    "dsm.symbolic.fallback.redistribution"
                                )
                        if cp is None:
                            region = drain_region(drain, array)
                            old_owner = np.asarray(layout_k.owner(region))
                            new_owner = np.asarray(layout_g.owner(region))
                            cp = redistribution(
                                array.name,
                                (edge.phase_k, edge.phase_g),
                                region,
                                old_owner,
                                new_owner,
                            )
                    sp.set(
                        pattern=cp.pattern,
                        messages=cp.messages,
                        elements=cp.volume,
                        bytes=cp.volume * ELEMENT_BYTES,
                    )
                if obs is not None:
                    obs.count("dsm.comm.messages", cp.messages)
                    obs.count("dsm.comm.elements", cp.volume)
                    obs.count("dsm.comm.bytes", cp.volume * ELEMENT_BYTES)
                report.comms.append(cp)
    return report


def _ev_int(expr, env: Mapping[str, int]) -> int:
    from fractions import Fraction

    v = expr.evalf({k: Fraction(val) for k, val in env.items()})
    if v.denominator != 1:
        raise ValueError(f"{expr} not integral under {env}")
    return int(v)
