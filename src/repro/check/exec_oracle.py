"""Execution-tier oracle — symbolic accounting ≡ wide enumeration.

The ``"symbolic"`` executor tier (:mod:`repro.dsm.closed_form`), the
default behind every front end, promises *byte-identical* results to
the ``"wide"`` enumeration tier, which is kept as its reference: the same
per-PE local/remote/iteration counts for every phase and the same
aggregated communication plans (pattern, put order, sources,
destinations, element counts) for every edge.  This oracle runs both
tiers over the same program and compares everything, so any drift in
the residue-class arithmetic — an off-by-one in a floor-sum, a wrong
block boundary, a mis-clipped layout segment — surfaces as a
:class:`~repro.check.report.Mismatch` instead of silently skewing the
paper's Table 2/3 numbers.

Checks per (program, H):

``exec.static_counts`` / ``exec.plan_counts``
    Per-phase ``local``/``remote``/``iterations`` arrays must match
    element-for-element between tiers, for the naive BLOCK baseline
    (``execute_static``) and the LCG-driven plan execution
    (``execute_with_plan``).

``exec.plan_comms``
    Every communication plan must agree on array, edge, pattern, and
    the exact put list (lexicographic (source, dest) order with
    element counts) — the aggregation the cost model bills.

Fallbacks are part of the contract: the symbolic run is instrumented
with its own collector, and the observed ``dsm.fast_path.symbolic`` /
``dsm.symbolic.fallback*`` counters are recorded as report notes so a
sweep can prove every fallback stayed visible.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..obs import Collector
from .report import CheckReport, Mismatch

__all__ = ["check_exec_tier"]

#: Counter prefixes copied into the report notes after the symbolic run.
_OBSERVED = ("dsm.fast_path.", "dsm.symbolic.")


def _compare_phases(report, kind, ref, sym, obs=None) -> None:
    if len(ref.phases) != len(sym.phases):
        report.mismatches.append(
            Mismatch(
                kind=kind,
                program=report.program,
                phase="*",
                array="*",
                detail=(
                    f"tier reports {len(sym.phases)} phases, "
                    f"wide reports {len(ref.phases)}"
                ),
            )
        )
        return
    for pw, ps in zip(ref.phases, sym.phases):
        report.merge_checked(kind)
        if obs is not None:
            obs.count(f"check.{kind}")
        for field in ("local", "remote", "iterations"):
            a = np.asarray(getattr(pw, field))
            b = np.asarray(getattr(ps, field))
            if a.shape == b.shape and np.array_equal(a, b):
                continue
            diff = (
                int(np.count_nonzero(a != b))
                if a.shape == b.shape
                else max(a.size, b.size)
            )
            report.mismatches.append(
                Mismatch(
                    kind=kind,
                    program=report.program,
                    phase=pw.phase,
                    array="*",
                    detail=(
                        f"symbolic {field} disagrees with wide enumeration "
                        f"on {diff} PE(s)"
                    ),
                    extra=diff,
                )
            )


def _compare_comms(report, ref, sym, obs=None) -> None:
    kind = "exec.plan_comms"
    if len(ref.comms) != len(sym.comms):
        report.mismatches.append(
            Mismatch(
                kind=kind,
                program=report.program,
                phase="*",
                array="*",
                detail=(
                    f"tier emits {len(sym.comms)} comm plans, "
                    f"wide emits {len(ref.comms)}"
                ),
            )
        )
        return
    for cw, cs in zip(ref.comms, sym.comms):
        report.merge_checked(kind)
        if obs is not None:
            obs.count(f"check.{kind}")
        where = dict(
            program=report.program,
            phase=f"{cw.edge[0]}->{cw.edge[1]}",
            array=cw.array,
        )
        if (cw.array, cw.edge, cw.pattern) != (cs.array, cs.edge, cs.pattern):
            report.mismatches.append(
                Mismatch(
                    kind=kind,
                    detail=(
                        f"plan identity differs: wide "
                        f"{(cw.array, cw.edge, cw.pattern)} vs symbolic "
                        f"{(cs.array, cs.edge, cs.pattern)}"
                    ),
                    **where,
                )
            )
            continue
        if cw.puts != cs.puts:
            first = next(
                (
                    (i, a, b)
                    for i, (a, b) in enumerate(zip(cw.puts, cs.puts))
                    if a != b
                ),
                None,
            )
            drift = (
                f"first divergence at put {first[0]}: wide {first[1]}, "
                f"symbolic {first[2]}"
                if first
                else f"{len(cw.puts)} vs {len(cs.puts)} puts"
            )
            report.mismatches.append(
                Mismatch(
                    kind=kind,
                    detail=(
                        f"put aggregation differs "
                        f"(wide {cw.volume} elems/{cw.messages} msgs, "
                        f"symbolic {cs.volume}/{cs.messages}): {drift}"
                    ),
                    **where,
                )
            )


def check_exec_tier(
    program,
    env,
    H,
    *,
    back_edges=(),
    program_name: Optional[str] = None,
    result=None,
    obs=None,
) -> CheckReport:
    """Differentially execute ``program`` under both tiers at ``H``.

    ``result`` may carry a precomputed :func:`repro.analyze` result for
    the same ``(program, env, H, back_edges)`` — only its LCG and plan
    are reused; both executions run fresh here, the wide tier as the
    enumeration oracle and the symbolic tier as the candidate.
    """
    from .. import analyze  # deferred: repro package imports check.faults
    from ..dsm import execute_static, execute_with_plan

    name = program_name or getattr(program, "name", "<program>")
    report = CheckReport(program=name, H=H, env=dict(env))
    if result is None:
        result = analyze(program, env=env, H=H, back_edges=back_edges)
    lcg, plan = result.lcg, result.plan

    ctx = program.context
    prev_obs = getattr(ctx, "obs", None)
    sym_obs = Collector(metrics=True)
    try:
        ctx.obs = sym_obs
        sym_static = execute_static(program, env, H, fast_path="symbolic")
        sym_plan = execute_with_plan(
            program, lcg, plan, env, H, fast_path="symbolic"
        )
    finally:
        ctx.obs = prev_obs
    wide_static = execute_static(program, env, H, fast_path="wide")
    wide_plan = execute_with_plan(program, lcg, plan, env, H, fast_path="wide")

    _compare_phases(report, "exec.static_counts", wide_static, sym_static, obs)
    _compare_phases(report, "exec.plan_counts", wide_plan, sym_plan, obs)
    _compare_comms(report, wide_plan, sym_plan, obs)

    counters = sym_obs.metrics_snapshot().get("counters", {})
    for key in sorted(counters):
        if key.startswith(_OBSERVED):
            report.notes.append(f"{key} = {counters[key]}")
            if obs is not None:
                obs.count(f"check.{key}", counters[key])
    return report
