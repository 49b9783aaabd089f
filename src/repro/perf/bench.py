"""Perf-regression harness: ``python -m repro bench-perf``.

Times every pipeline stage — IR build, ARD construction + coalescing,
LCG build, ILP solve, and both DSM execution modes — on the six-code
suite, in two configurations:

* **baseline** — the interpreted pre-optimization engine: vectorized/
  compiled enumeration and sampled refutation off, the executor
  restricted to the legacy affine-rectangular fast path.  This is the
  code path the repo shipped before the performance layer landed, kept
  runnable precisely so the speedup is measured, not remembered.  The
  :mod:`repro.memo` banks stay on (cleared): with every bank off the
  ``is_nonneg`` recursion and the Eq. 7 enumeration re-derive shared
  sub-results without bound, and the quick pass no longer finishes.
* **optimized** — everything on: interning + memoized algebra, compiled
  vectorized subscript evaluation, sampled refutation of ``is_nonneg``
  proof obligations, the fingerprint analysis cache behind the LCG
  builder, and the wide descriptor-first executor path.

The ``lcg`` stage is timed twice per code: cold, then ``lcg_warm`` — a
rebuild of a *fresh* program object, which in optimized mode answers
from the fingerprint analysis cache (in baseline mode it re-derives
everything, so the pair also measures the cache's win directly).

Three sections are recorded into ``BENCH_perf.json``:

* ``full`` — the §4.3 headline scale (H=64, TFFT2 at P=2**7); the
  committed numbers every future PR has to beat.
* ``quick`` — H=8 with small sizes, cheap enough for CI: the workflow
  reruns it and fails when the optimized total regresses by more than
  the configured factor against the committed file.
* ``lcg_full`` — optimized-only LCG-stage scaling at the full sizes for
  H in {16, 64}: cold + warm build times per code.  Cheap enough for CI
  (no baseline pass), guarded by ``--check-lcg``.
* ``exec`` — the symbolic closed-form tier against wide enumeration at
  enumeration-hostile sizes (H=64): per-code static/plan speedups, a
  count-equality assertion, and the observed fallback counters.
  Guarded by ``--check-exec`` (tfft2 speedup floor + equality).
* ``exec_large_H`` — symbolic-only runs at H in {1024, 4096}: machine
  sizes where enumeration multiplies out but closed-form counting does
  not.  The H=4096 entry is the paper-scale result no enumerating tier
  ever produced.  Beyond ``LARGE_H_PLAN_MAX`` only ``execute_static``
  is timed: an all-to-all put *list* is Θ(H²) objects whatever tier
  counted it.
* ``exec_huge_N`` — symbolic-only static execution at ~2**20-element
  problem sizes per code.
* ``sweep`` — the session subsystem's reason to exist, measured: one
  warm :class:`repro.session.Session` sweeping a ≥16-point H × chunk
  grid against the same grid as independent cold ``analyze()`` calls,
  with per-point sha256 byte-identity asserted between the two paths.
  Guarded by ``--check-sweep`` (speedup floor + identity + a ≥2-point
  Pareto front).

Speedups compare wall-clock totals of the two configurations over the
same stages on the same machine, so the ratio is meaningful even though
absolute times differ across hosts.  Since schema 4 each section also
records ``stage_speedups`` — the per-stage baseline/optimized ratio —
so a future regression localises to a stage straight from CI output.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from typing import Mapping, Optional

__all__ = [
    "EXEC_H",
    "EXEC_SIZES",
    "FULL_H",
    "FULL_SIZES",
    "HUGE_N_SIZES",
    "LARGE_H_PLAN_MAX",
    "LARGE_H_VALUES",
    "LCG_H_VALUES",
    "QUICK_H",
    "QUICK_SIZES",
    "FRONT_GRID",
    "SWEEP_GRID",
    "check_exec",
    "check_lcg_regression",
    "check_regression",
    "check_sweep",
    "main",
    "run_benchmark",
    "set_optimizations",
]

FULL_H = 64
FULL_SIZES = {
    "tfft2": {"P": 128, "p": 7, "Q": 128, "q": 7},
    "jacobi": {"N": 8192},
    "swim": {"M": 128, "N": 128},
    "adi": {"M": 128, "N": 128},
    "mgrid": {"N": 8192, "n": 13},
    "tomcatv": {"M": 128, "N": 128},
    "redblack": {"N": 8192},
}

QUICK_H = 8
QUICK_SIZES = {
    "tfft2": {"P": 16, "p": 4, "Q": 16, "q": 4},
    "jacobi": {"N": 1024},
    "swim": {"M": 24, "N": 24},
    "adi": {"M": 24, "N": 24},
    "mgrid": {"N": 1024, "n": 10},
    "tomcatv": {"M": 24, "N": 24},
    "redblack": {"N": 1024},
}

STAGES = (
    "build",
    "ard",
    "lcg",
    "lcg_warm",
    "ilp",
    "exec_static",
    "exec_plan",
    "exec_symbolic",
)

#: Processor counts for the optimized-only ``lcg_full`` scaling section.
LCG_H_VALUES = (16, 64)

#: The execution-tier section: enumeration-hostile sizes at H=64, where
#: the wide tier's cost is address volume and the symbolic tier's is
#: descriptor count.
EXEC_H = 64
EXEC_SIZES = {
    "tfft2": {"P": 1024, "p": 10, "Q": 1024, "q": 10},
    "jacobi": {"N": 1 << 20},
    "swim": {"M": 1024, "N": 1024},
    "adi": {"M": 1024, "N": 1024},
    "mgrid": {"N": 1 << 20, "n": 20},
    "tomcatv": {"M": 1024, "N": 1024},
    "redblack": {"N": 1 << 20},
}

#: Machine sizes for the symbolic-only large-H section.  The paper's
#: T3D topped out at H=256; enumeration cost scales with H while the
#: closed-form tier's does not, so these are first-ever results.
LARGE_H_VALUES = (1024, 4096)

#: Largest H at which the large-H section also times plan execution.
#: The put *list* of an all-to-all redistribution is Θ(H²) Python
#: objects whatever tier computed the counts — ~16M puts per edge at
#: H=4096, tens of GB — so beyond this the section reports the
#: closed-form locality counts (``execute_static``) only.
LARGE_H_PLAN_MAX = 1024

#: ~2**20-element (and beyond: tfft2's arrays hold 2*P*Q = 2**23)
#: problem sizes for the symbolic-only huge-N section.
HUGE_N_SIZES = {
    "tfft2": {"P": 2048, "p": 11, "Q": 2048, "q": 11},
    "jacobi": {"N": 1 << 20},
    "swim": {"M": 1024, "N": 1024},
    "adi": {"M": 1024, "N": 1024},
    "mgrid": {"N": 1 << 20, "n": 20},
    "tomcatv": {"M": 1024, "N": 1024},
    "redblack": {"N": 1 << 20},
}


#: The ``sweep`` section's timed workload: tfft2 at the quick size — the
#: code whose cold analysis is dominated by cacheable edge work (~15x
#: cold/warm ratio) — over a 16-point H × chunk-pin grid.  Two H values,
#: not four: each new H re-binds every edge fingerprint, so H values
#: are the expensive axis of a session sweep and chunk pins the cheap
#: one.
SWEEP_CODE = "tfft2"
SWEEP_H = 8
SWEEP_GRID = {"H": [4, 8], "chunk:F1_DO_100_RCFFTZ": [1, 2, 3, 4, 5, 6, 7, 8]}

#: The Pareto-front probe: an unrestricted sweep collapses to a
#: one-point front (the model's feasible-maximum chunk minimizes both
#: axes), so conflicting layouts are exposed by pinning jacobi's sweep
#: phase across a capped range at fixed H — communication falls and
#: imbalance rises as the pin grows.
FRONT_CODE = "jacobi"
FRONT_GRID = {"chunk:F_sweep": list(range(1, 13))}


def set_optimizations(enabled: bool) -> None:
    """Flip every performance-layer switch at once (and drop caches).

    Uses the internal default setters rather than the deprecated public
    shims — the harness intentionally moves process-wide state and
    should not spray DeprecationWarnings while doing so.
    """
    from ..dsm.executor import _set_fast_path_default
    from ..ir.interp import set_vectorized
    from ..locality.engine import _set_analysis_cache_default
    from ..symbolic.refute import _set_refutation_default

    set_vectorized(enabled)
    _set_fast_path_default("wide" if enabled else "legacy")
    _set_refutation_default(enabled)
    _set_analysis_cache_default(enabled)
    clear_caches()


def clear_caches() -> None:
    """Reset memoization state so timed runs start cold.

    Every memo bank is keyed structurally and shared across
    freshly-built programs, so without clearing them whichever mode
    runs second would inherit warm memos and the comparison would be
    meaningless.
    """
    from .. import memo
    from ..locality.engine import clear_analysis_cache
    from ..plan import clear_plan_cache

    memo.clear_all()
    clear_analysis_cache()
    clear_plan_cache()


def _time_code(name: str, env: Mapping[str, int], H: int) -> dict:
    """Per-stage wall-clock seconds for one code at one scale."""
    from ..codes import ALL_CODES
    from ..descriptors.ard import UnsupportedAccess, compute_ard
    from ..descriptors.coalesce import coalesce_row
    from ..distribution import extract_constraints, solve_enumerative
    from ..dsm import execute_static, execute_with_plan
    from ..locality import build_lcg

    builder, _, back_edges = ALL_CODES[name]
    stages: dict = {}

    t0 = time.perf_counter()
    prog = builder()
    stages["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for phase in prog.phases:
        ctx = phase.loop_context(prog.context)
        for access in phase.accesses():
            try:
                coalesce_row(compute_ard(access, ctx), ctx)
            except UnsupportedAccess:
                pass
    stages["ard"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    lcg = build_lcg(prog, env=env, H_value=H, back_edges=back_edges)
    stages["lcg"] = time.perf_counter() - t0

    # Rebuild from a *fresh* program: fresh phase objects defeat every
    # per-object memo, so this measures exactly what the fingerprint
    # analysis cache (when enabled) buys a warm process.  The program
    # construction itself is not part of the LCG stage, so it stays
    # outside the timer.
    fresh = builder()
    t0 = time.perf_counter()
    build_lcg(fresh, env=env, H_value=H, back_edges=back_edges)
    stages["lcg_warm"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    constraints = extract_constraints(lcg)
    plan = solve_enumerative(constraints, env, H=H)
    stages["ilp"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    execute_static(prog, env, H)
    stages["exec_static"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    execute_with_plan(prog, lcg, plan, env, H)
    stages["exec_plan"] = time.perf_counter() - t0

    # The closed-form tier, forced explicitly so the stage is measured
    # in both configurations regardless of the process default.
    t0 = time.perf_counter()
    execute_static(prog, env, H, fast_path="symbolic")
    execute_with_plan(prog, lcg, plan, env, H, fast_path="symbolic")
    stages["exec_symbolic"] = time.perf_counter() - t0

    stages["total"] = sum(stages[s] for s in STAGES)
    return stages


def _run_mode(sizes: Mapping, H: int, optimized: bool, log) -> dict:
    set_optimizations(optimized)
    try:
        per_code: dict = {}
        for name in sorted(sizes):
            per_code[name] = _time_code(name, sizes[name], H)
            log(
                f"    {name:<10} {per_code[name]['total']:8.2f}s "
                f"({'optimized' if optimized else 'baseline'})"
            )
        return {
            "per_code": per_code,
            "total": sum(c["total"] for c in per_code.values()),
        }
    finally:
        set_optimizations(True)


def _stage_speedups(baseline: dict, optimized: dict) -> dict:
    """Per-stage baseline/optimized ratio, summed across codes.

    A regression in the end-to-end total only says *something* got
    slower; the per-stage ratios say *which* stage, straight from the
    committed payload, with no re-run under a profiler.
    """
    speedups: dict = {}
    for stage in STAGES:
        base = sum(c[stage] for c in baseline["per_code"].values())
        opt = sum(c[stage] for c in optimized["per_code"].values())
        speedups[stage] = base / opt if opt > 0 else float("inf")
    return speedups


def _run_section(sizes: Mapping, H: int, log) -> dict:
    optimized = _run_mode(sizes, H, True, log)
    baseline = _run_mode(sizes, H, False, log)
    return {
        "H": H,
        "sizes": {k: dict(v) for k, v in sizes.items()},
        "baseline": baseline,
        "optimized": optimized,
        "speedup": (
            baseline["total"] / optimized["total"]
            if optimized["total"] > 0
            else float("inf")
        ),
        "stage_speedups": _stage_speedups(baseline, optimized),
    }


def _time_lcg_only(name: str, env: Mapping[str, int], H: int) -> dict:
    """Cold, warm and plan-driven-cold LCG build times for one code.

    Alongside the timings the record carries the engine's *trajectory*:
    how the warm build answered (edge-cache hits vs. lookups) and how
    the prover's queries resolved during the cold build (refuted /
    passed / declined) — so BENCH_perf.json tracks not just how fast
    the stage is but *why*.

    The ``lcg_cold_plan`` stage measures the compiled-plan cold path
    end to end: a fully cold recording build (untimed) compiles the
    plan, the bundle round-trips through an on-disk snapshot, every
    memo table is cleared, and the timed build then starts from
    *nothing but the loaded bundle* — exactly the restarted-process
    scenario the plan cache exists for.  ``cold_speedup`` is the plain
    cold time over this plan-driven cold time.
    """
    import os
    import tempfile

    from ..codes import ALL_CODES
    from ..locality import build_lcg
    from ..locality.engine import get_analysis_cache
    from ..plan import PlanCache, PlanRecorder, install_plan
    from ..symbolic import refutation_stats

    builder, _, back_edges = ALL_CODES[name]
    clear_caches()
    # Fresh program objects per build (defeating per-object memos), but
    # constructed outside the timers: the stage under test is build_lcg.
    first, second, third, fourth = (
        builder(), builder(), builder(), builder(),
    )
    refute_before = refutation_stats()
    # Each timed build starts with a full collection, so a gen-2 pass
    # owed to the untimed set-up (a ~30 ms walk of the whole heap,
    # longer than a whole plan-driven build) cannot land inside it.
    gc.collect()
    t0 = time.perf_counter()
    build_lcg(first, env=env, H_value=H, back_edges=back_edges)
    cold = time.perf_counter() - t0
    refute_after = refutation_stats()
    stats_cold = dict(get_analysis_cache().stats)
    gc.collect()
    t0 = time.perf_counter()
    build_lcg(second, env=env, H_value=H, back_edges=back_edges)
    warm = time.perf_counter() - t0
    stats_warm = dict(get_analysis_cache().stats)
    hits = stats_warm["edge_hits"] - stats_cold["edge_hits"]
    misses = stats_warm["edge_misses"] - stats_cold["edge_misses"]
    lookups = hits + misses

    # Recording build: fully cold (the hook must see every query as the
    # build actually issues it), untimed — it stands in for the one
    # prior process that compiled the plan.
    clear_caches()
    recorder = PlanRecorder()
    build_lcg(third, env=env, H_value=H, back_edges=back_edges)
    compiled = recorder.finish(
        third, env=env, H_value=H, back_edges=back_edges
    )
    bundle = PlanCache()
    bundle.put(compiled)
    bundle.capture_banks()
    fd, bundle_path = tempfile.mkstemp(prefix="repro-bench-plan-")
    os.close(fd)
    cold_plan = None
    try:
        bundle.save(bundle_path)
        clear_caches()
        loaded = PlanCache.load(bundle_path)
        loaded.install_banks()
        replay = loaded.get(compiled.key) if compiled is not None else None
        if replay is not None and install_plan(replay):
            gc.collect()
            t0 = time.perf_counter()
            build_lcg(
                fourth, env=env, H_value=H, back_edges=back_edges,
                plan=replay,
            )
            cold_plan = time.perf_counter() - t0
    finally:
        os.unlink(bundle_path)

    return {
        "lcg": cold,
        "lcg_warm": warm,
        "lcg_cold_plan": cold_plan,
        "cold_speedup": (
            cold / cold_plan if cold_plan else None
        ),
        "warm_edge_hits": hits,
        "warm_edge_lookups": lookups,
        "warm_hit_rate": hits / lookups if lookups else None,
        "refute_cold": {
            key: refute_after[key] - refute_before[key]
            for key in ("refuted", "passed", "declined")
        },
    }


def _run_lcg_section(log) -> dict:
    """Optimized-only LCG-stage scaling at the full sizes, H in LCG_H_VALUES."""
    set_optimizations(True)
    per_H: dict = {}
    for H in LCG_H_VALUES:
        per_code: dict = {}
        for name in sorted(FULL_SIZES):
            per_code[name] = _time_lcg_only(name, FULL_SIZES[name], H)
        hits = sum(c["warm_edge_hits"] for c in per_code.values())
        lookups = sum(c["warm_edge_lookups"] for c in per_code.values())
        plan_times = [
            c["lcg_cold_plan"]
            for c in per_code.values()
            if c["lcg_cold_plan"] is not None
        ]
        total_cold = sum(c["lcg"] for c in per_code.values())
        total_cold_plan = sum(plan_times) if plan_times else None
        per_H[str(H)] = {
            "per_code": per_code,
            "total_cold": total_cold,
            "total_warm": sum(c["lcg_warm"] for c in per_code.values()),
            "total_cold_plan": total_cold_plan,
            "cold_speedup": (
                total_cold / total_cold_plan
                if total_cold_plan and len(plan_times) == len(per_code)
                else None
            ),
            "warm_hit_rate": hits / lookups if lookups else None,
            "refute_cold": {
                key: sum(
                    c["refute_cold"][key] for c in per_code.values()
                )
                for key in ("refuted", "passed", "declined")
            },
        }
        rate = per_H[str(H)]["warm_hit_rate"]
        speedup = per_H[str(H)]["cold_speedup"]
        log(
            f"    H={H:<3} lcg cold {per_H[str(H)]['total_cold']:7.3f}s "
            f"warm {per_H[str(H)]['total_warm']:7.3f}s "
            f"plan-cold "
            f"{'n/a' if total_cold_plan is None else f'{total_cold_plan:7.3f}s'} "
            f"(x{'n/a' if speedup is None else f'{speedup:.1f}'}) "
            f"hit-rate {'n/a' if rate is None else f'{rate:.0%}'}"
        )
    return {"H_values": list(LCG_H_VALUES), "per_H": per_H}


def _exec_prepare(name: str, env: Mapping[str, int], H: int):
    """Build program + LCG + plan once, outside the executor timers."""
    from ..codes import ALL_CODES
    from ..distribution import extract_constraints, solve_enumerative
    from ..locality import build_lcg

    builder, _, back_edges = ALL_CODES[name]
    prog = builder()
    lcg = build_lcg(prog, env=env, H_value=H, back_edges=back_edges)
    plan = solve_enumerative(extract_constraints(lcg), env, H=H)
    return prog, lcg, plan


def _stats_equal(ref, cand) -> bool:
    """Byte-identical ExecStats: phase counts and put aggregation."""
    import numpy as np

    if len(ref.phases) != len(cand.phases):
        return False
    for pr, pc in zip(ref.phases, cand.phases):
        for field in ("local", "remote", "iterations"):
            a = np.asarray(getattr(pr, field))
            b = np.asarray(getattr(pc, field))
            if a.shape != b.shape or not np.array_equal(a, b):
                return False
    ref_comms = getattr(ref, "comms", ())
    cand_comms = getattr(cand, "comms", ())
    if len(ref_comms) != len(cand_comms):
        return False
    for cr, cc in zip(ref_comms, cand_comms):
        if (cr.array, cr.edge, cr.pattern, cr.puts) != (
            cc.array,
            cc.edge,
            cc.pattern,
            cc.puts,
        ):
            return False
    return True


def _run_exec_section(log) -> dict:
    """Symbolic closed-form tier vs wide enumeration, head to head.

    Enumeration-hostile sizes at H=EXEC_H: the wide tier pays for every
    address, the symbolic tier for every descriptor.  Each code records
    both tiers' static/plan wall-clock, the speedups, a byte-identity
    verdict on the resulting counts + put lists, and the fallback
    counters the symbolic run emitted (a silent fallback would show up
    here as a fast-but-actually-wide "speedup" of ~1x).
    """
    from ..dsm import execute_static, execute_with_plan
    from ..obs import Collector

    set_optimizations(True)
    per_code: dict = {}
    for name in sorted(EXEC_SIZES):
        env = EXEC_SIZES[name]
        prog, lcg, plan = _exec_prepare(name, env, EXEC_H)
        ctx = prog.context
        prev_obs = getattr(ctx, "obs", None)
        sym_obs = Collector(metrics=True)
        try:
            ctx.obs = sym_obs
            t0 = time.perf_counter()
            sym_static = execute_static(prog, env, EXEC_H, fast_path="symbolic")
            t_sym_static = time.perf_counter() - t0
            t0 = time.perf_counter()
            sym_plan = execute_with_plan(
                prog, lcg, plan, env, EXEC_H, fast_path="symbolic"
            )
            t_sym_plan = time.perf_counter() - t0
        finally:
            ctx.obs = prev_obs
        t0 = time.perf_counter()
        wide_static = execute_static(prog, env, EXEC_H, fast_path="wide")
        t_wide_static = time.perf_counter() - t0
        t0 = time.perf_counter()
        wide_plan = execute_with_plan(
            prog, lcg, plan, env, EXEC_H, fast_path="wide"
        )
        t_wide_plan = time.perf_counter() - t0

        counters = sym_obs.metrics_snapshot().get("counters", {})
        per_code[name] = {
            "wide_static": t_wide_static,
            "wide_plan": t_wide_plan,
            "symbolic_static": t_sym_static,
            "symbolic_plan": t_sym_plan,
            "speedup_static": (
                t_wide_static / t_sym_static if t_sym_static > 0 else float("inf")
            ),
            "speedup_plan": (
                t_wide_plan / t_sym_plan if t_sym_plan > 0 else float("inf")
            ),
            "counts_equal": (
                _stats_equal(wide_static, sym_static)
                and _stats_equal(wide_plan, sym_plan)
            ),
            "fallbacks": {
                key: counters[key]
                for key in sorted(counters)
                if key.startswith(("dsm.fast_path.", "dsm.symbolic."))
            },
        }
        rec = per_code[name]
        log(
            f"    {name:<10} static {rec['speedup_static']:8.1f}x "
            f"plan {rec['speedup_plan']:8.1f}x "
            f"equal={rec['counts_equal']}"
        )
    return {
        "H": EXEC_H,
        "sizes": {k: dict(v) for k, v in EXEC_SIZES.items()},
        "per_code": per_code,
    }


def _run_large_H_section(log, H_values=LARGE_H_VALUES) -> dict:
    """Symbolic-only execution at machine sizes enumeration can't reach.

    tfft2's env is grown with the machine (same rule as ``repro check``)
    so the ILP stays feasible; the per-code record keeps the env it
    actually ran, plus the analysis (LCG + ILP) time separately from the
    executor times — at these H values the solver is the slow part and
    should not be billed to the execution tier.
    """
    from ..check import env_for
    from ..dsm import execute_static, execute_with_plan

    set_optimizations(True)
    per_H: dict = {}
    for H in H_values:
        per_code: dict = {}
        for name in sorted(EXEC_SIZES):
            env = env_for(name, EXEC_SIZES[name], H)
            t0 = time.perf_counter()
            prog, lcg, plan = _exec_prepare(name, env, H)
            t_analysis = time.perf_counter() - t0
            t0 = time.perf_counter()
            execute_static(prog, env, H, fast_path="symbolic")
            t_static = time.perf_counter() - t0
            per_code[name] = {
                "env": dict(env),
                "analysis": t_analysis,
                "symbolic_static": t_static,
            }
            if H <= LARGE_H_PLAN_MAX:
                t0 = time.perf_counter()
                execute_with_plan(
                    prog, lcg, plan, env, H, fast_path="symbolic"
                )
                per_code[name]["symbolic_plan"] = time.perf_counter() - t0
            t_plan = per_code[name].get("symbolic_plan")
            log(
                f"    H={H:<5} {name:<10} static {t_static:7.3f}s "
                f"plan {'skipped' if t_plan is None else f'{t_plan:7.3f}s'} "
                f"(analysis {t_analysis:.2f}s)"
            )
        per_H[str(H)] = {
            "per_code": per_code,
            "total_static": sum(
                c["symbolic_static"] for c in per_code.values()
            ),
            "total_plan": (
                sum(c["symbolic_plan"] for c in per_code.values())
                if H <= LARGE_H_PLAN_MAX
                else None
            ),
        }
    return {"H_values": list(H_values), "per_H": per_H}


def _run_huge_N_section(log) -> dict:
    """Symbolic-only static execution at ~2**20-element problem sizes."""
    from ..codes import ALL_CODES
    from ..dsm import execute_static

    set_optimizations(True)
    per_code: dict = {}
    for name in sorted(HUGE_N_SIZES):
        env = HUGE_N_SIZES[name]
        builder, _, _ = ALL_CODES[name]
        prog = builder()
        t0 = time.perf_counter()
        execute_static(prog, env, EXEC_H, fast_path="symbolic")
        per_code[name] = {"symbolic_static": time.perf_counter() - t0}
        log(
            f"    {name:<10} static "
            f"{per_code[name]['symbolic_static']:7.3f}s"
        )
    return {
        "H": EXEC_H,
        "sizes": {k: dict(v) for k, v in HUGE_N_SIZES.items()},
        "per_code": per_code,
        "total_static": sum(
            c["symbolic_static"] for c in per_code.values()
        ),
    }


def _run_sweep_section(log) -> dict:
    """One warm session vs independent cold solves over the same grid.

    Two measurements.  The *timed* half runs ``SWEEP_GRID`` through one
    :class:`repro.session.Session` and then re-runs the same grid as
    independent cold ``analyze()`` calls — fresh program object, every
    cache and memo cleared per point.  Program construction and cache
    clearing happen *outside* the cold timers, so the ratio understates
    the session's win rather than inflating it; per-point sha256s are
    compared across the two paths, and the speedup only counts if the
    bytes are identical.  Both paths run analysis-only
    (``execute=False``): a layout sweep needs the objective, not the
    DSM simulation, and the simulation is unmemoizable cost paid
    equally by both sides.

    The *untimed* half sweeps ``FRONT_GRID`` (a capped chunk-pin range
    at fixed H) through a second session and records the Pareto front —
    the ≥2-conflicting-layouts property the gate asserts.
    """
    import hashlib
    import itertools

    from .. import AnalysisOptions, analyze
    from ..codes import ALL_CODES
    from ..document import dumps_canonical
    from ..options import format_chunk_bounds
    from ..session.state import Session
    from ..session.sweep import run_sweep

    set_optimizations(True)
    env = QUICK_SIZES[SWEEP_CODE]
    builder, _, back_edges = ALL_CODES[SWEEP_CODE]

    # -- warm path: one session, one sweep ------------------------------
    clear_caches()
    program = builder()
    t0 = time.perf_counter()
    session = Session(
        program, env, SWEEP_H, back_edges=back_edges, execute=False
    )
    session.solve()
    out = run_sweep(session, SWEEP_GRID)
    t_session = time.perf_counter() - t0
    session.close()

    # -- cold path: the same grid, nothing shared -----------------------
    keys = sorted(SWEEP_GRID)
    t_cold = 0.0
    cold_shas: list = []
    for combo in itertools.product(*(SWEEP_GRID[k] for k in keys)):
        params = dict(zip(keys, combo))
        H = params.get("H", SWEEP_H)
        bounds = {
            k.partition(":")[2]: (v, v)
            for k, v in params.items()
            if k.startswith("chunk:")
        }
        options = AnalysisOptions(
            trace=False,
            metrics=False,
            plan=False,
            plan_cache=None,
            analysis_cache=False,
            chunk_bounds=format_chunk_bounds(bounds) or None,
        )
        prog_cold = builder()
        clear_caches()
        try:
            t0 = time.perf_counter()
            result = analyze(
                prog_cold,
                env=env,
                H=H,
                back_edges=back_edges,
                execute=False,
                options=options,
            )
            t_cold += time.perf_counter() - t0
        except (ValueError, RuntimeError):
            cold_shas.append(None)
            continue
        doc = result.to_document()
        doc["metrics"] = None
        doc["trace"] = None
        cold_shas.append(
            hashlib.sha256(dumps_canonical(doc).encode()).hexdigest()
        )

    session_shas = [p.get("sha256") for p in out["points"]]
    identical = session_shas == cold_shas

    # -- Pareto probe: conflicting layouts from a capped pin sweep ------
    front_env = QUICK_SIZES[FRONT_CODE]
    front_builder, _, front_back = ALL_CODES[FRONT_CODE]
    front_session = Session(
        front_builder(), front_env, SWEEP_H, back_edges=front_back,
        execute=False,
    )
    front_out = run_sweep(front_session, FRONT_GRID)
    front_session.close()
    front_points = [
        {
            "params": front_out["points"][i]["params"],
            "communication": front_out["points"][i]["communication"],
            "imbalance": front_out["points"][i]["imbalance"],
        }
        for i in front_out["front"]
    ]

    section = {
        "code": SWEEP_CODE,
        "env": dict(env),
        "grid": out["grid"],
        "points": len(out["points"]),
        "feasible_points": out["reuse"]["feasible_points"],
        "session_seconds": t_session,
        "cold_seconds": t_cold,
        "speedup": t_cold / t_session if t_session > 0 else float("inf"),
        "identical": identical,
        "reuse": out["reuse"],
        "front_code": FRONT_CODE,
        "front_grid": front_out["grid"],
        "front_size": len(front_out["front"]),
        "front": front_points,
    }
    log(
        f"    {SWEEP_CODE:<10} {section['points']} points: session "
        f"{t_session:.2f}s vs cold {t_cold:.2f}s "
        f"({section['speedup']:.1f}x), identical={identical}; "
        f"{FRONT_CODE} pin-sweep front={section['front_size']}"
    )
    return section


def run_benchmark(
    quick_only: bool = False,
    log=lambda s: None,
    lcg_section=None,
    exec_section=None,
    sweep_section=None,
) -> dict:
    """Run the harness; returns the BENCH_perf.json payload.

    ``lcg_section`` forces the optimized-only ``lcg_full`` section on or
    off; by default it runs whenever the full section does.  Likewise
    ``exec_section`` for the symbolic-vs-wide ``exec`` section; the
    symbolic-only ``exec_large_H`` / ``exec_huge_N`` sections run with
    the full section, and ``sweep_section`` the session-vs-cold sweep
    comparison.
    """
    result = {
        "schema": 6,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "stages": list(STAGES),
    }
    log(f"quick section (H={QUICK_H})")
    result["quick"] = _run_section(QUICK_SIZES, QUICK_H, log)
    log(f"  quick speedup: {result['quick']['speedup']:.2f}x")
    if lcg_section is None:
        lcg_section = not quick_only
    if lcg_section:
        log(f"lcg_full section (full sizes, H in {list(LCG_H_VALUES)})")
        result["lcg_full"] = _run_lcg_section(log)
    if exec_section is None:
        exec_section = not quick_only
    if exec_section:
        log(f"exec section (symbolic vs wide, H={EXEC_H})")
        result["exec"] = _run_exec_section(log)
    if sweep_section is None:
        sweep_section = not quick_only
    if sweep_section:
        log(f"sweep section (one session vs cold analyze per grid point)")
        result["sweep"] = _run_sweep_section(log)
    if not quick_only:
        log(f"full section (H={FULL_H}) — the baseline pass takes minutes")
        result["full"] = _run_section(FULL_SIZES, FULL_H, log)
        log(f"  full speedup: {result['full']['speedup']:.2f}x")
        log(f"exec_large_H section (symbolic only, H in {list(LARGE_H_VALUES)})")
        result["exec_large_H"] = _run_large_H_section(log)
        log("exec_huge_N section (symbolic only)")
        result["exec_huge_N"] = _run_huge_N_section(log)
    return result


def check_regression(
    current: dict, committed: dict, max_regression: float
) -> Optional[str]:
    """Compare a fresh quick run against the committed baseline file.

    Returns an error string on regression, None when within bounds.
    Only the optimized-mode quick totals are compared — they are the
    numbers CI can afford to reproduce — and only the ratio matters, so
    the check is host-independent as long as one host produced both...
    which it did not; hence the generous factor.
    """
    try:
        committed_total = committed["quick"]["optimized"]["total"]
    except KeyError:
        return "committed BENCH_perf.json has no quick/optimized section"
    current_total = current["quick"]["optimized"]["total"]
    if committed_total <= 0:
        return None
    ratio = current_total / committed_total
    if ratio > max_regression:
        return (
            f"perf regression: quick optimized total {current_total:.2f}s "
            f"is {ratio:.2f}x the committed {committed_total:.2f}s "
            f"(allowed {max_regression:.2f}x)"
        )
    return None


def check_lcg_regression(
    current: dict,
    committed: dict,
    max_regression: float,
    min_hit_rate: Optional[float] = None,
    min_cold_speedup: Optional[float] = None,
) -> Optional[str]:
    """Compare the fresh ``lcg_full`` section against the committed file.

    The cold, warm and plan-driven-cold totals are guarded, per H
    value: the cold total protects the sampled-refutation + engine
    speedups, the warm total the analysis cache, the plan-cold total
    the compiled-plan replay path.  With ``min_hit_rate``, the
    *current run's* warm cache-hit rate is also asserted (when the run
    recorded one — schema-2 payloads did not), so a cache silently
    answering nothing can't hide behind a fast host; likewise
    ``min_cold_speedup`` asserts the current run's cold/plan-cold
    ratio — a within-run ratio, so host-independent.
    """
    try:
        committed_per_H = committed["lcg_full"]["per_H"]
    except KeyError:
        return "committed BENCH_perf.json has no lcg_full section"
    try:
        current_per_H = current["lcg_full"]["per_H"]
    except KeyError:
        return "current run has no lcg_full section"
    for H, committed_totals in sorted(committed_per_H.items()):
        current_totals = current_per_H.get(H)
        if current_totals is None:
            return f"current run is missing lcg_full H={H}"
        for key in ("total_cold", "total_warm", "total_cold_plan"):
            committed_value = committed_totals.get(key)
            current_value = current_totals.get(key)
            if not committed_value or current_value is None:
                # schema-4 payloads have no plan-cold totals; the
                # min_cold_speedup floor below still guards the stage.
                continue
            ratio = current_value / committed_value
            if ratio > max_regression:
                return (
                    f"lcg perf regression at H={H}: {key} "
                    f"{current_value:.3f}s is {ratio:.2f}x the "
                    f"committed {committed_value:.3f}s "
                    f"(allowed {max_regression:.2f}x)"
                )
        if min_hit_rate is not None:
            rate = current_totals.get("warm_hit_rate")
            if rate is not None and rate < min_hit_rate:
                return (
                    f"lcg cache regression at H={H}: warm hit rate "
                    f"{rate:.1%} is below the required "
                    f"{min_hit_rate:.1%}"
                )
        if min_cold_speedup is not None:
            speedup = current_totals.get("cold_speedup")
            if speedup is None:
                return (
                    f"lcg plan regression at H={H}: no plan-driven cold "
                    f"build completed (plan rejected or not installed)"
                )
            if speedup < min_cold_speedup:
                return (
                    f"lcg plan regression at H={H}: cold speedup "
                    f"{speedup:.2f}x is below the required "
                    f"{min_cold_speedup:.2f}x"
                )
    return None


def check_exec(current: dict, min_speedup: float) -> Optional[str]:
    """Guard the symbolic tier from the fresh ``exec`` section.

    Two assertions, both host-independent: the symbolic counts (and put
    lists) must be byte-identical to wide enumeration for *every* code,
    and tfft2 — the enumeration-hostile headline — must hold its
    speedup floor on both execution modes.  No committed file needed:
    the ratio is measured within one run on one host.
    """
    try:
        per_code = current["exec"]["per_code"]
    except KeyError:
        return "current run has no exec section"
    for name, rec in sorted(per_code.items()):
        if not rec["counts_equal"]:
            return (
                f"exec tier soundness regression: symbolic counts differ "
                f"from wide enumeration for {name}"
            )
    tfft2 = per_code.get("tfft2")
    if tfft2 is None:
        return "exec section has no tfft2 entry"
    for key in ("speedup_static", "speedup_plan"):
        if tfft2[key] < min_speedup:
            return (
                f"exec perf regression: tfft2 {key} {tfft2[key]:.1f}x is "
                f"below the required {min_speedup:.1f}x"
            )
    return None


def check_sweep(current: dict, min_speedup: float) -> Optional[str]:
    """Guard the session subsystem from the fresh ``sweep`` section.

    Host-independent, no committed file: the grid must hold at least 16
    points, every per-point document must be byte-identical (sha256)
    between the warm-session path and the independent cold path, the
    Pareto front must hold ≥2 genuinely conflicting layouts, and the
    one-session sweep must beat the cold path by ``min_speedup``.
    """
    try:
        section = current["sweep"]
    except KeyError:
        return "current run has no sweep section"
    if section["points"] < 16:
        return (
            f"sweep section covered only {section['points']} grid points; "
            f"the gate requires at least 16"
        )
    if not section["identical"]:
        return (
            "sweep soundness regression: per-point documents differ "
            "between the warm session and independent cold analyze()"
        )
    if section["front_size"] < 2:
        return (
            f"sweep Pareto regression: front has {section['front_size']} "
            f"point(s); the chunk-pin grid must expose >= 2 conflicting "
            f"layouts"
        )
    if section["speedup"] < min_speedup:
        return (
            f"sweep perf regression: one-session sweep is only "
            f"{section['speedup']:.1f}x the cold path "
            f"(required {min_speedup:.1f}x)"
        )
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench-perf",
        description="Stage-level perf harness over the six-code suite.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="only the H=8 small-size section (CI smoke)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the JSON payload to FILE (default: stdout)",
    )
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="compare against a committed BENCH_perf.json; exit 1 on "
        "regression beyond --max-regression",
    )
    parser.add_argument(
        "--check-lcg", default=None, metavar="BASELINE",
        help="run the optimized-only lcg_full section and compare against "
        "a committed BENCH_perf.json; exit 1 on regression beyond "
        "--max-regression",
    )
    parser.add_argument(
        "--max-regression", type=float, default=2.0,
        help="allowed slowdown factor for --check/--check-lcg (default 2.0)",
    )
    parser.add_argument(
        "--min-cache-hit-rate", type=float, default=0.9,
        help="minimum warm edge-cache hit rate asserted by --check-lcg "
        "(default 0.9)",
    )
    parser.add_argument(
        "--min-cold-speedup", type=float, default=5.0,
        help="minimum plan-driven cold-build speedup (plain cold over "
        "plan-cold, within one run) asserted by --check-lcg "
        "(default 5.0; generous vs the ~16x measured)",
    )
    parser.add_argument(
        "--check-exec", action="store_true",
        help="run the symbolic-vs-wide exec section and exit 1 unless "
        "counts are byte-identical on every code and tfft2 holds "
        "--min-exec-speedup on both execution modes",
    )
    parser.add_argument(
        "--min-exec-speedup", type=float, default=20.0,
        help="tfft2 static/plan speedup floor asserted by --check-exec "
        "(default 20.0; generous vs the ~100x measured, for CI hosts)",
    )
    parser.add_argument(
        "--check-sweep", action="store_true",
        help="run the session-sweep section and exit 1 unless the "
        "one-session grid sweep is byte-identical to independent cold "
        "analyze() calls, yields a >=2-point Pareto front, and holds "
        "--min-sweep-speedup",
    )
    parser.add_argument(
        "--min-sweep-speedup", type=float, default=5.0,
        help="speedup floor for the one-session sweep over independent "
        "cold analyze() calls, asserted by --check-sweep (default 5.0)",
    )
    parser.add_argument(
        "--exec-smoke", type=int, default=None, metavar="H",
        help="run only the symbolic-only large-H section at the given H "
        "(CI smoke; wrap in a hard timeout)",
    )
    args = parser.parse_args(argv)

    if args.exec_smoke is not None:
        set_optimizations(True)
        section = _run_large_H_section(
            lambda s: print(s, file=sys.stderr), (args.exec_smoke,)
        )
        payload = json.dumps(
            {"schema": 6, "exec_large_H": section}, indent=2, sort_keys=True
        )
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            print(payload)
        totals = section["per_H"][str(args.exec_smoke)]
        plan_total = totals["total_plan"]
        print(
            f"exec smoke ok: H={args.exec_smoke} static "
            f"{totals['total_static']:.3f}s plan "
            f"{'skipped' if plan_total is None else f'{plan_total:.3f}s'}",
            file=sys.stderr,
        )
        return 0

    committed = None
    committed_lcg = None
    # fail before the (expensive) run, not after it
    if args.check is not None:
        try:
            with open(args.check) as fh:
                committed = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {args.check}: {exc}", file=sys.stderr)
            return 1
    if args.check_lcg is not None:
        try:
            with open(args.check_lcg) as fh:
                committed_lcg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {args.check_lcg}: {exc}", file=sys.stderr)
            return 1

    checking = (
        args.check is not None
        or args.check_lcg is not None
        or args.check_exec
        or args.check_sweep
    )
    result = run_benchmark(
        quick_only=args.quick or checking,
        log=lambda s: print(s, file=sys.stderr),
        lcg_section=True if args.check_lcg is not None else None,
        exec_section=True if args.check_exec else None,
        sweep_section=True if args.check_sweep else None,
    )
    payload = json.dumps(result, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    elif not checking:
        print(payload)

    if committed is not None:
        error = check_regression(result, committed, args.max_regression)
        if error is not None:
            print(error, file=sys.stderr)
            return 1
        print(
            f"perf check ok: quick optimized total "
            f"{result['quick']['optimized']['total']:.2f}s vs committed "
            f"{committed['quick']['optimized']['total']:.2f}s",
            file=sys.stderr,
        )
    if committed_lcg is not None:
        error = check_lcg_regression(
            result,
            committed_lcg,
            args.max_regression,
            min_hit_rate=args.min_cache_hit_rate,
            min_cold_speedup=args.min_cold_speedup,
        )
        if error is not None:
            print(error, file=sys.stderr)
            return 1
        top_H = LCG_H_VALUES[-1]
        totals = result["lcg_full"]["per_H"][str(top_H)]
        rate = totals.get("warm_hit_rate")
        speedup = totals.get("cold_speedup")
        print(
            f"lcg perf check ok: H={top_H} cold "
            f"{totals['total_cold']:.3f}s warm {totals['total_warm']:.3f}s "
            f"plan-cold x"
            f"{'n/a' if speedup is None else f'{speedup:.1f}'} "
            f"hit-rate {'n/a' if rate is None else f'{rate:.0%}'}",
            file=sys.stderr,
        )
    if args.check_exec:
        error = check_exec(result, args.min_exec_speedup)
        if error is not None:
            print(error, file=sys.stderr)
            return 1
        tfft2 = result["exec"]["per_code"]["tfft2"]
        print(
            f"exec check ok: tfft2 static {tfft2['speedup_static']:.1f}x "
            f"plan {tfft2['speedup_plan']:.1f}x, counts byte-identical "
            f"on all codes",
            file=sys.stderr,
        )
    if args.check_sweep:
        error = check_sweep(result, args.min_sweep_speedup)
        if error is not None:
            print(error, file=sys.stderr)
            return 1
        sweep = result["sweep"]
        print(
            f"sweep check ok: {sweep['points']} points {sweep['speedup']:.1f}x "
            f"over cold, byte-identical, Pareto front of "
            f"{sweep['front_size']}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
