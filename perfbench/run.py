"""Repository benchmark: one command, four workloads, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload corpus_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload corpus_cold --seed 1 --seconds 15 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it (``# detail ...``) carries the failure classes,
percentile sample counts, host calibration time and work counters.

This process never imports the program.  Every measured run happens in
a fresh child interpreter (``--role run``); set-up time is sampled from
``SETUP_SAMPLES`` fresh children in all and reported as their median.
A traced run starts an untraced child and a traced child with the same
seed and reports the ratio of their op times as the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("corpus_cold", "exec_large", "serve_mixed", "sweep_whatif")

#: Set-up is measured in this many fresh processes per run; the median
#: is reported, because one interpreter start is at the mercy of the
#: page cache and the scheduler.
SETUP_SAMPLES = 3

#: Wall-clock budget of a whole run, children included; a child still
#: running at the deadline is killed and the run fails.
RUN_BUDGET_S = 170

#: Per-layer times are span self times; the rest are program counters,
#: /metrics deltas or client-side splits the workloads compute.  A layer
#: a workload does not exercise reads 0.  Names and units come from
#: BENCHMARK.json, the one place they are declared.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _DECLARED = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def counter_layers(counters: dict) -> dict:
    """Per-layer values derived from the program's own obs counters."""
    c = counters.get
    edge_lookups = c("analysis_cache.edge_lookups", 0)
    intra_lookups = c("analysis_cache.intra_lookups", 0)
    prover = (
        c("prover.cache_hits", 0) + c("prover.proved", 0)
        + c("prover.disproved", 0) + c("prover.fallback", 0)
    )
    compiled, reused = c("compile.compiled", 0), c("compile.reused", 0)
    return {
        "locality.edge_cache_hit_ratio": _ratio(
            c("analysis_cache.edge_hits", 0), edge_lookups
        ),
        "locality.intra_cache_hit_ratio": _ratio(
            c("analysis_cache.intra_hits", 0), intra_lookups
        ),
        "locality.edges_computed": c("engine.computed", 0),
        "symbolic.prover_queries": prover,
        "symbolic.prover_cache_hit_ratio": _ratio(
            c("prover.cache_hits", 0), prover
        ),
        "symbolic.prover_fallbacks": c("prover.fallback", 0),
        "symbolic.refute_refuted": c("refute.refuted", 0),
        "symbolic.compile_reuse_ratio": _ratio(reused, compiled + reused),
        "distribution.ilp_candidates": c("ilp.candidates", 0),
        "dsm.local_accesses": c("dsm.local", 0),
        "dsm.remote_accesses": c("dsm.remote", 0),
        "dsm.put_messages": c("dsm.comm.messages", 0),
        "dsm.put_bytes": c("dsm.comm.bytes", 0),
        "dsm.tier_wide_calls": c("dsm.fast_path.wide", 0),
        "dsm.tier_symbolic_calls": c("dsm.fast_path.symbolic", 0),
        "dsm.symbolic_fallbacks": sum(
            v for k, v in counters.items()
            if k.startswith("dsm.symbolic.fallback")
        ),
    }


def spawn(args, role: str, trace: int) -> tuple:
    """One fresh child; returns (setup seconds, result dict or None)."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    # A session of its own, so a kill also reaches a server it started.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    killer = threading.Timer(max(0.0, args.deadline - t0), kill)
    killer.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY "):
                setup_s = time.perf_counter() - t0 - float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
    if proc.returncode != 0 or setup_s is None:
        raise RuntimeError(
            f"{role} child for {args.workload} exited {proc.returncode}"
        )
    if role == "run" and result is None:
        raise RuntimeError(f"run child for {args.workload} printed no result")
    return setup_s, result


def measure(args) -> dict:
    if args.trace:
        _, base = spawn(args, "run", 0)
        _, traced = spawn(args, "run", 1)
        layers = dict(counter_layers(traced["counters"]))
        layers.update(traced["layers"])
        layers["obs.trace_overhead_ratio"] = (
            traced["op_time_s"] / base["op_time_s"]
        )
        layers["error_rate"] = traced["error_rate"]
        layers["host.calibration_s"] = traced["calibration_s"]
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
        detail = dict(
            traced,
            untraced_op_time_s=base["op_time_s"],
            untraced_work=base["work"],
        )
        detail["correct"] = traced["correct"] and base["correct"]
    else:
        setup_samples = []
        s, detail = spawn(args, "run", 0)
        setup_samples.append(s)
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(spawn(args, "setup", 0)[0])
        values = dict(detail, setup_s=statistics.median(setup_samples))
        detail["setup_samples_s"] = setup_samples
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return {
        "correct": bool(detail["correct"]),
        "attempted": int(detail["attempted"]),
        "failed": int(detail["failed"]),
        "metrics": metrics,
        "detail": detail,
    }


def child_main(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from harness import run_child

    module = importlib.import_module(args.workload)
    trace_path = os.path.join(
        HERE, "traces", f"{args.workload}-seed{args.seed}.json"
    )
    return run_child(
        module.Workload, args.seed, args.seconds, bool(args.trace),
        args.role == "setup", trace_path,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--role", choices=("parent", "run", "setup"), default="parent",
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.role != "parent":
        return child_main(args)
    args.deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        out = measure(args)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    detail = out.pop("detail")
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
