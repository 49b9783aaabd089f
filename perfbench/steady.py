"""Steadiness checks for the benchmark; run from the repository root.

Spread across seeds, as the acceptance rule computes it::

    python3 perfbench/steady.py spread --workload serve_mixed --seeds 1-10

runs ``run.py --trace 0`` once per seed and prints, per end-to-end
metric, the median and the distance between the first and third
quartiles as a share of the median, beside the bound in
``BENCHMARK.json`` and a third of it (the target).

Same work on every run of one seed::

    python3 perfbench/steady.py same --workload corpus_cold --seed 7 --runs 2

runs ``run.py --trace 1`` ``--runs`` times with one seed and fails
unless the work counters of the untraced and traced children and the
program's counter totals are identical across the runs.  The host
calibration time of each run is printed beside them: work that repeats
while times move is host drift, not a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        raise SystemExit(f"seed {seed} failed:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("# detail "):])
    return json.loads(lines[-1]), detail


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values: dict = {}
    for seed in parse_seeds(args.seeds):
        result, detail = run(args.workload, seed, args.seconds, 0)
        print(
            f"seed {seed}: correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']} "
            f"calibration={detail['calibration_s']:.3f}s "
            + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ),
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    worst = 0.0
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        share = (q3 - q1) / med if med else 0.0
        if name != "setup_s":
            worst = max(worst, share / bounds[name])
        print(
            f"{name:18s} median={med:.4g} iqr/median={share:.3f} "
            f"bound={bounds[name]} target<{bounds[name] / 3:.3f}"
        )
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")
    return 0 if worst <= 1.0 else 1


def same(args) -> int:
    runs = []
    for i in range(args.runs):
        _, detail = run(args.workload, args.seed, args.seconds, 1)
        runs.append(detail)
        print(
            f"run {i}: calibration={detail['calibration_s']:.3f}s "
            f"op_time={detail['op_time_s']:.3f}s "
            f"digest={detail['work']['digest'][:12]}",
            flush=True,
        )
    ok = True
    first = runs[0]
    for key in ("work", "untraced_work", "counters"):
        for i, other in enumerate(runs[1:], 1):
            if other[key] != first[key]:
                ok = False
                diff = sorted(
                    k for k in set(first[key]) | set(other[key])
                    if first[key].get(k) != other[key].get(k)
                )
                print(f"run {i} {key} differs from run 0 in: {diff}")
    if first["work"] != first["untraced_work"]:
        ok = False
        print("traced and untraced children did different work")
    print("identical work on every run" if ok else "WORK DIFFERS")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("--workload", required=True)
    p_spread.add_argument("--seeds", default="1-10")
    p_spread.add_argument("--seconds", type=int, default=15)
    p_same = sub.add_parser("same")
    p_same.add_argument("--workload", required=True)
    p_same.add_argument("--seed", type=int, default=7)
    p_same.add_argument("--runs", type=int, default=2)
    p_same.add_argument("--seconds", type=int, default=15)
    args = parser.parse_args(argv)
    return spread(args) if args.cmd == "spread" else same(args)


if __name__ == "__main__":
    sys.exit(main())
