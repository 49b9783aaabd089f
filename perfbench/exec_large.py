"""exec_large: the DSM simulator on a big machine (H=128).

Set-up builds the 17 bundled codes with ``scaled_env`` at H=128 and
runs one untimed warm-up cycle of ``analyze``, which fills the analysis
memos.  Each timed op is then a warm ``analyze`` of one code, whose
time is almost all ``execute_with_plan``; adi and tfft2 dominate, and
the wide tier materialises address arrays, so peak RSS matters here.
The DSM tier collapse shows on this workload and on no other.

A run is ``cycles`` passes over the 17 codes, each pass in an order
drawn from ``--seed``; every run does the same work.  At 15 s there are
8 cycles (136 ops), so the median and the tail each fall inside one
code's block of samples (the tail mid-way through tfft2's).

The verify pass re-executes every code's last plan under
``fast_path="symbolic"``: per-phase local/remote/iteration counts and
put lists must equal those of the timed op, which ran the default
``"wide"`` tier; the two are independent implementations.  This is the
comparison ``repro.check.exec_oracle`` makes, without its extra wide
and static executions, which would double the run's length.
"""

from __future__ import annotations

import random

import numpy as np

from repro import AnalysisOptions, analyze
from repro.codes import ALL_CODES, scaled_env
from repro.dsm import execute_with_plan

from harness import BaseWorkload, add_counters, wrap_pipeline

H = 128
#: Seconds one warm cycle over the 17 codes takes on the reference
#: host (2 cores); sizes the run from ``--seconds``.
CYCLE_S = 1.9


class Workload(BaseWorkload):
    def prepare(self):
        rng = random.Random(self.seed)
        cycles = max(1, round(self.seconds / CYCLE_S))
        names = list(ALL_CODES)
        self.order = []
        for _ in range(cycles):
            rng.shuffle(names)
            self.order.extend(names)
        self.work["cycles"] = cycles

    def setup(self):
        self.codes = {}
        for name, (build, env, back) in ALL_CODES.items():
            self.codes[name] = (build(), scaled_env(name, env, H), back)
        self.options = AnalysisOptions(metrics=self.tracer is not None)
        self.last = {}
        for name in ALL_CODES:
            self._analyze(name)
        if self.tracer is not None:
            wrap_pipeline(self.tracer)

    def _analyze(self, name):
        program, env, back = self.codes[name]
        result = analyze(
            program, env, H, back_edges=back or None, options=self.options
        )
        self.last[name] = result
        return result

    def ops(self):
        for name in self.order:
            yield name, (lambda n=name: self._op(n))

    def _op(self, name):
        with self.span("analyze"):
            result = self._analyze(name)
        if result.metrics is not None:
            add_counters(self.counters, result.metrics["counters"])
        report = result.report
        return (
            f"{name}:{report.total_local}:{report.total_remote}:"
            f"{report.comm_volume}:{report.comm_messages}"
        )

    def verify(self):
        mismatches = []
        for name, result in sorted(self.last.items()):
            program, env, _ = self.codes[name]
            symbolic = execute_with_plan(
                program, result.lcg, result.plan, env, H,
                fast_path="symbolic",
            )
            mismatches.extend(
                f"{name}: {m}"
                for m in tier_differences(result.report, symbolic)
            )
        return mismatches


def tier_differences(wide, symbolic) -> list:
    """Where two executions of one plan disagree (empty when identical)."""
    out = []
    if len(wide.phases) != len(symbolic.phases):
        out.append("phase counts differ")
    for a, b in zip(wide.phases, symbolic.phases):
        for field in ("local", "remote", "iterations"):
            if not np.array_equal(getattr(a, field), getattr(b, field)):
                out.append(f"phase {a.phase}: {field} counts differ")
    plans = [
        [(c.array, c.edge, c.pattern, c.puts) for c in report.comms]
        for report in (wide, symbolic)
    ]
    if plans[0] != plans[1]:
        out.append("put lists differ")
    return out
