"""corpus_cold: in-process batch analysis of programs never seen before.

Each op takes one generated program through ``parse_and_lower``, then
``analyze`` with execution on, then ``dumps_canonical(to_document())``.
First-seen programs put most op time in ``locality.build_lcg``
(descriptors, iteration descriptors, the symbolic prover), so this is
where memo-bank and prover changes show.

The pool is fixed: the fuzz seeds congruent to 1 mod 8 below
``100 * seconds`` (188 programs at 15 s).  Every run analyses the whole
pool, so every run does the same work; ``--seed`` sets the order, which
decides which memo entries each program finds warm.  Residue 1 is the
class that holds the baseline failures 241, 529 and 1393, so
``success_rate`` counts them: ValueErrors from ``symbolic/linear.py``
and a ZeroDivisionError from ``distribution/ilp.py``.  They are
reported, never filtered.  About one program in ten is heavy (0.4 s to
3 s); with 188 programs the tail percentile falls among the heavy ones,
not on the gap between them and the light ones.

Set-up analyses the 17 bundled codes once at H=16 so the run measures
cold programs on a process whose imports and shared memos are live.
The verify pass sends every ``VERIFY_EVERY``-th program of the run
through the descriptor and LCG oracles of ``repro.check``, which
compare against the brute-force interpreter.
"""

from __future__ import annotations

import hashlib
import random

from repro import AnalysisOptions, analyze
from repro.check.descriptor_oracle import check_descriptors
from repro.check.lcg_oracle import check_lcg
from repro.codes import ALL_CODES, scaled_env
from repro.document import dumps_canonical
from repro.fuzz import generate
from repro.ir.parser import parse_and_lower

from harness import BaseWorkload, add_counters, wrap_pipeline

H = 8
POOL_STRIDE = 8
POOL_RESIDUE = 1
VERIFY_EVERY = 16


class Workload(BaseWorkload):
    def prepare(self):
        seeds = list(range(POOL_RESIDUE, 100 * self.seconds, POOL_STRIDE))
        random.Random(self.seed).shuffle(seeds)
        self.programs = [generate(s) for s in seeds]
        self.checked = []  # (generated, program, result) to verify

    def setup(self):
        self.options = AnalysisOptions(metrics=self.tracer is not None)
        for name, (build, env, back) in ALL_CODES.items():
            analyze(build(), scaled_env(name, env, 16), 16,
                    back_edges=back or None)
        if self.tracer is not None:
            wrap_pipeline(self.tracer)

    def ops(self):
        for index, gen in enumerate(self.programs):
            yield "program", (lambda i=index, g=gen: self._op(i, g))

    def _op(self, index, gen):
        with self.span("ir.parse"):
            program = parse_and_lower(gen.source)
        with self.span("analyze"):
            result = analyze(program, gen.env, H, options=self.options)
        with self.span("document.serialize"):
            doc = result.to_document()
            doc["metrics"] = None
            text = dumps_canonical(doc)
        if result.metrics is not None:
            add_counters(self.counters, result.metrics["counters"])
        if index % VERIFY_EVERY == 0:
            self.checked.append((gen, program, result))
        return f"{gen.seed}:{hashlib.sha256(text.encode()).hexdigest()}"

    def verify(self):
        mismatches = []
        for gen, program, result in self.checked:
            for report in (
                check_descriptors(program, gen.env),
                check_lcg(program, gen.env, H, result=result),
            ):
                mismatches.extend(
                    f"seed {gen.seed}: {m}" for m in report.mismatches
                )
        self.work["verified_programs"] = len(self.checked)
        return mismatches


