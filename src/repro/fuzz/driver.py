"""Fuzz driver — random programs through the differential oracles.

For each seed the driver generates a program, parses the rendered
source back through the real front end, and pushes it through the same
oracles CI runs on the benchmark suite, at every requested machine
size:

* ``check_descriptors`` — PD/ID enumeration vs interpreter truth,
* ``check_lcg`` — Table 1 label re-derivation plus L/C traffic promises
  under execution,
* ``check_exec_tier`` — symbolic closed-form accounting vs wide
  enumeration,
* ``check_session`` (sampled — it is the slowest oracle) — incremental
  session documents vs cold analyses.

Outcomes are classified per case: ``pass`` (all clean, no notes),
``fallback`` (clean, but a *documented* degradation fired — e.g. a
non-self-contained PD fell back to interpreter enumeration),
``mismatch`` (an oracle disagreed: a soundness bug), ``error`` (a stage
raised — also a bug, in the engine or the generator).  Mismatching and
erroring cases are minimised with :func:`repro.fuzz.shrink.shrink`
before being reported, so the JSON artifact of a nightly run carries
committable repros, not raw noise.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .generator import GeneratedProgram, generate, render_fixture
from .shrink import shrink

__all__ = ["CaseOutcome", "FuzzReport", "run_case", "run_fuzz"]

DEFAULT_H = (16, 64)

#: Every Nth seed additionally runs the session oracle (slow: it
#: drives edits and a sweep through a live Session per case).
SESSION_SAMPLE = 10

#: Note substrings that mark a *documented degradation* — a sound
#: conservative path the engine took because the descriptor algebra
#: does not cover the shape.  Purely informational notes (fast-path
#: usage counters and the like) do not demote a case from "pass".
FALLBACK_MARKERS = (
    "fallback",
    "non-self-contained",
    "inapplicable",
    "taken as covering",
)


@dataclass
class CaseOutcome:
    """One seed's classification with the evidence that produced it."""

    seed: int
    name: str
    status: str  # "pass" | "fallback" | "mismatch" | "error"
    notes: list = field(default_factory=list)  # documented fallbacks
    mismatches: list = field(default_factory=list)  # rendered oracle hits
    error: Optional[str] = None  # traceback tail for status == "error"
    minimized: Optional[str] = None  # shrunk fixture for failing cases

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "name": self.name,
            "status": self.status,
            "notes": list(self.notes),
            "mismatches": list(self.mismatches),
            "error": self.error,
            "minimized": self.minimized,
        }


@dataclass
class FuzzReport:
    """Aggregate of one fuzz run, JSON-able for the CI artifact."""

    H_values: tuple
    cases: list = field(default_factory=list)

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fallback": 0, "mismatch": 0, "error": 0}
        for case in self.cases:
            out[case.status] += 1
        return out

    @property
    def ok(self) -> bool:
        counts = self.counts
        return counts["mismatch"] == 0 and counts["error"] == 0

    def failing(self) -> list:
        return [c for c in self.cases if c.status in ("mismatch", "error")]

    def to_json(self) -> dict:
        return {
            "H": list(self.H_values),
            "counts": self.counts,
            "ok": self.ok,
            "cases": [c.to_json() for c in self.cases],
        }

    def render(self) -> str:
        counts = self.counts
        lines = [
            f"fuzz: {len(self.cases)} cases at H={list(self.H_values)} — "
            f"{counts['pass']} pass, {counts['fallback']} fallback, "
            f"{counts['mismatch']} mismatch, {counts['error']} error"
        ]
        for case in self.failing():
            lines.append(f"  seed {case.seed} [{case.status}]")
            for m in case.mismatches[:4]:
                lines.append(f"    {m}")
            if case.error:
                lines.append(f"    {case.error}")
            if case.minimized:
                lines.append("    minimized repro:")
                lines.extend(
                    f"      {src_line}"
                    for src_line in case.minimized.splitlines()
                )
        return "\n".join(lines)


def _probe(prog: GeneratedProgram, H_values: Sequence[int], *, session: bool):
    """Run one generated program through every oracle.

    Returns ``(notes, mismatches)``; raises when a stage itself blows
    up (classified as ``error`` by the caller).
    """
    from .. import analyze
    from ..check.descriptor_oracle import check_descriptors
    from ..check.exec_oracle import check_exec_tier
    from ..check.lcg_oracle import check_lcg
    from ..check.session_oracle import check_session
    from ..ir.parser import parse_and_lower

    program = parse_and_lower(prog.source)
    notes: list = []
    mismatches: list = []

    def collect(report, H):
        notes.extend(f"H={H} {n}" for n in report.notes)
        mismatches.extend(
            f"H={H} {m.kind} {m.phase}/{m.array}: {m.detail}"
            for m in report.mismatches
        )

    desc = check_descriptors(program, prog.env, program_name=prog.name)
    collect(desc, "*")

    for H in H_values:
        result = analyze(program, env=prog.env, H=H)
        collect(
            check_lcg(
                program, prog.env, H, program_name=prog.name, result=result
            ),
            H,
        )
        collect(
            check_exec_tier(
                program, prog.env, H, program_name=prog.name, result=result
            ),
            H,
        )
        if session:
            collect(
                check_session(program, prog.env, H, program_name=prog.name),
                H,
            )
    return notes, mismatches


def run_case(
    seed: int,
    H_values: Sequence[int] = DEFAULT_H,
    *,
    session: Optional[bool] = None,
    shrink_failures: bool = True,
) -> CaseOutcome:
    """Generate, oracle-check and classify one seed."""
    prog = generate(seed)
    if session is None:
        session = seed % SESSION_SAMPLE == 0
    outcome = _classify(prog, H_values, session=session)
    if outcome.status in ("mismatch", "error") and shrink_failures:
        outcome.minimized = render_fixture(
            shrink(prog, _failing_predicate(H_values, session=session))
        )
    return outcome


def _classify(
    prog: GeneratedProgram, H_values: Sequence[int], *, session: bool
) -> CaseOutcome:
    try:
        notes, mismatches = _probe(prog, H_values, session=session)
    except Exception:
        tail = traceback.format_exc().strip().splitlines()[-1]
        return CaseOutcome(
            seed=prog.seed, name=prog.name, status="error", error=tail
        )
    if mismatches:
        status = "mismatch"
    elif any(m in n for n in notes for m in FALLBACK_MARKERS):
        status = "fallback"
    else:
        status = "pass"
    return CaseOutcome(
        seed=prog.seed,
        name=prog.name,
        status=status,
        notes=notes,
        mismatches=mismatches,
    )


def _failing_predicate(
    H_values: Sequence[int], *, session: bool
) -> Callable[[GeneratedProgram], bool]:
    def failing(candidate: GeneratedProgram) -> bool:
        try:
            _, mismatches = _probe(candidate, H_values, session=session)
        except Exception:
            return True
        return bool(mismatches)

    return failing


def run_fuzz(
    seeds: Sequence[int],
    H_values: Sequence[int] = DEFAULT_H,
    *,
    shrink_failures: bool = True,
    progress: Optional[Callable[[CaseOutcome], None]] = None,
) -> FuzzReport:
    """Sweep ``seeds`` through the oracles; return the aggregate report."""
    report = FuzzReport(H_values=tuple(H_values))
    for seed in seeds:
        outcome = run_case(
            seed, H_values, shrink_failures=shrink_failures
        )
        report.cases.append(outcome)
        if progress is not None:
            progress(outcome)
    return report
