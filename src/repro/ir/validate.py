"""Static program validation — the front end's semantic lint pass.

Checks, with the same sound symbolic machinery the analysis uses:

* **bounds**: every subscript provably stays inside ``[0, size)`` over
  the whole iteration space (via monotone bound elimination);
* **non-emptiness**: every loop provably executes at least once
  (``lower <= upper``); a provably empty loop is only a warning, since
  the analysis handles zero-trip loops soundly, and the references
  under it are exempt from the bounds check because they never run;
* **structure**: exactly one parallel loop per phase (enforced by the
  IR) and at least one reference per phase;
* **parameters**: every free symbol of every bound/subscript is a
  declared parameter or an enclosing loop index.

Failures are *diagnostics*, not exceptions: incomplete symbolic
knowledge yields ``warning`` severity ("could not prove"), a definite
violation yields ``error``, except an empty loop (see above).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Set

from ..symbolic import Context, Expr
from .core import Phase, Program

__all__ = ["Diagnostic", "validate_phase", "validate_program"]


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    phase: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.phase}: {self.subject}: {self.message}"


def _check_bounds(
    phase: Phase, ctx: Context, diags: List[Diagnostic], empty: Set[int]
) -> None:
    phase_ctx = phase.loop_context(ctx)
    for acc in phase.accesses():
        if any(id(loop) in empty for loop in acc.loops):
            continue  # never executes: no subscript is ever evaluated
        sub = acc.ref.subscript
        size = acc.ref.array.size
        label = str(acc.ref)
        lo = phase_ctx.lower_bound(sub)
        hi = phase_ctx.upper_bound(sub)
        if lo is None or hi is None:
            diags.append(
                Diagnostic(
                    "warning", phase.name, label,
                    "cannot bound the subscript over the iteration space",
                )
            )
            continue
        if phase_ctx.is_nonneg(lo):
            pass
        elif phase_ctx.is_positive(-lo):
            diags.append(
                Diagnostic(
                    "error", phase.name, label,
                    f"subscript reaches {lo} below the array base",
                )
            )
        else:
            diags.append(
                Diagnostic(
                    "warning", phase.name, label,
                    f"cannot prove lower bound {lo} >= 0",
                )
            )
        excess = hi - (size - 1)
        if phase_ctx.is_nonneg(-excess):
            pass
        elif phase_ctx.is_positive(excess):
            diags.append(
                Diagnostic(
                    "error", phase.name, label,
                    f"subscript reaches {hi}, past the last element "
                    f"{size - 1}",
                )
            )
        else:
            diags.append(
                Diagnostic(
                    "warning", phase.name, label,
                    f"cannot prove upper bound {hi} < {size}",
                )
            )


def _check_loops(
    phase: Phase, ctx: Context, diags: List[Diagnostic]
) -> Set[int]:
    """Flag loops that may not run; return ``id``s of the provably empty."""
    phase_ctx = phase.loop_context(ctx)
    empty: Set[int] = set()
    for loop in phase.all_loops():
        slack = loop.upper - loop.lower
        if phase_ctx.is_nonneg(slack):
            continue
        if phase_ctx.is_positive(-slack):
            empty.add(id(loop))
            diags.append(
                Diagnostic(
                    "warning", phase.name, f"loop {loop.index}",
                    f"empty range: upper {loop.upper} < lower {loop.lower}",
                )
            )
        else:
            diags.append(
                Diagnostic(
                    "warning", phase.name, f"loop {loop.index}",
                    "cannot prove the loop executes at least once",
                )
            )
    return empty


def _check_symbols(
    phase: Phase, program: Program, diags: List[Diagnostic]
) -> None:
    known = set(program.parameters)
    known |= {lv.name for lv in ()}  # placeholder for future globals
    indices = {loop.index.name for loop in phase.all_loops()}
    for acc in phase.accesses():
        free = {s.name for s in acc.ref.subscript.free_symbols()}
        unknown = free - known - indices
        # symbols implied by pow2 facts (exponents) are declared too
        unknown -= set(program.context.pow2.keys())
        unknown -= {e.name for e in program.context.pow2.values()}
        if unknown:
            diags.append(
                Diagnostic(
                    "error", phase.name, str(acc.ref),
                    f"undeclared symbols in subscript: {sorted(unknown)}",
                )
            )


def validate_phase(phase: Phase, program: Program) -> List[Diagnostic]:
    """All diagnostics for one phase."""
    diags: List[Diagnostic] = []
    if not phase.accesses():
        diags.append(
            Diagnostic("warning", phase.name, "phase",
                       "phase contains no array references")
        )
        return diags
    if phase.parallel_loop is None:
        diags.append(
            Diagnostic("warning", phase.name, "phase",
                       "phase has no parallel loop (sequential phase)")
        )
    _check_symbols(phase, program, diags)
    empty = _check_loops(phase, program.context, diags)
    _check_bounds(phase, program.context, diags, empty)
    return diags


def validate_program(program: Program) -> List[Diagnostic]:
    """All diagnostics for every phase of a program."""
    diags: List[Diagnostic] = []
    if not program.phases:
        diags.append(
            Diagnostic("error", "<program>", "program", "no phases")
        )
    for phase in program.phases:
        diags.extend(validate_phase(phase, program))
    return diags
