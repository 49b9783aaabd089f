"""Compiled analysis plans — lower a parsed program once, replay fast.

A cold ``analyze`` call spends almost all of its time in three places:
the per-edge structural fingerprints, the ``is_nonneg`` proof searches,
and the expression→kernel compilation feeding the sampled-refutation
banks.  All three are pure functions of the program structure, the
assumption context and the concrete ``(env, H, back_edges)`` binding —
so their results can be *compiled once* into an :class:`AnalysisPlan`
and replayed by any later process analysing the same program:

* **edge work items** — the LCG work list's fingerprints, pre-deduped
  and stored in enumeration order, so a plan-driven build skips the
  per-edge fingerprint recomputation entirely (a spot-check guards
  against structural drift);
* **intra-phase verdicts** — Theorem-1 results keyed by
  ``phase_array_fingerprint``, seeded straight into the analysis cache;
* **nonneg verdicts** — every ``is_nonneg`` query the build issued,
  captured through the :data:`repro.symbolic.context._NONNEG_RECORD`
  hook (hits included, so a warm recording process still captures full
  coverage).  At install time the *False* verdicts are re-checked in
  one vectorised refutation sweep over the context's sample bank — a
  recorded ``True`` that the bank refutes marks the plan corrupt and
  the install degrades to a cold build rather than seed a wrong answer;
* **compiled kernels** — the ``(expr, names)`` compile-memo delta, so
  the replaying process rebuilds its kernel table up front.

Soundness: every seeded table is keyed structurally (context
fingerprint + expression key), the prover is deterministic, and the
bundle is version-guarded (:mod:`repro.plan.cache`), so installing a
plan reproduces the direct path byte-for-byte — the property tests in
``tests/plan`` compare full response documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..descriptors.fingerprint import (
    edge_fingerprint,
    phase_array_fingerprint,
    program_fingerprint,
)

__all__ = [
    "AnalysisPlan",
    "PlanRecorder",
    "install_plan",
    "plan_key",
]


def _canonical_back_edges(back_edges) -> tuple:
    """``back_edges`` as a canonical tuple — order preserved.

    The back-edge list is part of the plan binding because it extends
    the LCG edge work list: two same-length lists in different orders
    enumerate edges in different positions, and a plan's pre-computed
    fingerprints are positional.  ``None`` and ``[]`` canonicalize to
    the same empty tuple.
    """
    return tuple((str(u), str(v)) for u, v in (back_edges or ()))


def _binding(
    env: Optional[Mapping[str, int]], H_value, back_edges=None
) -> tuple:
    return (
        tuple(sorted((k, int(v)) for k, v in (env or {}).items())),
        H_value,
        _canonical_back_edges(back_edges),
    )


def plan_key(
    program,
    env: Optional[Mapping[str, int]],
    H_value,
    back_edges: Optional[list] = None,
) -> tuple:
    """Cache key of a plan: program structure plus concrete binding.

    The binding covers ``env``, ``H`` *and* ``back_edges`` — the LCG
    work list (and therefore every positional edge fingerprint a plan
    carries) depends on all three.
    """
    return (
        program_fingerprint(program),
        _binding(env, H_value, back_edges),
    )


@dataclass
class AnalysisPlan:
    """One program's analysis, lowered for replay under one binding."""

    program_fp: tuple
    binding: tuple
    edge_fps: tuple = ()
    intra: dict = field(default_factory=dict)  # pa_fp -> IntraPhaseResult
    nonneg: list = field(default_factory=list)  # (ctx_fp, expr, verdict)
    ctxs: dict = field(default_factory=dict)  # ctx_fp -> stripped Context
    compiled: tuple = ()  # (expr, names) compile-memo delta

    @property
    def key(self) -> tuple:
        return (self.program_fp, self.binding)

    def edge_fps_for(self, work, ctx, H, env, H_value) -> Optional[list]:
        """The pre-computed edge fingerprints for ``work``, or None.

        ``None`` means the plan does not match the work list (length
        drift, or a spot-checked fingerprint disagrees with a fresh
        computation) and the caller must fall back to computing
        fingerprints directly — never a wrong key.  Both ends of the
        list are probed: back-edge items are appended at the tail, so
        the last item catches back-edge drift the first cannot (the
        primary guard is that ``back_edges`` is part of the plan key).
        """
        if len(work) != len(self.edge_fps):
            return None
        for probe in {0, len(work) - 1} if work else ():
            ph_k, ph_g, array = work[probe]
            fresh = edge_fingerprint(
                ph_k, ph_g, array, ctx, H, env=env, H_value=H_value
            )
            if fresh != self.edge_fps[probe]:
                return None
        return list(self.edge_fps)


class PlanRecorder:
    """Capture one build's prover/compile activity into a plan.

    Arms a per-recorder hook on ``_NONNEG_RECORD`` (a copy-on-write
    tuple, see :func:`repro.symbolic.context._add_nonneg_record`) for
    the duration of the build, so any number of concurrent builds — one
    per in-flight server request — each record their own plan instead
    of the first one winning.  Recording is append-only and GIL-atomic;
    queries issued by unrelated threads while armed are harmless
    over-capture, since every record is structurally keyed and sound
    wherever it came from.
    """

    def __init__(self):
        from ..symbolic import compile as _compile
        from ..symbolic import context as _context

        self.nonneg: list = []
        self.ctxs: dict = {}
        self._compile_before = set(_compile._COMPILED.snapshot())
        # One stable bound-method object: add/remove match hooks by
        # identity, and ``self._record`` rebinds on every access.
        self._hook = self._record
        self.active = True
        _context._add_nonneg_record(self._hook)

    def _record(self, ctx, ctx_fp, expr, verdict) -> None:
        self.nonneg.append((ctx_fp, expr, bool(verdict)))
        if ctx_fp not in self.ctxs:
            self.ctxs[ctx_fp] = ctx.portable()

    def abandon(self) -> None:
        """Disarm without producing a plan (build failed mid-flight)."""
        from ..symbolic import context as _context

        if self.active:
            _context._remove_nonneg_record(self._hook)
            self.active = False

    def finish(
        self,
        program,
        env: Optional[Mapping[str, int]] = None,
        H=None,
        H_value=None,
        back_edges: Optional[list] = None,
        cache=None,
    ) -> Optional["AnalysisPlan"]:
        """Disarm and assemble the plan; None when already disarmed.

        ``cache`` is the :class:`AnalysisCache` (or build_lcg-style
        toggle) the recorded build actually ran against — the Theorem-1
        verdicts are read from there, not from the process-global cache,
        so a build against a caller-supplied or path-loaded cache
        records a full intra table.
        """
        from ..locality.engine import _resolve_cache
        from ..locality.lcg import edge_work_items
        from ..symbolic import compile as _compile
        from ..symbolic import context as _context
        from ..symbolic import sym

        if not self.active:
            return None
        _context._remove_nonneg_record(self._hook)
        self.active = False

        ctx = program.context
        H = H if H is not None else sym("H")
        work = edge_work_items(program, back_edges)
        edge_fps = tuple(
            edge_fingerprint(
                ph_k, ph_g, array, ctx, H, env=env, H_value=H_value
            )
            for ph_k, ph_g, array in work
        )

        intra: dict = {}
        acache = _resolve_cache(cache)
        if acache is not None:
            for phase in program.phases:
                for array in sorted(phase.arrays(), key=lambda a: a.name):
                    fp = phase_array_fingerprint(phase, array, ctx)
                    hit = acache.intra.get(fp)
                    if hit is not None:
                        intra[fp] = hit

        compiled = tuple(
            key
            for key in _compile._COMPILED.snapshot()
            if key not in self._compile_before
        )

        return AnalysisPlan(
            program_fp=program_fingerprint(program),
            binding=_binding(env, H_value, back_edges),
            edge_fps=edge_fps,
            intra=intra,
            nonneg=list(self.nonneg),
            ctxs=dict(self.ctxs),
            compiled=compiled,
        )


def install_plan(plan: AnalysisPlan, obs=None, cache=None) -> bool:
    """Seed the process's memo tables from a plan; False = degrade cold.

    Install order mirrors the cold path's dependency order: kernels
    first (the refutation sweep evaluates through them), then the
    batched nonneg verdicts — cross-checked against the context's
    sample bank in one vectorised sweep before anything is seeded —
    then the Theorem-1 verdicts into the analysis cache (``cache`` is
    the cache the replaying build will run against; default is the
    process-global one).  Any integrity failure (a recorded proof the
    bank refutes) rejects the *whole* plan: a fresh cold build is
    always correct, a partially trusted plan is not auditable.
    """
    from ..locality.engine import _resolve_cache
    from ..symbolic import context as _context
    from ..symbolic.compile import UncompilableExpr, compile_expr
    from ..symbolic.refute import _bank_for

    for expr, names in plan.compiled:
        try:
            compile_expr(expr, names)
        except UncompilableExpr:
            if obs is not None:
                obs.count("plan.compile_failed")

    # One refutation sweep per context: every recorded verdict is
    # evaluated over the bank's sample columns in a single vectorised
    # pass before the per-query prover would ever run.
    banks = {}
    for fp, ctx in plan.ctxs.items():
        banks[fp] = _bank_for(ctx)
    swept = refuted = 0
    for fp, expr, verdict in plan.nonneg:
        bank = banks.get(fp)
        if bank is None:
            continue
        witness = bank.refutes(expr)
        if witness is None:
            continue
        swept += 1
        if witness:
            refuted += 1
            if verdict:
                # The bank found a context-valid negative sample for an
                # expression the plan claims proven nonnegative: the
                # plan contradicts the mathematics.  Seed nothing.
                if obs is not None:
                    obs.count("plan.integrity_failed")
                return False
    if obs is not None:
        obs.count("plan.sweep_queries", swept)
        obs.count("plan.sweep_refuted", refuted)

    for fp, expr, verdict in plan.nonneg:
        _context._NONNEG.put((fp, expr._key()), verdict)

    acache = _resolve_cache(cache)
    if acache is not None:
        for fp, result in plan.intra.items():
            acache.store_intra(fp, result)

    if obs is not None:
        obs.count("plan.installed")
    return True
