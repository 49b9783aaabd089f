"""``repro.errors`` — the structured exception/warning taxonomy.

Failure handling in the pipeline follows one rule: **every degradation
is loud and attributed**.  A stage that falls back to a slower or more
conservative path emits a warning (and an obs counter when a collector
is attached); a stage that cannot produce a correct answer raises one
of the exceptions below instead of swallowing the cause.  The full
stage-by-stage degradation matrix lives in ``DESIGN.md`` ("Error
taxonomy and degradation matrix").

The module is dependency-free (stdlib only) so every layer — symbolic,
descriptors, locality, dsm, check, service — can import it without
cycles.
"""

from __future__ import annotations

__all__ = [
    "CacheLoadWarning",
    "ProverTimeout",
    "ReproError",
    "SoundnessError",
]


class ReproError(Exception):
    """Base class of every structured pipeline error."""


class ProverTimeout(ReproError):
    """The sampled refutation pass exceeded its budget.

    Handled inside :func:`repro.symbolic.refute.refute_nonneg`: the
    refutation *declines* (counter ``prover.timeouts``) and the query
    falls through to the full proof search — a correct, slower path,
    since refutation only ever accelerates ``False`` verdicts.
    """


class SoundnessError(ReproError):
    """A differential check found a descriptor or LCG mismatch.

    Raised by :func:`repro.check.run_checks` (and the ``python -m repro
    check`` CLI) when any oracle comparison fails; the message carries
    the rendered mismatch list.
    """


class CacheLoadWarning(UserWarning):
    """A persisted analysis-cache pickle was corrupt or unreadable.

    The cache warm-start degrades to a cold (empty) cache — correct but
    slower; the event is counted as ``analysis_cache.load_failed`` and
    surfaced in the service ``/metrics`` document.
    """
