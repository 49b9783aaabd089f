"""Fault injection — controlled failure points for the degradation paths.

Every accelerator stage of the pipeline owns a *fallback*: a crashed
cluster worker is respawned and its request replayed, a corrupt cache
pickle loads empty, a timed-out refutation declines into the full proof
search, an uncompilable expression is interpreted.  This module provides
the seams that let tests (and ``python -m repro check --faults ...``)
force each failure deterministically and prove the fallback yields a
correct result *and* increments its obs counter — without which the
fallbacks are dead code trusted on faith.

Usage::

    from repro.check import faults

    with faults.inject("corrupt_cache") as armed:
        result = analyze(...)          # warm start fails, cache loads cold
    assert armed["corrupt_cache"] > 0  # the seam was actually reached

Arming is process-global but records the arming PID, so a fault marked
``subprocess_only`` (``worker_crash``) fires only in forked cluster
workers, never in the arming router process — the router must stay
healthy to respawn the worker and replay its request.

The seams themselves live in product code and cost one dict lookup on
an (almost always) empty dict when nothing is armed:

=================  ======================================  =======================
fault              seam                                     degraded path / counter
=================  ======================================  =======================
``worker_crash``   ``cluster.worker._install_crash_seam``   respawn + replay;
                                                            ``router.replays``
``corrupt_cache``  ``locality.engine.AnalysisCache.load``   cold (empty) cache;
                                                            ``analysis_cache.load_failed``
``prover_timeout`` ``symbolic.refute.refute_nonneg``        full proof search;
                                                            ``prover.timeouts``
``compile_failure`` ``symbolic.compile.compile_expr``       exact interpretation;
                                                            ``dsm.fast_path.interp``
``plan_corrupt``   ``plan.cache.PlanCache.load``            fresh cold build;
                                                            ``plan.load_failed``
``plan_stale``     ``plan.cache.PlanCache.load``            fresh cold build
                                                            (version mismatch);
                                                            ``plan.load_failed``
=================  ======================================  =======================
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Tuple

__all__ = ["FAULTS", "fire", "inject", "is_armed", "parse_fault_list"]

#: Every injectable failure point, in degradation-matrix order.
FAULTS: Tuple[str, ...] = (
    "worker_crash",
    "corrupt_cache",
    "prover_timeout",
    "compile_failure",
    "plan_corrupt",
    "plan_stale",
)

#: Faults that only fire in forked subprocesses (the parent runs the
#: fallback and must stay healthy).
_SUBPROCESS_ONLY = frozenset({"worker_crash"})

#: name -> [arming_pid, fire_count].  Plain dict mutation keeps the
#: disarmed fast path to a single ``.get`` on an empty dict.
_ARMED: dict = {}


def parse_fault_list(text: str) -> Tuple[str, ...]:
    """Parse a ``--faults name,name`` CLI value, validating names."""
    names = tuple(n.strip() for n in (text or "").split(",") if n.strip())
    for name in names:
        if name not in FAULTS:
            raise ValueError(
                f"unknown fault {name!r}; known faults: {', '.join(FAULTS)}"
            )
    return names


def is_armed(name: str) -> bool:
    return name in _ARMED


def fire(name: str) -> bool:
    """True when the named fault should trigger at this seam, counting it.

    A ``subprocess_only`` fault reports False in the process that armed
    it (its count then reflects subprocess firings only, which fork
    children write into their own copy of ``_ARMED`` — the parent-side
    count stays 0 and tests assert on the *fallback counter* instead).
    """
    entry = _ARMED.get(name)
    if entry is None:
        return False
    if name in _SUBPROCESS_ONLY and os.getpid() == entry[0]:
        return False
    entry[1] += 1
    return True


def fire_count(name: str) -> int:
    """Firings recorded in *this* process since arming (0 if disarmed)."""
    entry = _ARMED.get(name)
    return entry[1] if entry is not None else 0


@contextmanager
def inject(*names: str) -> Iterator[dict]:
    """Arm the named faults for the duration of the block.

    Yields a live mapping ``name -> fire count`` (this process's view)
    so tests can assert the seam was reached.  Nested/overlapping
    injections of the same fault are rejected — a fault's count would
    be ambiguous.
    """
    pid = os.getpid()
    for name in names:
        if name not in FAULTS:
            raise ValueError(
                f"unknown fault {name!r}; known faults: {', '.join(FAULTS)}"
            )
        if name in _ARMED:
            raise ValueError(f"fault {name!r} is already armed")
    for name in names:
        _ARMED[name] = [pid, 0]

    class _View(dict):
        def __getitem__(self, key):
            return fire_count(key)

    try:
        yield _View({n: 0 for n in names})
    finally:
        for name in names:
            _ARMED.pop(name, None)
