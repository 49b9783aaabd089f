"""Persistent cross-process plan/compile/refutation bundle.

A :class:`PlanCache` snapshots everything a cold process must otherwise
re-derive before its first analysis answers: every bank of the
:mod:`repro.memo` registry (compiled kernels and refutation sample
banks pickle as their keys and are rebuilt on load) and the
:class:`repro.plan.compiler.AnalysisPlan` per ``(program, binding)``.
It persists next to the
:class:`repro.locality.engine.AnalysisCache` snapshot, is loaded at
service boot and by the CLI, and degrades exactly like it: a missing
file is a silent cold start; a corrupt, truncated, schema-mismatched or
*version*-mismatched file loads empty with a
:class:`repro.errors.CacheLoadWarning`, a ``load_failed`` stat bump and
a ``plan.load_failed`` counter — never a wrong answer.

Invalidation matrix (see DESIGN.md):

* **repro version** — the bundle embeds ``repro.__version__``; any
  mismatch discards the whole file (prover/compiler behaviour may have
  changed between releases, and memo tables encode their verdicts);
* **program fingerprint** — plans are keyed by
  ``program_fingerprint``, so an edited program misses;
* **options/binding fingerprint** — the concrete ``(env, H)`` binding
  and the ``back_edges`` list are part of the plan key (the
  Diophantine fallback depends on the binding; the edge work list —
  and so every positional edge fingerprint — on the back edges).

Writes are atomic (:func:`repro.persist.atomic_write_bytes`), and every
bank and plan is pickle-probed individually at save time: an entry that
fails to pickle is dropped (counted), never allowed to poison the file.
"""

from __future__ import annotations

import pickle
import threading
import warnings

from .. import memo
from ..check.faults import fire as _fault_fire
from ..errors import CacheLoadWarning
from ..persist import atomic_write_bytes

__all__ = [
    "PlanCache",
    "clear_plan_cache",
    "get_plan_cache",
]


def _repro_version() -> str:
    from .. import __version__

    return __version__


class PlanCache:
    """Plans plus the global memo banks, as one persistable bundle.

    One bundle is shared across the service's request threads
    (``ThreadingHTTPServer``) while the snapshot thread captures and
    saves it, so every mutation and every multi-item read goes through
    ``_lock`` — ``save`` in particular must not iterate ``plans`` while
    a concurrent ``put`` resizes it.
    """

    SCHEMA = 2

    def __init__(self):
        self._lock = threading.Lock()
        self.plans: dict = {}  # (program_fp, binding) -> AnalysisPlan
        self.banks: dict = {}  # memo.snapshot(): bank name -> items
        self.stats = {
            "hits": 0,
            "misses": 0,
            "installed": 0,
            "rejected": 0,
            "load_failed": 0,
            "save_dropped": 0,
        }

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]  # locks don't pickle; restored on load
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def clear(self) -> None:
        with self._lock:
            self.plans.clear()
            self.banks.clear()
            for key in self.stats:
                self.stats[key] = 0

    # -- plan registry ----------------------------------------------------

    def get(self, key):
        with self._lock:
            plan = self.plans.get(key)
            self.stats["hits" if plan is not None else "misses"] += 1
        return plan

    def put(self, plan) -> None:
        if plan is not None:
            with self._lock:
                self.plans[plan.key] = plan

    def bump(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.stats[key] += n

    def snapshot_stats(self) -> dict:
        with self._lock:
            return {
                "entries": {
                    "plans": len(self.plans),
                    "banks": len(self.banks),
                },
                "stats": dict(self.stats),
            }

    # -- global memo banks ------------------------------------------------

    def capture_banks(self) -> None:
        """Snapshot the process's warm memo banks into the bundle."""
        banks = memo.snapshot()
        with self._lock:
            self.banks = banks

    def install_banks(self, obs=None) -> None:
        """Seed the process's memo banks from the captured bundle.

        Every entry goes through its bank's store path, so the caps
        hold however warm the process already is.
        """
        with self._lock:
            banks = self.banks
        if not banks:
            return
        memo.install(banks)
        if obs is not None:
            obs.count("plan.banks_installed")

    # -- persistence ------------------------------------------------------

    def _picklable(self, value) -> bool:
        try:
            pickle.dumps(value)
            return True
        except Exception:
            self.bump("save_dropped")
            return False

    def save(self, path) -> None:
        """Atomically snapshot the bundle (probe-and-drop bad entries).

        The item lists are snapshotted under the lock; the (slow)
        per-entry pickle probes run outside it, against the snapshot,
        so concurrent ``put`` calls neither block on pickling nor
        resize a dict mid-iteration.  Plans and captured banks are
        never mutated in place after insertion, so the snapshot is
        consistent.
        """
        with self._lock:
            bank_items = list(self.banks.items())
            plan_items = list(self.plans.items())
        banks = {
            name: value
            for name, value in bank_items
            if self._picklable(value)
        }
        plans = {
            key: plan
            for key, plan in plan_items
            if self._picklable(plan)
        }
        payload = pickle.dumps(
            {
                "schema": self.SCHEMA,
                "version": _repro_version(),
                "banks": banks,
                "plans": plans,
            }
        )
        atomic_write_bytes(path, payload)

    @classmethod
    def load(cls, path, obs=None) -> "PlanCache":
        """Load a bundle; every degraded load is loud and empty.

        Mirrors :meth:`AnalysisCache.load`: a missing file is the
        normal cold start; corruption, schema drift and *version*
        drift all load empty with a :class:`CacheLoadWarning`, a
        ``load_failed`` stat bump and a ``plan.load_failed`` counter.
        The ``plan_corrupt``/``plan_stale`` fault seams force the two
        paths deterministically.
        """
        cache = cls()
        try:
            with open(path, "rb") as fh:
                if _fault_fire("plan_corrupt"):
                    raise pickle.UnpicklingError(
                        "injected plan_corrupt fault"
                    )
                payload = pickle.load(fh)
            if not isinstance(payload, dict) or "plans" not in payload:
                raise pickle.UnpicklingError("not a plan-cache payload")
            if payload.get("schema") != cls.SCHEMA:
                raise pickle.UnpicklingError(
                    f"plan schema {payload.get('schema')!r} != {cls.SCHEMA!r}"
                )
            version = payload.get("version")
            if _fault_fire("plan_stale"):
                version = "0.0.0-stale"
            if version != _repro_version():
                raise pickle.UnpicklingError(
                    f"plan bundle version {version!r} != "
                    f"{_repro_version()!r}"
                )
            banks = payload.get("banks")
            plans = payload["plans"]
            if not isinstance(banks, dict) or not isinstance(plans, dict):
                raise pickle.UnpicklingError(
                    "plan bundle banks/plans are not dicts"
                )
            cache.banks = banks
            cache.plans = plans
        except FileNotFoundError:
            pass
        except Exception as exc:
            cache.stats["load_failed"] += 1
            if obs is not None:
                obs.count("plan.load_failed")
            warnings.warn(
                f"plan cache at {str(path)!r} could not be loaded "
                f"({type(exc).__name__}: {exc}); starting cold",
                CacheLoadWarning,
                stacklevel=2,
            )
        return cache

    @classmethod
    def open(cls, path, obs=None) -> "PlanCache":
        """Load a bundle from ``path`` and install its memo banks.

        The boot-time idiom every warm-starting process uses (service
        shards, the CLI's ``--opt plan_cache=FILE`` path): one call
        gives a bundle whose banks are already seeded into the
        process-global memo tables, so the first analysis replays
        instead of re-deriving.
        """
        cache = cls.load(path, obs=obs)
        cache.install_banks(obs=obs)
        return cache


#: The process-global in-memory bundle (``plan=on`` with no path).
_GLOBAL_PLAN_CACHE = PlanCache()


def get_plan_cache() -> PlanCache:
    return _GLOBAL_PLAN_CACHE


def clear_plan_cache() -> None:
    _GLOBAL_PLAN_CACHE.clear()
