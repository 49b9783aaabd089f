"""Session state — one program's analysis kept live across requests.

A :class:`Session` pins everything expensive about a program in memory
so that edits and what-if sweeps pay only for what actually changed:

* the parsed IR and its per-(phase, array) fingerprint table,
* a private (or server-shared) :class:`AnalysisCache` holding the
  built LCG's edge and Theorem-1 results by structural fingerprint,
* a :class:`repro.distribution.TermMemo` memoizing Eq. 7 component
  argmins and per-variable (imbalance, frontier-comm) terms.

The Table 2 constraint system itself lives in the process-wide
``constraints`` memo bank (:func:`repro.distribution.constraint_system`):
it is keyed on the labelled LCG, so a parameter edit that moves no
label (machine coefficients, chunk clamps, most ``H`` and env values)
re-solves only Eq. 7, in integer arithmetic, over a system derived
once.  The
``reuse`` block's ``constraints_reused`` counts those bank hits.

Every re-solve goes through :func:`repro.analyze` with the warm cache
and memo attached — the session never forks the analysis code path, so
an incremental result is byte-identical to a fresh ``analyze()`` at the
same parameters (the property ``repro.check --session`` enforces).
Plans (:mod:`repro.plan`) are deliberately disabled inside sessions:
the warm in-memory cache already covers what a plan would seed, and
per-grid-point plan recording would only add churn.
"""

from __future__ import annotations

import hashlib
import threading
import time
import uuid
import weakref
from dataclasses import replace
from typing import Mapping, Optional

from .. import AnalysisOptions, Collector, analyze
from ..descriptors.fingerprint import phase_array_fingerprint
from ..distribution import T3D, TermMemo, objective_breakdown
from ..document import dumps_canonical
from ..locality.engine import AnalysisCache
from ..options import format_chunk_bounds, parse_chunk_bounds

__all__ = ["Session", "SessionError"]


class SessionError(ValueError):
    """A client-correctable session request (maps to HTTP 400)."""


class Session:
    """One program's interactive analysis state.

    Mutable parameters — ``H``, the machine's latency/bandwidth
    coefficients, per-phase CYCLIC(p) bounds, and the ``env`` binding —
    live on the session and are threaded into each solve as plain
    :class:`AnalysisOptions` fields, which is what anchors the
    byte-identity contract: the session's answer at any parameter point
    is *defined* as ``analyze()`` at those options.
    """

    #: Weak registry of live sessions — the smoke test's memory probe
    #: asserts this drains back to baseline after create/evict cycles.
    _LIVE = weakref.WeakSet()

    def __init__(
        self,
        program,
        env: Mapping[str, int],
        H: int,
        *,
        back_edges: Optional[list] = None,
        execute: bool = True,
        options: Optional[AnalysisOptions] = None,
        session_id: Optional[str] = None,
        cache: Optional[AnalysisCache] = None,
    ):
        self.id = session_id or uuid.uuid4().hex
        self.program = program
        self.env = dict(env)
        self.H = int(H)
        self.back_edges = list(back_edges) if back_edges else None
        self.execute = bool(execute)

        base = options if options is not None else AnalysisOptions()
        if isinstance(base, str):
            base = AnalysisOptions.from_spec(base)
        # Session-managed parameters are seeded from the options and
        # stripped from the base: the session is their owner now.
        self.alpha = base.machine_alpha
        self.beta = base.machine_beta
        self.bounds: dict = (
            parse_chunk_bounds(base.chunk_bounds)
            if base.chunk_bounds
            else {}
        )
        self.base_options = replace(
            base,
            trace=False,
            metrics=False,
            plan=False,
            plan_cache=None,
            analysis_cache=None,
            machine_alpha=None,
            machine_beta=None,
            chunk_bounds=None,
        )

        self._owns_cache = cache is None
        self.cache = cache if cache is not None else AnalysisCache()
        self.memo = TermMemo()
        self.fingerprints: dict = {}
        self.refingerprint()

        self.revision = 0
        self.created = time.monotonic()
        self.touched = self.created
        self.lock = threading.Lock()
        self.closed = False
        self.last: Optional[dict] = None
        Session._LIVE.add(self)

    # -- fingerprints ------------------------------------------------------

    def refingerprint(self, phases: Optional[set] = None) -> int:
        """Recompute (phase, array) fingerprints; return how many changed.

        ``phases`` limits the walk to the named phases — the incremental
        contract is that an edit re-fingerprints only what it touched.
        Parameter edits (``H``, machine, bounds, ``env``) touch nothing
        structural, so they pass an empty set and this returns 0.
        """
        ctx = self.program.context
        changed = 0
        for phase in self.program.phases:
            if phases is not None and phase.name not in phases:
                continue
            for array in sorted(phase.arrays(), key=lambda a: a.name):
                fp = phase_array_fingerprint(phase, array, ctx)
                key = (phase.name, array.name)
                if self.fingerprints.get(key) != fp:
                    self.fingerprints[key] = fp
                    changed += 1
        return changed

    def phase_names(self) -> list:
        return [phase.name for phase in self.program.phases]

    # -- parameters --------------------------------------------------------

    def params(self) -> dict:
        return {
            "H": self.H,
            "alpha": self.alpha,
            "beta": self.beta,
            "chunks": format_chunk_bounds(self.bounds),
            "env": dict(self.env),
        }

    def options_at(
        self,
        alpha: Optional[float],
        beta: Optional[float],
        bounds: Optional[Mapping],
        *,
        fresh: bool = False,
    ) -> AnalysisOptions:
        """The plain options one solve runs under.

        ``fresh=True`` is the oracle's view: no warm cache, everything
        else identical — the byte-identity check compares a session
        solve against ``analyze()`` under this.
        """
        return replace(
            self.base_options,
            analysis_cache=(False if fresh else self.cache),
            machine_alpha=alpha,
            machine_beta=beta,
            chunk_bounds=(
                format_chunk_bounds(bounds) if bounds else None
            ),
        )

    def machine_at(self, alpha: Optional[float], beta: Optional[float]):
        if alpha is None and beta is None:
            return T3D
        return replace(
            T3D,
            **{
                k: v
                for k, v in (("alpha", alpha), ("beta", beta))
                if v is not None
            },
        )

    # -- solving -----------------------------------------------------------

    def solve_at(
        self,
        env: Mapping[str, int],
        H: int,
        alpha: Optional[float],
        beta: Optional[float],
        bounds: Optional[Mapping],
    ) -> dict:
        """One solve at explicit parameters, through the warm state.

        Returns ``{"document", "sha256", "breakdown", "reuse"}`` where
        ``document`` is the canonical result document (``metrics`` and
        ``trace`` nulled, as every service response has them),
        ``breakdown`` separates the objective into the two Pareto axes
        (communication volume vs pure load imbalance) under the machine
        this point was solved with, and ``reuse`` carries the counters
        proving how much was answered from cache vs recomputed.
        """
        if self.closed:
            raise SessionError(f"session {self.id} is closed")
        obs = Collector(trace=False, metrics=True)
        result = analyze(
            self.program,
            env=env,
            H=H,
            back_edges=self.back_edges,
            execute=self.execute,
            options=self.options_at(alpha, beta, bounds),
            collector=obs,
            ilp_memo=self.memo,
        )
        doc = result.to_document()
        # The session always answers without observability payloads —
        # exactly what the service nulls on its responses, and what a
        # fresh analyze() without trace/metrics produces.
        doc["metrics"] = None
        doc["trace"] = None
        breakdown = objective_breakdown(
            result.constraints,
            result.plan,
            env,
            H,
            machine=self.machine_at(alpha, beta),
        )
        counters = obs.counters
        reuse = {
            "edges_reused": counters.get("analysis_cache.edge_hits", 0),
            "edges_recomputed": counters.get(
                "analysis_cache.edge_misses", 0
            ),
            "constraints_reused": counters.get("memo.constraints.hits", 0),
            "ilp_component_memo_hits": counters.get(
                "ilp.component_memo_hits", 0
            ),
            "ilp_candidates": counters.get("ilp.candidates", 0),
        }
        return {
            "document": doc,
            "sha256": hashlib.sha256(
                dumps_canonical(doc).encode()
            ).hexdigest(),
            "breakdown": breakdown,
            "reuse": reuse,
        }

    def solve(self) -> dict:
        """Solve at the session's current parameters (and remember it)."""
        out = self.solve_at(
            self.env, self.H, self.alpha, self.beta, self.bounds
        )
        self.last = {"sha256": out["sha256"], "revision": self.revision}
        return out

    # -- lifecycle ---------------------------------------------------------

    def touch(self) -> None:
        self.touched = time.monotonic()

    def close(self) -> None:
        """Release every heavy reference deterministically.

        The session object may linger (a request thread can still hold
        it) but the LCG memo, the term memo and the IR drop now — the
        memory contract is "DELETE frees the bytes", not "GC eventually
        does".  A private cache is cleared; a server-shared one is left
        alone (other sessions still use it).
        """
        if self.closed:
            return
        self.closed = True
        self.memo.clear()
        self.fingerprints.clear()
        if self._owns_cache and self.cache is not None:
            self.cache.clear()
        self.program = None
        self.cache = None
        self.memo = None
        self.last = None

    def describe(self) -> dict:
        return {
            "session": self.id,
            "revision": self.revision,
            "params": self.params(),
            "phases": self.phase_names() if not self.closed else [],
            "memo": self.memo.stats() if self.memo is not None else {},
            "cache_entries": (
                {
                    "edges": len(self.cache.edges),
                    "intra": len(self.cache.intra),
                }
                if self.cache is not None
                else {}
            ),
        }
