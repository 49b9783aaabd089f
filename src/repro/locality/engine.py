"""The locality-analysis engine: a fingerprint cache over edge analyses.

``build_lcg`` used to call :func:`repro.locality.inter.analyze_edge`
per (array, edge) and re-derive every Theorem 1/2 verdict from scratch
on each build.  It now routes through :func:`analyze_edges`, which
consults an :class:`AnalysisCache` memoizing edge and intra-phase
analyses under the structural fingerprints of
:mod:`repro.descriptors.fingerprint`.  Keys are name-independent, so
structurally identical phases answer each other's queries after a cheap
*relabel* (names are decoration, the mathematics is shared), and the
cache pickles to disk for warm CLI starts.  Misses are deduplicated by
fingerprint and analyzed in work-item order.

The cache is configured per call through :class:`repro.AnalysisOptions`
(``analysis_cache=``); ``None`` means the process-global cache.
"""

from __future__ import annotations

import pickle
import threading
import warnings
from dataclasses import replace
from typing import Mapping, Optional, Sequence

from ..check.faults import fire as _fault_fire
from ..descriptors.fingerprint import edge_fingerprint, phase_array_fingerprint
from ..errors import CacheLoadWarning
from ..obs import obs_span
from ..persist import atomic_write_bytes
from ..symbolic import sym
from .inter import EdgeAnalysis, analyze_edge
from .intra import IntraPhaseResult

__all__ = [
    "AnalysisCache",
    "analyze_edges",
    "clear_analysis_cache",
    "get_analysis_cache",
]

class AnalysisCache:
    """Fingerprint-keyed memo of edge and intra-phase analyses.

    Invalidation is structural: every key embeds the context fingerprint
    and (for edges) the concrete ``env``/``H_value`` binding, so a
    changed assumption, bound or binding simply misses — stale entries
    can only ever be *unreachable*, never wrong.  Entries are immutable
    analysis records shared by reference; consumers treat them as
    read-only (they do).

    The cache is thread-safe: one re-entrant lock guards every lookup,
    insert, stat bump and snapshot save, and the ``lookup_*`` methods
    bump their ``*_lookups`` and ``*_hits``/``*_misses`` stats in the
    same critical section, so ``hits + misses == lookups`` holds exactly
    under any interleaving (the serving layer hammers one shared warm
    cache from a whole worker pool).
    """

    SCHEMA = 1

    def __init__(self):
        self.intra: dict = {}
        self.edges: dict = {}
        self.stats = {
            "intra_lookups": 0,
            "intra_hits": 0,
            "intra_misses": 0,
            "edge_lookups": 0,
            "edge_hits": 0,
            "edge_misses": 0,
            "edge_relabels": 0,
            "load_failed": 0,
        }
        self._lock = threading.RLock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]  # locks don't pickle; restored on load
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def clear(self) -> None:
        with self._lock:
            self.intra.clear()
            self.edges.clear()
            for key in self.stats:
                self.stats[key] = 0

    # -- locked primitive operations -------------------------------------

    def lookup_intra(self, fp):
        """Atomic Theorem-1 lookup: bumps lookups and hits *or* misses."""
        with self._lock:
            self.stats["intra_lookups"] += 1
            hit = self.intra.get(fp)
            if hit is not None:
                self.stats["intra_hits"] += 1
            else:
                self.stats["intra_misses"] += 1
            return hit

    def store_intra(self, fp, result) -> None:
        with self._lock:
            self.intra.setdefault(fp, result)

    def lookup_edge(self, fp):
        """Atomic edge lookup: bumps lookups and hits *or* misses."""
        with self._lock:
            self.stats["edge_lookups"] += 1
            hit = self.edges.get(fp)
            if hit is not None:
                self.stats["edge_hits"] += 1
            else:
                self.stats["edge_misses"] += 1
            return hit

    def store_edge(self, fp, analysis) -> None:
        with self._lock:
            self.edges[fp] = analysis

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.stats[name] = self.stats.get(name, 0) + n

    def snapshot_stats(self) -> dict:
        """A consistent copy of stats plus entry counts and hit rates."""
        with self._lock:
            stats = dict(self.stats)
            entries = {"intra": len(self.intra), "edges": len(self.edges)}
        out = {"entries": entries, "stats": stats}
        for kind in ("intra", "edge"):
            lookups = stats[f"{kind}_lookups"]
            out[f"{kind}_hit_rate"] = (
                stats[f"{kind}_hits"] / lookups if lookups else None
            )
        return out

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        """Atomically pickle the cache for a warm start of a later process.

        Routed through :func:`repro.persist.atomic_write_bytes` so a
        crash (or a SIGTERM drain) mid-save can never leave a truncated
        snapshot behind — the reader sees the previous file or the new
        one, both loadable.
        """
        with self._lock:
            payload = pickle.dumps(
                {
                    "schema": self.SCHEMA,
                    "intra": self.intra,
                    "edges": self.edges,
                }
            )
        atomic_write_bytes(path, payload)

    @classmethod
    def load(cls, path, obs=None) -> "AnalysisCache":
        """Load a pickled cache; degraded loads are loud.

        A missing file is the normal cold start and loads empty
        silently.  A corrupt, truncated or schema-mismatched file also
        loads empty — a correct warm-start degradation — but emits a
        :class:`CacheLoadWarning`, bumps the cache's ``load_failed``
        stat (surfaced in the service ``/metrics`` document) and counts
        ``analysis_cache.load_failed`` on ``obs`` when given.
        """
        cache = cls()
        try:
            with open(path, "rb") as fh:
                if _fault_fire("corrupt_cache"):
                    raise pickle.UnpicklingError("injected corrupt_cache fault")
                payload = pickle.load(fh)
            if not isinstance(payload, dict) or "intra" not in payload:
                raise pickle.UnpicklingError("not an analysis-cache payload")
            if payload.get("schema") != cls.SCHEMA:
                raise pickle.UnpicklingError(
                    f"cache schema {payload.get('schema')!r} != {cls.SCHEMA!r}"
                )
            cache.intra.update(payload["intra"])
            cache.edges.update(payload["edges"])
        except FileNotFoundError:
            pass
        except Exception as exc:
            cache.bump("load_failed")
            if obs is not None:
                obs.count("analysis_cache.load_failed")
            warnings.warn(
                f"analysis cache at {str(path)!r} could not be loaded "
                f"({type(exc).__name__}: {exc}); starting cold",
                CacheLoadWarning,
                stacklevel=2,
            )
        return cache


#: The process-global default cache (used when callers pass none).
_GLOBAL_CACHE = AnalysisCache()


def get_analysis_cache() -> AnalysisCache:
    return _GLOBAL_CACHE


def clear_analysis_cache() -> None:
    _GLOBAL_CACHE.clear()


def _resolve_cache(cache) -> Optional[AnalysisCache]:
    """Map build_lcg's ``cache`` argument to an AnalysisCache or None.

    ``None`` and ``True`` mean the global cache, ``False`` no cache for
    this call; an instance is used directly.
    """
    if isinstance(cache, AnalysisCache):
        return cache
    return _GLOBAL_CACHE if cache is None or cache else None


# ---------------------------------------------------------------------------
# relabelling — cross-name cache hits
# ---------------------------------------------------------------------------


def _relabel_iterdesc(idesc, phase_name: str, array):
    if idesc is None or (
        idesc.phase_name == phase_name and idesc.array.name == array.name
    ):
        return idesc
    clone = object.__new__(type(idesc))
    clone.__dict__.update(idesc.__dict__)
    clone.phase_name = phase_name
    clone.array = array
    return clone


def _relabel_intra(
    result: IntraPhaseResult, phase_name: str, array
) -> IntraPhaseResult:
    if result.phase_name == phase_name and result.array_name == array.name:
        return result
    return replace(
        result,
        phase_name=phase_name,
        array_name=array.name,
        iteration_descriptor=_relabel_iterdesc(
            result.iteration_descriptor, phase_name, array
        ),
    )


def _relabel_edge(
    analysis: EdgeAnalysis, phase_k: str, phase_g: str, array
) -> EdgeAnalysis:
    """Rebind a cached analysis to the requesting names.

    Fingerprint equality guarantees every *expression* in the record is
    already identical (loop index names live inside the subscript keys);
    only the phase/array name strings and the ``p_<phase>`` chunk
    symbols — and the reason text quoting them — need rewriting.
    """
    if (
        analysis.phase_k == phase_k
        and analysis.phase_g == phase_g
        and analysis.array == array.name
    ):
        return analysis
    balanced = analysis.balanced
    reason = analysis.reason
    if balanced is not None:
        old_eq = balanced.equation_str()
        balanced = replace(
            balanced,
            phase_k=phase_k,
            phase_g=phase_g,
            array=array.name,
            p_k=sym(f"p_{phase_k}"),
            p_g=sym(f"p_{phase_g}"),
        )
        reason = reason.replace(old_eq, balanced.equation_str())
    return replace(
        analysis,
        phase_k=phase_k,
        phase_g=phase_g,
        array=array.name,
        balanced=balanced,
        intra_k=_relabel_intra(analysis.intra_k, phase_k, array),
        intra_g=_relabel_intra(analysis.intra_g, phase_g, array),
        reason=reason,
    )


# ---------------------------------------------------------------------------
# intra-phase caching (consulted by repro.locality.intra)
# ---------------------------------------------------------------------------


def intra_cache_lookup(phase, array, ctx):
    """Return ``(fingerprint, relabelled hit or None)`` for Theorem 1.

    ``(None, None)`` when caching is disabled — the caller computes
    uncached and skips the store.
    """
    cache = _resolve_cache(None)
    if cache is None:
        return None, None
    obs = getattr(ctx, "obs", None)
    fp = phase_array_fingerprint(phase, array, ctx)
    if obs is not None:
        obs.count("analysis_cache.intra_lookups")
    hit = cache.lookup_intra(fp)
    if hit is not None:
        if obs is not None:
            obs.count("analysis_cache.intra_hits")
        return fp, _relabel_intra(hit, phase.name, array)
    if obs is not None:
        obs.count("analysis_cache.intra_misses")
    return fp, None


def intra_cache_store(fp, result: IntraPhaseResult) -> None:
    cache = _resolve_cache(None)
    if cache is not None and fp is not None:
        cache.store_intra(fp, result)


# ---------------------------------------------------------------------------
# edge dispatch
# ---------------------------------------------------------------------------


def _seed_intra(cache: AnalysisCache, item, analysis: EdgeAnalysis, ctx) -> None:
    """Copy a finished edge analysis's Theorem-1 verdicts into ``cache``.

    ``check_intra_phase`` stores its verdicts in the process-global
    cache only, so a caller-supplied :class:`AnalysisCache` (a session's,
    a server's, a warm-start file) would otherwise hold edges without
    the intra verdicts they were derived from.
    """
    phase_k, phase_g, array = item
    for phase, result in ((phase_k, analysis.intra_k), (phase_g, analysis.intra_g)):
        if result is not None:
            fp = phase_array_fingerprint(phase, array, ctx)
            cache.store_intra(fp, result)


def analyze_edges(
    items: Sequence,
    ctx,
    H,
    env: Optional[Mapping[str, int]] = None,
    H_value: Optional[int] = None,
    cache=None,
    fps: Optional[Sequence] = None,
) -> list:
    """Analyze ``(phase_k, phase_g, array)`` work items, in order.

    The cache is consulted per item; misses are deduplicated by
    fingerprint and analyzed once each, in item order, and followers
    take their leader's analysis relabelled to their own names.
    ``fps`` optionally supplies the items' pre-computed edge
    fingerprints (from a compiled plan), skipping the per-item
    recomputation.
    """
    cache = _resolve_cache(cache)
    obs = getattr(ctx, "obs", None)

    precomputed = fps if fps is not None and len(fps) == len(items) else None
    results: list = [None] * len(items)
    fps = [None] * len(items)
    leaders: dict = {}  # fingerprint -> index that computes it
    followers: dict = {}  # index -> leader index
    compute: list = []

    for i, (phase_k, phase_g, array) in enumerate(items):
        if obs is not None:
            obs.count("engine.items")
        if cache is None:
            compute.append(i)
            continue
        if precomputed is not None:
            fp = precomputed[i]
        else:
            fp = edge_fingerprint(
                phase_k, phase_g, array, ctx, H, env=env, H_value=H_value
            )
        fps[i] = fp
        if obs is not None:
            obs.count("analysis_cache.edge_lookups")
        hit = cache.lookup_edge(fp)
        if hit is not None:
            if obs is not None:
                obs.count("analysis_cache.edge_hits")
            relabelled = _relabel_edge(hit, phase_k.name, phase_g.name, array)
            if relabelled is not hit:
                cache.bump("edge_relabels")
                if obs is not None:
                    obs.count("analysis_cache.edge_relabels")
            results[i] = relabelled
            continue
        if obs is not None:
            obs.count("analysis_cache.edge_misses")
        leader = leaders.get(fp)
        if leader is None:
            leaders[fp] = i
            compute.append(i)
        else:
            followers[i] = leader
            if obs is not None:
                obs.count("engine.deduped")

    for i in compute:
        phase_k, phase_g, array = items[i]
        label = f"edge:{array.name}:{phase_k.name}->{phase_g.name}"
        with obs_span(obs, label):
            analysis = analyze_edge(
                phase_k, phase_g, array, ctx, H, env=env, H_value=H_value
            )
        if obs is not None:
            obs.count("engine.computed")
        results[i] = analysis
        if cache is not None and fps[i] is not None:
            cache.store_edge(fps[i], analysis)
            _seed_intra(cache, items[i], analysis, ctx)
    for i, leader in followers.items():
        phase_k, phase_g, array = items[i]
        relabelled = _relabel_edge(
            results[leader], phase_k.name, phase_g.name, array
        )
        if relabelled is not results[leader] and cache is not None:
            cache.bump("edge_relabels")
            if obs is not None:
                obs.count("analysis_cache.edge_relabels")
        results[i] = relabelled
    return results
