"""``AnalysisOptions`` — the one front door for every engine knob.

PRs 1–2 grew four process-global toggles (``locality.set_engine``,
``locality.set_analysis_cache``, ``symbolic.set_refutation``,
``dsm.set_fast_path``).  Module state composes badly — libraries
embedding the analysis cannot scope a setting to one call — so the
knobs now travel explicitly: build a frozen :class:`AnalysisOptions`
and pass it to :func:`repro.analyze`.  This is the *only* configuration
surface — the deprecated ``set_*`` shims were removed in PR 8.  An
option left at ``None`` inherits the process default, which tests and
the perf harness move via the private ``_set_*_default`` helpers.

The CLI accepts the same knobs one-to-one via ``--opt KEY=VALUE,...``
(:meth:`AnalysisOptions.from_spec` parses the spec, so the CLI grammar
*is* the Python API).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Optional, Union

__all__ = ["AnalysisOptions", "format_chunk_bounds", "parse_chunk_bounds"]

_FAST_PATHS = (None, "symbolic", "wide", "legacy", "off")

_TRUE = ("on", "true", "yes", "1")
_FALSE = ("off", "false", "no", "0")


def _split_unescaped(text: str, sep: str) -> list:
    """Split on ``sep`` except where it is backslash-escaped."""
    parts: list = []
    current: list = []
    it = iter(text)
    for ch in it:
        if ch == "\\":
            nxt = next(it, None)
            if nxt is None:
                current.append(ch)
            else:
                current.append(ch + nxt)
            continue
        if ch == sep:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _partition_unescaped(text: str, sep: str):
    """Like ``str.partition`` but skipping backslash-escaped separators."""
    escaped = False
    for i, ch in enumerate(text):
        if escaped:
            escaped = False
            continue
        if ch == "\\":
            escaped = True
            continue
        if ch == sep:
            return text[:i], True, text[i + 1 :]
    return text, False, ""


def _unescape(text: str) -> str:
    out: list = []
    it = iter(text)
    for ch in it:
        if ch == "\\":
            nxt = next(it, None)
            out.append(ch if nxt is None else nxt)
        else:
            out.append(ch)
    return "".join(out)


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace(",", "\\,").replace("=", "\\=")
    )


def parse_chunk_bounds(spec: str) -> dict:
    """Parse ``"F1:1:8;F3:4:4"`` into ``{phase: (lo, hi)}``.

    Each clause bounds one phase's CYCLIC(p) chunk to ``lo <= p <= hi``
    (``lo == hi`` pins it).  A single number is shorthand for a pin.
    """
    bounds: dict = {}
    for clause in (spec or "").split(";"):
        clause = clause.strip()
        if not clause:
            continue
        parts = [p.strip() for p in clause.split(":")]
        if len(parts) == 2:
            parts.append(parts[1])
        if len(parts) != 3 or not parts[0]:
            raise ValueError(
                f"bad chunk bound {clause!r}: expected PHASE:lo:hi"
            )
        phase = parts[0]
        try:
            lo, hi = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(
                f"bad chunk bound {clause!r}: lo/hi must be integers"
            ) from None
        if lo < 1 or hi < lo:
            raise ValueError(
                f"bad chunk bound {clause!r}: need 1 <= lo <= hi"
            )
        bounds[phase] = (lo, hi)
    return bounds


def format_chunk_bounds(bounds) -> str:
    """The canonical (sorted) spec string for a ``{phase: (lo, hi)}`` map."""
    return ";".join(
        f"{phase}:{lo}:{hi}"
        for phase, (lo, hi) in sorted(bounds.items())
    )


def _parse_bool(key: str, value: str) -> bool:
    low = value.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(
        f"bad value {value!r} for option {key!r}: expected on/off"
    )


@dataclass(frozen=True)
class AnalysisOptions:
    """Every accelerator/observability knob of the pipeline, in one place.

    ``None`` means "inherit the process default" (which the deprecated
    ``set_*`` shims still move); any other value wins over the default
    for the one ``analyze`` call it is passed to.

    Parameters
    ----------
    analysis_cache:
        the fingerprint-keyed memo of edge and Theorem-1 results.
        ``True``/``False`` force the process-global cache on/off, a path
        string warm-starts from (and saves back to) a pickled cache
        file, and an :class:`~repro.locality.engine.AnalysisCache`
        instance is used directly.
    refutation:
        sampled disproof of ``is_nonneg`` queries (bool).
    dsm_fast_path:
        executor accounting tier: ``"symbolic"`` (closed-form
        descriptor arithmetic, O(descriptors) instead of O(addresses)),
        ``"wide"`` (descriptor-first ragged enumeration), ``"legacy"``
        (affine-rectangular only) or ``"off"`` (always interpret).
        Each tier falls back to the next on anything outside its
        fragment, so counts are identical across tiers.
    machine_alpha / machine_beta:
        Eq. 7 machine-cost overrides: per-message latency and
        per-element bandwidth in units of one local access.  ``None``
        keeps the T3D defaults (:data:`repro.distribution.costs.T3D`).
        These steer the distribution solver only — labels and
        descriptors are machine-independent.
    chunk_bounds:
        distribution-space restriction, ``"PHASE:lo:hi;..."``: clamp a
        phase's CYCLIC(p) chunk to ``lo <= p <= hi`` (``lo == hi`` pins
        it).  The solver optimises within the clamped boxes; an empty
        box triggers the usual relaxation path.
    plan:
        compiled analysis plans (:mod:`repro.plan`): record a plan on
        the first build of a (program, binding) and replay it on later
        builds — pre-computed edge fingerprints, batched nonneg
        verdicts, pre-built kernels.  Defaults on when ``plan_cache``
        is set; plain ``plan=True`` uses the in-memory process bundle.
    plan_cache:
        persistence for the plan bundle: a path string loads the
        on-disk plan/compile/refutation snapshot before the build and
        saves it back after (atomic write), a
        :class:`repro.plan.PlanCache` instance is used directly.
    trace:
        record spans on a :class:`repro.obs.Collector`; surfaced as
        ``result.trace``.
    metrics:
        record counters/gauges; surfaced as ``result.metrics``.
    """

    analysis_cache: Union[None, bool, str, object] = None
    refutation: Optional[bool] = None
    dsm_fast_path: Optional[str] = None
    machine_alpha: Optional[float] = None
    machine_beta: Optional[float] = None
    chunk_bounds: Optional[str] = None
    plan: Optional[bool] = None
    plan_cache: Union[None, str, object] = None
    trace: bool = False
    metrics: bool = False

    def __post_init__(self):
        if self.dsm_fast_path not in _FAST_PATHS:
            raise ValueError(
                f"unknown dsm_fast_path {self.dsm_fast_path!r}: expected "
                f"'symbolic', 'wide', 'legacy' or 'off'"
            )
        for name in ("machine_alpha", "machine_beta"):
            value = getattr(self, name)
            if value is not None and not float(value) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if self.chunk_bounds is not None:
            # Validate and canonicalise (sorted clauses) so equal bound
            # sets compare/serialize identically, e.g. in request keys.
            canonical = format_chunk_bounds(
                parse_chunk_bounds(self.chunk_bounds)
            )
            object.__setattr__(self, "chunk_bounds", canonical)
        cache = self.analysis_cache
        if not (
            cache is None
            or isinstance(cache, (bool, str, os.PathLike))
            or (hasattr(cache, "edges") and hasattr(cache, "intra"))
        ):
            raise ValueError(
                f"analysis_cache must be a bool, a path or an "
                f"AnalysisCache, got {cache!r}"
            )
        plan_cache = self.plan_cache
        if not (
            plan_cache is None
            or isinstance(plan_cache, (str, os.PathLike))
            or (hasattr(plan_cache, "plans") and hasattr(plan_cache, "banks"))
        ):
            raise ValueError(
                f"plan_cache must be a path or a PlanCache, "
                f"got {plan_cache!r}"
            )

    # -- CLI spec grammar (one-to-one with the Python fields) --------------

    @classmethod
    def from_spec(cls, spec: str, **overrides) -> "AnalysisOptions":
        """Parse ``"cache=/tmp/lcg.pkl,refutation=off,..."``.

        Keys: ``cache`` (on/off or a file path), ``refutation``
        (on/off), ``fast_path`` (symbolic/wide/legacy/off), ``alpha``
        and ``beta`` (floats), ``chunks`` (chunk bounds), ``plan``
        (on/off), ``plan_cache`` (a file path), ``trace`` (on/off),
        ``metrics`` (on/off).
        The long Python field names are accepted as aliases.  Literal
        ``,``/``=``/``\\`` inside a value (cache file paths, typically)
        are backslash-escaped, as :meth:`to_spec` emits them.
        """
        kwargs = cls._spec_kwargs(spec)
        kwargs.update(overrides)
        return cls(**kwargs)

    @classmethod
    def from_specs(cls, specs, **overrides) -> "AnalysisOptions":
        """Parse a sequence of spec strings (the CLI's repeated ``--opt``).

        Each spec is parsed independently — so one ``--opt
        cache=/warm,start.pkl`` stays one assignment even with escapes
        aside — and later specs win per key.
        """
        kwargs: dict = {}
        for spec in specs:
            kwargs.update(cls._spec_kwargs(spec))
        kwargs.update(overrides)
        return cls(**kwargs)

    @classmethod
    def _spec_kwargs(cls, spec: str) -> dict:
        kwargs: dict = {}
        for item in _split_unescaped(spec or "", ","):
            if not _unescape(item).strip():
                continue
            key, sep, value = _partition_unescaped(item, "=")
            if not sep:
                raise ValueError(
                    f"bad option {_unescape(item).strip()!r}: "
                    f"expected KEY=VALUE"
                )
            key = _unescape(key).strip().replace("-", "_")
            value = _unescape(value.strip())
            if key in ("cache", "analysis_cache"):
                low = value.lower()
                if low in _TRUE:
                    kwargs["analysis_cache"] = True
                elif low in _FALSE:
                    kwargs["analysis_cache"] = False
                else:
                    kwargs["analysis_cache"] = value  # a cache file path
            elif key == "refutation":
                kwargs["refutation"] = _parse_bool(key, value)
            elif key in ("fast_path", "dsm_fast_path"):
                kwargs["dsm_fast_path"] = value
            elif key in ("alpha", "machine_alpha"):
                kwargs["machine_alpha"] = float(value)
            elif key in ("beta", "machine_beta"):
                kwargs["machine_beta"] = float(value)
            elif key in ("chunks", "chunk_bounds"):
                kwargs["chunk_bounds"] = value
            elif key == "plan":
                kwargs["plan"] = _parse_bool(key, value)
            elif key == "plan_cache":
                kwargs["plan_cache"] = value  # a plan-bundle file path
            elif key == "trace":
                kwargs["trace"] = _parse_bool(key, value)
            elif key == "metrics":
                kwargs["metrics"] = _parse_bool(key, value)
            else:
                raise ValueError(
                    f"unknown option {key!r}; known keys: cache, "
                    f"refutation, fast_path, alpha, beta, chunks, "
                    f"plan, plan_cache, trace, metrics"
                )
        return kwargs

    def to_spec(self) -> str:
        """The inverse of :meth:`from_spec` (explicitly-set keys only)."""
        short = {
            "analysis_cache": "cache",
            "refutation": "refutation",
            "dsm_fast_path": "fast_path",
            "machine_alpha": "alpha",
            "machine_beta": "beta",
            "chunk_bounds": "chunks",
            "plan": "plan",
            "plan_cache": "plan_cache",
            "trace": "trace",
            "metrics": "metrics",
        }
        parts: list = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value == f.default:
                continue
            if isinstance(value, bool):
                value = "on" if value else "off"
            elif isinstance(value, str):
                value = _escape(value)
            elif isinstance(value, os.PathLike):
                value = _escape(os.fspath(value))
            parts.append(f"{short[f.name]}={value}")
        return ",".join(parts)
