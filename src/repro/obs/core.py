"""Dependency-free tracing + metrics for the analysis pipeline.

The pipeline is instrumented with *spans* (named wall-clock intervals
with a parent and free-form attributes) and *counters/gauges* (named
numbers).  Both live on a :class:`Collector` that is carried on the
analysis :class:`~repro.symbolic.context.Context`, not in process
globals.  A ``Collector`` pickles as its *configuration only* (see
:meth:`Collector.__reduce__`): persisted analysis caches and plan
bundles can reach a context that carries one, and must not store a
run's spans.

Outputs:

* :meth:`Collector.tree` — the span forest as nested dicts,
* :meth:`Collector.to_json` — a structured JSON document (spans +
  counters + gauges),
* :meth:`Collector.render` — a flame-style text tree,
* :meth:`Collector.metrics_snapshot` — the counters/gauges.

Only the standard library is used; the module imports nothing from the
rest of :mod:`repro`, so every layer may depend on it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Collector", "Span", "obs_span"]


@dataclass
class Span:
    """One recorded interval: name, timing, parent link, attributes."""

    id: int
    name: str
    parent: Optional[int]
    t0: float  # seconds since the collector's epoch
    dt: float = 0.0
    attrs: dict = field(default_factory=dict)


class _SpanHandle:
    """What ``with collector.span(...) as sp`` yields; ``sp.set(...)``
    attaches attributes discovered only after the work ran (a label, a
    verdict).  The null handle (tracing off) accepts and drops them."""

    __slots__ = ("_span",)

    def __init__(self, span: Optional[Span]):
        self._span = span

    def set(self, **attrs) -> None:
        if self._span is not None:
            self._span.attrs.update(attrs)


_NULL_HANDLE = _SpanHandle(None)


class Collector:
    """Span + counter sink threaded through one ``analyze`` run.

    ``trace`` gates span recording, ``metrics`` gates counters/gauges;
    either may be off so the other costs nothing it doesn't use.
    """

    def __init__(self, trace: bool = True, metrics: bool = True):
        self.trace = bool(trace)
        self.metrics = bool(metrics)
        self.spans: list = []
        self.counters: dict = {}
        self.gauges: dict = {}
        self._stack: list = []
        self._epoch = time.perf_counter()

    def __reduce__(self):
        # Pickling ships the configuration only: a saved analysis cache
        # or plan bundle reaches collectors through the contexts it
        # holds, and must not carry a run's spans.
        return (Collector, (self.trace, self.metrics))

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.trace:
            yield _NULL_HANDLE
            return
        sp = Span(
            id=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            t0=self._now(),
            attrs=dict(attrs),
        )
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield _SpanHandle(sp)
        finally:
            self._stack.pop()
            sp.dt = self._now() - sp.t0

    # -- counters / gauges ------------------------------------------------

    def count(self, name: str, n=1) -> None:
        if self.metrics:
            self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value) -> None:
        if self.metrics:
            self.gauges[name] = value

    def value(self, name: str, default=0):
        return self.counters.get(name, default)

    # -- exports ----------------------------------------------------------

    def tree(self) -> list:
        """The span forest as nested dicts, children in record order."""
        nodes = {
            s.id: {
                "name": s.name,
                "t0": round(s.t0, 6),
                "dt": round(s.dt, 6),
                "attrs": dict(s.attrs),
                "children": [],
            }
            for s in self.spans
        }
        roots: list = []
        for s in self.spans:
            node = nodes[s.id]
            if s.parent is not None and s.parent in nodes:
                nodes[s.parent]["children"].append(node)
            else:
                roots.append(node)
        return roots

    def to_json(self) -> dict:
        """Structured JSON document: span forest + counters + gauges."""
        return {
            "version": 1,
            "spans": self.tree(),
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }

    def render(self, min_dt: float = 0.0) -> str:
        """Flame-style text tree: duration, guides, name, attributes."""
        lines: list = []

        def walk(node, prefix, child_prefix):
            attrs = node["attrs"]
            extra = (
                "  [" + " ".join(f"{k}={v}" for k, v in attrs.items()) + "]"
                if attrs
                else ""
            )
            lines.append(
                f"{node['dt'] * 1000:10.2f}ms  {prefix}{node['name']}{extra}"
            )
            kids = [c for c in node["children"] if c["dt"] >= min_dt]
            for i, c in enumerate(kids):
                last = i == len(kids) - 1
                walk(
                    c,
                    child_prefix + ("└─ " if last else "├─ "),
                    child_prefix + ("   " if last else "│  "),
                )

        for root in self.tree():
            walk(root, "", "")
        return "\n".join(lines)

    def metrics_snapshot(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }


@contextmanager
def obs_span(collector: Optional[Collector], name: str, **attrs):
    """``collector.span(...)`` that tolerates ``collector is None``.

    The instrumentation sites read their collector off the analysis
    context with ``getattr(ctx, "obs", None)``; this wrapper keeps them
    one-liners in the common case where no collector is attached.
    """
    if collector is None:
        yield _NULL_HANDLE
        return
    with collector.span(name, **attrs) as handle:
        yield handle
