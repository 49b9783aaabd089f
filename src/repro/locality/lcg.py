"""The Locality-Communication Graph (LCG) — §1, §4.

The LCG of a program is a collection of directed graphs, one per array.
Nodes are the phases accessing that array, annotated with the access
attribute (R, W, R/W, P); consecutive accessing phases (in control-flow
order) are connected by edges labelled

* ``L`` — locality exploitable between the phases,
* ``C`` — communication required between them (put operations are
  scheduled after the source phase and before the drain phase),
* ``D`` — un-coupled (one side privatizes); D edges are recorded and
  then *removed*, exactly as the paper's Figure 6 does with its dashed
  edges.

Phases nested in outer sequential loops induce cycles: register them via
``add_back_edge`` (the wrap-around control transfer) and they are
labelled with the same Theorem-2 machinery.

The *chains* of an array — maximal runs of consecutive ``L`` edges — are
the units that share a single data distribution; they feed the integer
programming model of §4.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import networkx as nx

from ..ir.core import ArrayDecl, Phase, Program
from ..obs import obs_span
from ..symbolic import Context, Expr, sym
from .engine import analyze_edges
from .inter import EdgeAnalysis

__all__ = ["LCG", "build_lcg", "edge_work_items"]


def edge_work_items(
    program: Program, back_edges: Optional[list] = None
) -> list:
    """The LCG's ``(phase_k, phase_g, array)`` work list, in build order.

    Shared between :func:`build_lcg` and the plan compiler
    (:mod:`repro.plan`) — the pre-computed edge fingerprints of a plan
    are only valid because both sides enumerate edges through this one
    function.
    """
    work: list = []
    for array in program.arrays_in_use():
        accessing = [
            ph
            for ph in program.phases
            if any(x.name == array.name for x in ph.arrays())
        ]
        pairs = list(zip(accessing, accessing[1:]))
        if back_edges:
            by_name = {ph.name: ph for ph in accessing}
            for u, v in back_edges:
                if u in by_name and v in by_name:
                    pairs.append((by_name[u], by_name[v]))
        for ph_k, ph_g in pairs:
            work.append((ph_k, ph_g, array))
    return work


@dataclass
class LCG:
    """Locality-Communication Graph of a program."""

    program: Program
    H: Expr
    graphs: dict = field(default_factory=dict)  # array -> nx.DiGraph
    p_names: dict = field(default_factory=dict)  # (phase, array) -> "p_kj"

    # -- queries ------------------------------------------------------------

    def arrays(self) -> list:
        return list(self.graphs)

    def graph(self, array: str) -> nx.DiGraph:
        return self.graphs[array]

    def attribute(self, array: str, phase: str) -> str:
        return self.graphs[array].nodes[phase]["attr"]

    def edge(self, array: str, k: str, g: str) -> EdgeAnalysis:
        return self.graphs[array].edges[k, g]["analysis"]

    def edges(self, array: str) -> list:
        """Analyses of the array's live edges (dropped D edges excluded)."""
        g = self.graphs[array]
        return [
            g.edges[e]["analysis"]
            for e in g.edges
            if not g.edges[e].get("dropped")
        ]

    def labels(self, array: str) -> list:
        """(k, g, label) triples in control-flow order.

        Dropped D edges are *included* — this is the Figure-6 rendering
        view, where dashed (removed) edges still show their label.
        """
        g = self.graphs[array]
        order = {name: idx for idx, name in enumerate(self._phase_order(array))}
        out = []
        for u, v in g.edges:
            out.append((u, v, g.edges[u, v]["analysis"].label))
        out.sort(key=lambda t: (order.get(t[0], 1 << 30), order.get(t[1], 1 << 30)))
        return out

    def _phase_order(self, array: str) -> list:
        return [
            ph.name
            for ph in self.program.phases
            if any(a.name == array for a in ph.arrays())
        ]

    def chains(self, array: str, broken: Optional[set] = None) -> list:
        """Maximal runs of consecutive L edges (C breaks, D removed).

        Every accessing phase belongs to exactly one chain; an isolated
        phase (both neighbouring edges C or D) is a singleton chain.
        Back edges participate: an L back edge would fuse the wrap-around,
        but chains are reported as linear segments of the forward order.
        ``broken`` optionally lists (phase_k, phase_g) pairs whose L edge
        the ILP relaxed to communication — chains split there too.
        """
        broken = broken or set()
        order = self._phase_order(array)
        g = self.graphs[array]
        chains: list[list[str]] = []
        current: list[str] = []
        for idx, name in enumerate(order):
            if not current:
                current = [name]
                continue
            prev = order[idx - 1]
            label = None
            if g.has_edge(prev, name) and not g.edges[prev, name].get("dropped"):
                label = g.edges[prev, name]["analysis"].label
            if label == "L" and (prev, name) not in broken:
                current.append(name)
            else:
                chains.append(current)
                current = [name]
        if current:
            chains.append(current)
        return chains

    def communication_edges(self, array: str) -> list:
        return [e for e in self.edges(array) if e.label == "C"]

    def render(self) -> str:
        """Figure 6-style textual rendering of the whole LCG."""
        lines = []
        arrays = self.arrays()
        header = " | ".join(f"{a:^16}" for a in arrays)
        lines.append(f"{'phase':12} | {header}")
        all_phases = [ph.name for ph in self.program.phases]
        for idx, name in enumerate(all_phases):
            cells = []
            for a in arrays:
                g = self.graphs[a]
                if name in g.nodes:
                    attr = g.nodes[name]["attr"]
                    pvar = self.p_names.get((name, a), "")
                    cells.append(f"({attr:>3}) {pvar}")
                else:
                    cells.append("")
            lines.append(f"{name:12} | " + " | ".join(f"{c:^16}" for c in cells))
            # edge row
            cells = []
            for a in arrays:
                g = self.graphs[a]
                label = ""
                if idx + 1 < len(all_phases):
                    order = self._phase_order(a)
                    if name in order:
                        pos = order.index(name)
                        if pos + 1 < len(order) and g.has_edge(name, order[pos + 1]):
                            label = g.edges[name, order[pos + 1]]["analysis"].label
                cells.append(label)
            if any(cells):
                lines.append(f"{'':12} | " + " | ".join(f"{c:^16}" for c in cells))
        return "\n".join(lines)


def build_lcg(
    program: Program,
    H: Optional[Expr] = None,
    env: Optional[Mapping[str, int]] = None,
    H_value: Optional[int] = None,
    back_edges: Optional[list] = None,
    drop_d_edges: bool = True,
    cache=None,
    plan=None,
) -> LCG:
    """Build and label the LCG of a program.

    ``H`` defaults to a fresh symbol ``H``.  ``env``/``H_value`` enable
    the concrete Diophantine fallback for balanced conditions the
    symbolic engine cannot settle.  ``back_edges`` lists ``(from, to)``
    phase-name pairs for enclosing sequential loops (cycles).  With
    ``drop_d_edges`` (the default, following Figure 6) D edges are
    marked dropped after recording and excluded from the live-edge
    queries (``edges``, ``communication_edges``, ``chains``); ``labels``
    still reports them.  Pass False to keep every edge live.

    Edge analysis routes through :mod:`repro.locality.engine`:
    ``cache`` overrides the analysis-cache setting (an
    :class:`AnalysisCache` instance, a bool, or None for the module
    toggle).  ``plan`` optionally supplies a
    :class:`repro.plan.AnalysisPlan` whose pre-computed edge
    fingerprints replace the per-item recomputation (a mismatching
    plan is ignored, never trusted).
    """
    H = H if H is not None else sym("H")
    lcg = LCG(program=program, H=H)
    ctx = program.context

    arrays = program.arrays_in_use()
    for a_idx, array in enumerate(arrays, start=1):
        g = nx.DiGraph()
        accessing = [
            ph for ph in program.phases if any(x.name == array.name for x in ph.arrays())
        ]
        for k_idx, ph in enumerate(program.phases, start=1):
            if ph in accessing:
                g.add_node(ph.name, attr=ph.access_attribute(array))
                lcg.p_names[(ph.name, array.name)] = f"p{k_idx}{a_idx}"
        lcg.graphs[array.name] = g
    work = edge_work_items(program, back_edges)

    fps = None
    if plan is not None:
        fps = plan.edge_fps_for(work, ctx, H, env, H_value)
        obs = getattr(ctx, "obs", None)
        if obs is not None:
            obs.count(
                "plan.edge_fps_used" if fps is not None
                else "plan.edge_fps_mismatch"
            )

    with obs_span(
        getattr(ctx, "obs", None), "lcg", arrays=len(arrays), edges=len(work)
    ):
        analyses = analyze_edges(
            work,
            ctx,
            H,
            env=env,
            H_value=H_value,
            cache=cache,
            fps=fps,
        )
    for (ph_k, ph_g, array), analysis in zip(work, analyses):
        g = lcg.graphs[array.name]
        g.add_edge(ph_k.name, ph_g.name, analysis=analysis)
        if drop_d_edges and analysis.label == "D":
            g.edges[ph_k.name, ph_g.name]["dropped"] = True
    return lcg
