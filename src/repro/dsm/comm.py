"""Communication generation: put operations, patterns, aggregation (§4.3b).

On every ``C`` edge of the LCG the compiler emits single-sided ``put``
operations (SHMEM-style [2]) scheduled *after* the source phase and
*before* the drain phase.  Two patterns arise:

* **Global communications** — a redistribution: the drain phase's region
  changes owner wholesale (a chain boundary).  Every element whose owner
  under the outgoing layout differs from its owner under the incoming
  layout is shipped.
* **Frontier communications** — only the ``Δs`` overlap halos move: each
  processor updates the replicated boundary sub-regions of its
  neighbours.

**Message aggregation** groups element-wise transfers by (source,
destination) pair into one message each, which is what makes the
latency term ``alpha * messages`` tractable on real machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Mapping, NamedTuple, Optional

import numpy as np

from ..distribution.costs import MachineCosts, T3D

__all__ = [
    "PutOperation",
    "CommunicationPlan",
    "redistribution",
    "null_redistribution",
    "aggregate_puts",
    "frontier_update",
    "put_list",
]


class PutOperation(NamedTuple):
    """One aggregated single-sided transfer.

    A named tuple: an all-to-all edge at H=128 emits 16k of them, and a
    tuple builds several times faster than a frozen dataclass.
    """

    source: int
    dest: int
    elements: int

    def cost(self, machine: MachineCosts = T3D) -> float:
        return machine.alpha + machine.beta * self.elements


def put_list(source: list, dest: list, elements: list) -> list:
    """Puts from three equal-length lists of ints (source, dest,
    elements), built without a Python-level call per put."""
    return list(map(tuple.__new__, repeat(PutOperation),
                    zip(source, dest, elements)))


_ELEMENTS = itemgetter(2)


@dataclass
class CommunicationPlan:
    """All puts emitted for one C edge."""

    array: str
    edge: tuple  # (phase_k, phase_g)
    pattern: str  # "global" | "frontier"
    puts: list  # list[PutOperation]

    @property
    def volume(self) -> int:
        return sum(map(_ELEMENTS, self.puts))

    @property
    def messages(self) -> int:
        return len(self.puts)

    def cost(self, machine: MachineCosts = T3D) -> float:
        """Serialized cost (kept for the Eq. 7 objective's C^kg term)."""
        return sum(p.cost(machine) for p in self.puts)

    def makespan(self, machine: MachineCosts = T3D, H: int = 0) -> float:
        """Parallel transfer time: the busiest processor's bill.

        Every put occupies both endpoints (source issues, destination
        receives), so each endpoint accumulates ``alpha + beta * n``;
        the plan completes when the busiest processor does.
        """
        if not self.puts:
            return 0.0
        size = H or (max(max(p.source, p.dest) for p in self.puts) + 1)
        busy = [0.0] * size
        for p in self.puts:
            c = p.cost(machine)
            busy[p.source] += c
            busy[p.dest] += c
        return max(busy)

    def __str__(self) -> str:
        return (
            f"{self.pattern} comms {self.edge[0]}->{self.edge[1]} "
            f"[{self.array}]: {self.messages} msgs, {self.volume} elems"
        )


def redistribution(
    array: str,
    edge: tuple,
    addresses: np.ndarray,
    old_owner: np.ndarray,
    new_owner: np.ndarray,
) -> CommunicationPlan:
    """Build the aggregated global-communication plan for a region.

    ``addresses`` is the (unique) region the drain phase will touch;
    ``old_owner``/``new_owner`` give each element's processor before and
    after.  One put per distinct (src, dst) pair (full aggregation).
    """
    moved = old_owner != new_owner
    src = old_owner[moved]
    dst = new_owner[moved]
    puts = []
    if src.size:
        puts = aggregate_puts(src, dst, int(new_owner.max()) + 1)
    return CommunicationPlan(array=array, edge=edge, pattern="global", puts=puts)


def aggregate_puts(src: np.ndarray, dst: np.ndarray, base: int) -> list:
    """Aggregate element transfers into one put per (src, dst) pair.

    ``base`` must exceed every destination PE number; pairs come back
    sorted lexicographically by (source, dest) — the canonical order
    every accounting tier must reproduce byte-identically.
    """
    pair = src.astype(np.int64) * base + dst
    uniq, counts = np.unique(pair, return_counts=True)
    source, dest = np.divmod(uniq, base)
    return put_list(source.tolist(), dest.tolist(), counts.tolist())


def null_redistribution(array: str, edge: tuple) -> CommunicationPlan:
    """The empty global plan: source and drain layouts already agree.

    The symbolic tier emits this without computing the region — an
    identical-layout edge moves nothing, so the plan is byte-identical
    to what :func:`redistribution` would build the slow way.
    """
    return CommunicationPlan(array=array, edge=edge, pattern="global", puts=[])


def frontier_update(
    array: str,
    edge: tuple,
    overlap: int,
    H: int,
) -> CommunicationPlan:
    """Halo exchange: each PE refreshes Δs elements of each neighbour."""
    puts = []
    for pe in range(H - 1):
        puts.append(PutOperation(source=pe, dest=pe + 1, elements=overlap))
        puts.append(PutOperation(source=pe + 1, dest=pe, elements=overlap))
    return CommunicationPlan(
        array=array, edge=edge, pattern="frontier", puts=puts
    )
