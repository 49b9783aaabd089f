"""One registry of bounded, process-global memo banks.

Every process-global memo of a pure function in the pipeline is a named
:class:`Bank` its owner module registers here with a cap; cold-start
clearing, the plan bundle's snapshot/install and the ``memo.*``
metrics loop over the registry instead of naming banks.

One eviction rule: a store that finds its bank at the cap first drops
the oldest eighth by insertion order.  Stores take the bank's lock, so
concurrent stores at the cap never race on the same victims.
"""

from __future__ import annotations

import itertools
import os
import threading

#: Default for lookups whose cached value may legitimately be ``None``.
MISS = object()

_REGISTRY: dict = {}
#: Installed snapshot items of banks whose owner module is not imported
#: yet; they are seeded when the bank registers.
_PENDING: dict = {}


class Bank:
    """A named, bounded memo table with hit/miss/eviction counters."""

    def __init__(self, name: str, cap: int, on_clear=None):
        self.name = name
        self.cap = cap
        self.on_clear = on_clear
        self.hits = self.misses = self.evictions = 0
        self._data: dict = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key, default=None):
        """The memoized value, or ``default`` on a miss."""
        value = self._data.get(key, MISS)
        if value is MISS:
            self.misses += 1
            return default
        self.hits += 1
        return value

    def put(self, key, value):
        """Store ``value`` (evicting at the cap); returns ``value``."""
        with self._lock:
            data = self._data
            if key not in data and len(data) >= self.cap:
                drop = max(1, self.cap // 8)
                for old in list(itertools.islice(data, drop)):
                    del data[old]
                self.evictions += drop
            data[key] = value
        return value

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self._data)

    def install(self, items: dict) -> None:
        """Seed from a snapshot through the store path (cap enforced)."""
        for key, value in items.items():
            self.put(key, value)

    def clear(self) -> None:
        """Empty the bank, zero its counters, then run ``on_clear``."""
        with self._lock:
            self._data.clear()
            self.hits = self.misses = self.evictions = 0
        if self.on_clear is not None:
            self.on_clear()


def register(name: str, cap: int, on_clear=None) -> Bank:
    """Create and register the bank ``name`` (names are unique)."""
    if name in _REGISTRY:
        raise ValueError(f"memo bank {name!r} is already registered")
    _REGISTRY[name] = bank = Bank(name, cap, on_clear)
    bank.install(_PENDING.pop(name, {}))
    return bank


def banks() -> dict:
    """Every registered bank by name."""
    return dict(_REGISTRY)


def clear_all() -> None:
    _PENDING.clear()
    for bank in banks().values():
        bank.clear()


def snapshot() -> dict:
    """``{bank name: {key: value}}`` over the registry."""
    return {name: bank.snapshot() for name, bank in banks().items()}


def install(snap: dict) -> None:
    """Seed the banks from :func:`snapshot` output."""
    for name, items in snap.items():
        if name in _REGISTRY:
            _REGISTRY[name].install(items)
        else:
            _PENDING[name] = items


def counters() -> dict:
    """``memo.<bank>.{hits,misses,evictions,size}`` over the registry."""
    out = {}
    for name, bank in banks().items():
        out[f"memo.{name}.hits"] = bank.hits
        out[f"memo.{name}.misses"] = bank.misses
        out[f"memo.{name}.evictions"] = bank.evictions
        out[f"memo.{name}.size"] = len(bank)
    return out


def _fresh_locks() -> None:
    # A fork taken while another thread held a store lock would leave
    # the child's copy held forever.
    for bank in _REGISTRY.values():
        bank._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_locks)
