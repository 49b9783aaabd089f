"""Request coalescing: single-flight dedup + a cache of recent responses.

Locality analysis is a deterministic function of the program, the
binding and H, and highly reusable — the same bundled codes (and the
same kernel families) are analysed over and over — so the server never
runs two identical analyses at once and never re-runs one it just
finished:

* :class:`SingleFlight` — the first request for a key becomes the
  *leader* and computes; concurrent requests for the same key become
  *followers* and block until the leader publishes, then share the very
  same result object (or re-raise the leader's exception).  This is the
  classic single-flight shape (Go's ``singleflight``, groupcache).
* :class:`ResponseCache` — a bounded, thread-safe map of recently
  finished response *bytes*, consulted first by the raw request body's
  digest (before the request is parsed) and then by the structural
  :func:`~repro.service.protocol.request_key` (before single-flight),
  so duplicate requests that *don't* overlap in time are answered
  without re-analysis or re-serialization.  The server and the cluster
  router each keep one.

Every ``/analyze`` 200 names the layer that answered it in the
:data:`SOURCE_HEADER` response header — ``router-bytes``,
``router-key``, ``shard-bytes``, ``shard-key``, ``coalesced`` or
``computed`` — beside the canonical body, never inside it.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Optional

__all__ = ["SOURCE_HEADER", "SingleFlight", "ResponseCache"]

#: Response header naming the layer that answered an ``/analyze`` 200.
SOURCE_HEADER = "X-Repro-Source"


class _Flight:
    """One in-flight computation: an event plus its outcome slot."""

    __slots__ = ("done", "value", "error", "followers")

    def __init__(self):
        self.done = threading.Event()
        self.value = None
        self.error: Optional[BaseException] = None
        self.followers = 0


class SingleFlight:
    """Deduplicate concurrent calls with the same key onto one worker."""

    def __init__(self):
        self._lock = threading.Lock()
        self._flights: dict = {}
        self.coalesced = 0  # lifetime follower count
        self.led = 0  # lifetime leader count

    def in_flight(self) -> int:
        with self._lock:
            return len(self._flights)

    def do(self, key, fn: Callable[[], object]):
        """Run ``fn`` once per concurrent key; return ``(value, leader)``.

        ``leader`` is True for the call that actually computed.  The
        leader's exception propagates to every caller of the flight.
        The flight is removed before the leader publishes, so a *later*
        identical request starts a fresh computation rather than reading
        a completed flight (the response cache is the layer that serves
        those).
        """
        leader = False
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                flight.followers += 1
                self.coalesced += 1
            else:
                flight = _Flight()
                self._flights[key] = flight
                self.led += 1
                leader = True
        if not leader:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value, False
        try:
            flight.value = fn()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._flights.pop(key, None)
            flight.done.set()
        return flight.value, True


class ResponseCache:
    """Thread-safe bounded LRU of finished 200 response bytes, two keys.

    * the **body digest** — SHA-256 of the raw request body, so an exact
      repeat is answered with one hash and one lookup, before the
      request is even parsed;
    * the **structural key** — :func:`~repro.service.protocol.request_key`,
      so first-seen text that lowers to a cached request (other
      whitespace, key order, a source spelling of a bundled code) still
      dedups.  A hit here records the body's digest, so that spelling's
      next repeat is a byte hit.

    Each map holds at most ``capacity`` entries, keyed by a 32-byte
    digest or a structural tuple, never by the body itself; the values
    are shared ``bytes``.  ``capacity=0`` stores nothing under either
    key.  ``hits`` counts hits on both keys, ``bytes_hits`` the share
    answered by digest; ``misses`` counts structural misses.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._bodies: OrderedDict = OrderedDict()  # digest -> bytes
        self._keys: OrderedDict = OrderedDict()  # request key -> bytes
        self.hits = 0
        self.bytes_hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def digest(body: bytes) -> bytes:
        return hashlib.sha256(body).digest()

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)

    def _store(self, table: OrderedDict, key, value: bytes) -> None:
        table[key] = value
        table.move_to_end(key)
        while len(table) > self.capacity:
            table.popitem(last=False)
            self.evictions += 1

    def get_body(self, digest: bytes) -> Optional[bytes]:
        """The response cached for this body digest, or ``None``."""
        with self._lock:
            value = self._bodies.get(digest)
            if value is not None:
                self._bodies.move_to_end(digest)
                self.hits += 1
                self.bytes_hits += 1
            return value

    def get(self, key, digest: Optional[bytes] = None) -> Optional[bytes]:
        """The response cached for this structural key, or ``None``.

        A hit also files the response under ``digest``.
        """
        with self._lock:
            value = self._keys.get(key)
            if value is None:
                self.misses += 1
                return None
            self._keys.move_to_end(key)
            self.hits += 1
            if digest is not None:
                self._store(self._bodies, digest, value)
            return value

    def put(self, key, digest: Optional[bytes], value: bytes) -> None:
        """File a 200 response under its key and (if given) its digest."""
        if self.capacity == 0:
            return
        with self._lock:
            self._store(self._keys, key, value)
            if digest is not None:
                self._store(self._bodies, digest, value)

    def stats(self) -> dict:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._keys),
                "digests": len(self._bodies),
                "capacity": self.capacity,
                "hits": self.hits,
                "bytes_hits": self.bytes_hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / lookups if lookups else None,
            }
