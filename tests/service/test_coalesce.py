"""Single-flight dedup and the response cache, in isolation."""

import threading
import time

import pytest

from repro.service.coalesce import ResponseCache, SingleFlight


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestSingleFlight:
    def test_serial_calls_each_lead(self):
        sf = SingleFlight()
        value, leader = sf.do("k", lambda: 1)
        assert (value, leader) == (1, True)
        value, leader = sf.do("k", lambda: 2)
        assert (value, leader) == (2, True)  # no longer in flight: recompute
        assert sf.led == 2 and sf.coalesced == 0

    def test_concurrent_same_key_coalesces(self):
        sf = SingleFlight()
        entered = threading.Event()
        release = threading.Event()
        calls = []

        def compute():
            calls.append(1)
            entered.set()
            release.wait(5)
            return "doc"

        results = []

        def run():
            results.append(sf.do("k", compute))

        leader = threading.Thread(target=run)
        leader.start()
        assert entered.wait(5)
        followers = [threading.Thread(target=run) for _ in range(4)]
        for t in followers:
            t.start()
        # wait until every follower registered on the flight
        assert _wait_until(lambda: sf.coalesced == 4)
        release.set()
        leader.join(5)
        for t in followers:
            t.join(5)
        assert len(calls) == 1  # one computation total
        assert sorted(r[1] for r in results) == [False] * 4 + [True]
        assert all(r[0] == "doc" for r in results)

    def test_leader_exception_propagates_to_followers(self):
        sf = SingleFlight()
        entered = threading.Event()
        release = threading.Event()

        def explode():
            entered.set()
            release.wait(5)
            raise ValueError("boom")

        errors = []

        def run():
            try:
                sf.do("k", explode)
            except ValueError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=run) for _ in range(3)]
        threads[0].start()
        assert entered.wait(5)
        for t in threads[1:]:
            t.start()
        assert _wait_until(lambda: sf.coalesced == 2)
        release.set()
        for t in threads:
            t.join(5)
        assert errors == ["boom"] * 3
        assert sf.in_flight() == 0  # failed flight is cleaned up

    def test_distinct_keys_do_not_coalesce(self):
        sf = SingleFlight()
        barrier = threading.Barrier(2, timeout=5)
        seen = []

        def compute(tag):
            barrier.wait()
            seen.append(tag)
            return tag

        threads = [
            threading.Thread(target=lambda t=tag: sf.do(t, lambda: compute(t)))
            for tag in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(5)
        assert sorted(seen) == ["a", "b"]
        assert sf.coalesced == 0


class TestResultLRU:
    """The response cache's structural-key LRU behaviour."""

    def test_get_put_and_stats(self):
        lru = ResponseCache(capacity=2)
        assert lru.get("a") is None
        lru.put("a", None, b"1")
        assert lru.get("a") == b"1"
        stats = lru.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["bytes_hits"] == 0
        assert stats["hit_rate"] == 0.5

    def test_eviction_is_lru_order(self):
        lru = ResponseCache(capacity=2)
        lru.put("a", None, b"1")
        lru.put("b", None, b"2")
        assert lru.get("a") == b"1"  # refresh a; b is now least recent
        lru.put("c", None, b"3")
        assert lru.get("b") is None
        assert lru.get("a") == b"1" and lru.get("c") == b"3"
        assert lru.stats()["evictions"] == 1

    def test_zero_capacity_never_stores(self):
        lru = ResponseCache(capacity=0)
        digest = ResponseCache.digest(b"{}")
        lru.put("a", digest, b"1")
        assert lru.get("a") is None
        assert lru.get_body(digest) is None
        assert len(lru) == 0
        assert lru.stats()["digests"] == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResponseCache(capacity=-1)

    def test_thread_hammering_keeps_invariants(self):
        lru = ResponseCache(capacity=8)
        keys = [f"k{i}" for i in range(16)]

        def worker(seed):
            for i in range(500):
                key = keys[(seed * 7 + i) % len(keys)]
                digest = ResponseCache.digest(key.encode())
                if lru.get_body(digest) is not None:
                    continue
                if lru.get(key, digest) is None:
                    lru.put(key, digest, key.encode())

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        stats = lru.stats()
        assert stats["hits"] + stats["misses"] == 8 * 500
        assert len(lru) <= 8 and stats["digests"] <= 8


class TestResponseCacheBodies:
    """The byte layer: body digests in front of the structural key."""

    def test_repeat_body_is_a_bytes_hit(self):
        cache = ResponseCache(capacity=4)
        body = b'{"code": "jacobi", "H": 4}'
        digest = ResponseCache.digest(body)
        assert cache.get_body(digest) is None
        assert cache.get("key", digest) is None
        cache.put("key", digest, b"answer")
        assert cache.get_body(ResponseCache.digest(body)) == b"answer"
        stats = cache.stats()
        assert stats["bytes_hits"] == 1 and stats["hits"] == 1
        assert stats["misses"] == 1

    def test_structural_hit_files_the_new_spelling(self):
        cache = ResponseCache(capacity=4)
        first = ResponseCache.digest(b'{"code": "jacobi", "H": 4}')
        respelled = ResponseCache.digest(b'{"H":4,"code":"jacobi"}')
        cache.put("key", first, b"answer")
        assert cache.get_body(respelled) is None
        assert cache.get("key", respelled) == b"answer"  # structural hit
        assert cache.get_body(respelled) == b"answer"  # now a byte hit
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["bytes_hits"] == 1

    def test_entries_are_keyed_by_digest_not_body(self):
        cache = ResponseCache(capacity=3)
        for i in range(10):
            body = b"x" * 100_000 + str(i).encode()
            cache.put(("key", i), ResponseCache.digest(body), b"answer")
        assert len(cache) == 3 and cache.stats()["digests"] == 3
        assert all(len(d) == 32 for d in cache._bodies)
        assert cache.stats()["evictions"] == 14
