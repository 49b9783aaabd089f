"""End-to-end server behaviour: identity, coalescing, backpressure, drain."""

import http.client
import json
import socket
import struct
import threading
import time

import pytest

from repro import analyze
from repro.codes import ALL_CODES
from repro.service import ServiceClient, ServiceConfig, serve_in_thread
from repro.service.coalesce import SOURCE_HEADER
from repro.service.protocol import dumps_canonical, response_document

JACOBI = {"version": 1, "code": "jacobi", "H": 4}


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _post_raw(port, doc, timeout=120.0):
    """One raw POST /analyze; returns (status, body bytes, headers)."""
    return _post_bytes(port, json.dumps(doc).encode(), timeout)


def _post_bytes(port, body, timeout=120.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            "POST",
            "/analyze",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        conn.close()


@pytest.fixture()
def server(tmp_path):
    """A fresh server per test, drained afterwards."""
    config = ServiceConfig(
        port=0,
        threads=4,
        queue_limit=8,
        snapshot_path=str(tmp_path / "cache.pkl"),
        snapshot_every=1000,  # tests trigger snapshots via drain
    )
    srv, thread = serve_in_thread(config)
    yield srv
    srv.drain()
    thread.join(10)


def _port(server):
    return server.server_address[1]


class TestEndpoints:
    def test_healthz(self, server):
        client = ServiceClient(port=_port(server))
        doc = client.health()
        assert doc["status"] == "ok" and doc["protocol"] == 1

    def test_unknown_path_404(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", _port(server), timeout=10)
        conn.request("GET", "/nope")
        assert conn.getresponse().status == 404
        conn.close()

    def test_bad_body_400(self, server):
        status, body, _ = _post_raw(_port(server), {"code": "nope"})
        assert status == 400
        assert "unknown code" in json.loads(body)["error"]

        conn = http.client.HTTPConnection("127.0.0.1", _port(server), timeout=10)
        conn.request("POST", "/analyze", body=b"not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        response.read()
        conn.close()

    @pytest.mark.parametrize(
        "spec", ["engine=serial", "workers=2", "fast_path=legacy"]
    )
    def test_removed_option_key_400(self, server, spec):
        status, body, _ = _post_raw(
            _port(server), {"code": "jacobi", "H": 4, "options": spec}
        )
        assert status == 400
        key, _, value = spec.partition("=")
        message = (
            f"unknown dsm_fast_path {value!r}"
            if key == "fast_path"
            else f"unknown option {key!r}"
        )
        assert message in json.loads(body)["error"]

    def test_metrics_and_cache_stats_shape(self, server):
        client = ServiceClient(port=_port(server))
        client.analyze(code="jacobi", H=4)
        metrics = client.metrics()
        assert {"counters", "responses", "latency", "coalesce",
                "result_cache", "analysis_cache"} <= set(metrics)
        assert "load_failed" in metrics["analysis_cache"]
        assert metrics["responses"].get("200", 0) >= 1
        assert metrics["latency"]["count"] >= 1
        stats = client.cache_stats()
        assert stats["entries"]["edges"] > 0
        invariant = stats["stats"]
        assert (
            invariant["edge_hits"] + invariant["edge_misses"]
            == invariant["edge_lookups"]
        )


class _CountingWriter:
    """Forwards writes, noting at each how many 200s the server counted."""

    def __init__(self, inner, metrics, seen):
        self._inner, self._metrics, self._seen = inner, metrics, seen

    def write(self, data):
        self._seen.append(self._metrics.snapshot()["responses"].get("200", 0))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _cluster_router():
    from repro.cluster.router import ClusterRouter

    return ClusterRouter(ServiceConfig(port=0, workers=2))


class TestHTTPAccounting:
    def test_response_counted_before_its_body_is_written(self, server):
        seen: list = []

        class Counting(server.RequestHandlerClass):
            def setup(self):
                super().setup()
                self.wfile = _CountingWriter(
                    self.wfile, self.server.metrics, seen
                )

        server.RequestHandlerClass = Counting
        assert ServiceClient(port=_port(server)).health()["status"] == "ok"
        # the last write is the body: a client reading it can already
        # see its response in /metrics
        assert seen and seen[-1] == 1

    def test_peer_reset_is_counted_not_printed(self, server, capsys):
        sock = socket.create_connection(("127.0.0.1", _port(server)))
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
        # close with a reset while the server still waits for headers
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        assert _wait_until(
            lambda: server.metrics_document()["counters"].get(
                "http.peer_resets"
            )
            == 1
        )
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("make", ["server", "router"])
    def test_only_peer_resets_are_silenced(self, make, server, capsys):
        srv = server if make == "server" else _cluster_router()
        try:
            for exc in (ConnectionResetError(104, "reset"),
                        BrokenPipeError(32, "pipe")):
                try:
                    raise exc
                except OSError:
                    srv.handle_error(None, ("127.0.0.1", 1))
            assert srv.metrics.snapshot()["counters"]["http.peer_resets"] == 2
            assert capsys.readouterr().err == ""
            try:
                raise ValueError("handler bug")
            except ValueError:
                srv.handle_error(None, ("127.0.0.1", 1))
            err = capsys.readouterr().err
            assert "Traceback" in err and "handler bug" in err
            assert srv.metrics.snapshot()["counters"]["http.peer_resets"] == 2
        finally:
            if srv is not server:
                srv.server_close()


class TestServedIdentity:
    @pytest.mark.parametrize("code", ["jacobi", "adi", "tfft2"])
    def test_response_byte_identical_to_serial_analyze(self, server, code):
        builder, env, back = ALL_CODES[code]
        result = analyze(builder(), env=env, H=4, back_edges=back)
        expected = dumps_canonical(response_document(result, env, 4)).encode()

        status, served, _ = _post_raw(
            _port(server), {"version": 1, "code": code, "H": 4}
        )
        assert status == 200
        assert served == expected
        # a repeat (result-LRU hit) serves the same bytes again
        status, again, _ = _post_raw(
            _port(server), {"version": 1, "code": code, "H": 4}
        )
        assert status == 200 and again == expected

    def test_zero_trip_loop_served_like_analyze(self, server):
        # fuzz seed 314: loop j is provably empty (M..M-1).  analyze()
        # accepts it, so the server must answer it, byte-identically.
        source = """program fuzz_0314
  param N
  param M
  array A(128)
  array B(128)
  array D(769)

  phase F0
    doall i = 0, N - 1
      do j = M, M - 1
        D(M * i + j) = f(A(N - 1 - i), B(i))
      end do
    end doall
  end phase
end program
"""
        from repro.ir.parser import parse_and_lower

        env = {"M": 6, "N": 128}
        result = analyze(parse_and_lower(source), env=env, H=8)
        expected = dumps_canonical(response_document(result, env, 8)).encode()
        status, served, _ = _post_raw(
            _port(server), {"version": 1, "source": source, "env": env, "H": 8}
        )
        assert status == 200, served
        assert served == expected

    def test_bounds_inside_empty_loop_served_like_analyze(self, server):
        # A(j) with j in 10..5 would overflow A(4), but the loop never
        # runs: analyze() accepts it, so the server must too.
        source = """program emptyb
  param N
  array A(4)
  array B(N)
  phase F0
    doall i = 0, N - 1
      do j = 10, 5
        A(j) = f(B(i))
      end do
    end doall
  end phase
end program
"""
        from repro.ir.parser import parse_and_lower

        env = {"N": 16}
        result = analyze(parse_and_lower(source), env=env, H=4)
        expected = dumps_canonical(response_document(result, env, 4)).encode()
        status, served, _ = _post_raw(
            _port(server), {"version": 1, "source": source, "env": env, "H": 4}
        )
        assert status == 200, served
        assert served == expected

    def test_source_text_matches_bundled_code(self, server):
        # a source request lowering to the same structure coalesces on
        # the structural key only if the *names* match too; here we just
        # check source requests work end to end.
        source = """
program demo
  param N
  array A(N)
  array B(N)
  phase F1
    doall i = 0, N - 1
      A(i) = 1
    end doall
  end phase
  phase F2
    doall i = 0, N - 1
      B(i) = A(i)
    end doall
  end phase
end program
"""
        status, body, _ = _post_raw(
            _port(server),
            {"version": 1, "source": source, "env": {"N": 64}, "H": 2},
        )
        assert status == 200
        doc = json.loads(body)
        assert doc["program"] == "demo"
        assert doc["plan"]["phase_chunks"]


class TestCoalescing:
    def test_concurrent_identical_requests_coalesce(self, server):
        entered = threading.Event()
        release = threading.Event()

        def hook(request, key):
            entered.set()
            release.wait(20)

        server.job_hook = hook
        client = ServiceClient(port=_port(server), retries=0)
        results = []

        def run():
            results.append(client.analyze(code="adi", H=4))

        leader = threading.Thread(target=run)
        leader.start()
        assert entered.wait(10)
        followers = [threading.Thread(target=run) for _ in range(3)]
        for t in followers:
            t.start()
        assert _wait_until(lambda: server.flights.coalesced == 3)
        release.set()
        leader.join(30)
        for t in followers:
            t.join(30)
        assert len(results) == 4
        assert all(r == results[0] for r in results)
        assert server.metrics.counters.get("analyze.coalesced_hits") == 3
        assert server.metrics.counters.get("analyze.computed") == 1

    def test_result_cache_hits_counted(self, server):
        client = ServiceClient(port=_port(server))
        client.analyze(code="jacobi", H=4)
        client.analyze(code="jacobi", H=4)
        metrics = client.metrics()
        assert metrics["result_cache"]["hits"] >= 1
        assert (
            metrics["counters"].get("analyze.result_cache_hits", 0) >= 1
        )


class TestResponseCache:
    """The byte-keyed layer in front of the structural key."""

    def test_repeat_body_is_a_byte_hit(self, server):
        port = _port(server)
        status1, body1, headers1 = _post_raw(port, JACOBI)
        status2, body2, headers2 = _post_raw(port, JACOBI)
        assert status1 == status2 == 200
        assert body2 == body1
        assert headers1[SOURCE_HEADER] == "computed"
        assert headers2[SOURCE_HEADER] == "shard-bytes"
        stats = server.results.stats()
        assert stats["hits"] == stats["bytes_hits"] == 1
        assert server.metrics.counters["analyze.result_cache_hits"] == 1

    def test_respelled_body_is_a_key_hit_then_a_byte_hit(self, server):
        port = _port(server)
        _, first, _ = _post_raw(port, JACOBI)
        respelled = b'{ "H": 4,\n  "code": "jacobi", "version": 1 }'
        status, body, headers = _post_bytes(port, respelled)
        assert status == 200 and body == first
        assert headers[SOURCE_HEADER] == "shard-key"
        status, body, headers = _post_bytes(port, respelled)
        assert status == 200 and body == first
        assert headers[SOURCE_HEADER] == "shard-bytes"
        stats = server.results.stats()
        assert (stats["hits"], stats["bytes_hits"]) == (2, 1)
        assert stats["size"] == 1 and stats["digests"] == 2
        assert server.metrics.counters["analyze.computed"] == 1

    def test_coalesced_follower_is_labelled(self, server):
        entered = threading.Event()
        release = threading.Event()

        def hook(request, key):
            entered.set()
            release.wait(20)

        server.job_hook = hook
        port = _port(server)
        answers = []

        def run():
            answers.append(_post_raw(port, JACOBI))

        leader = threading.Thread(target=run)
        leader.start()
        assert entered.wait(10)
        follower = threading.Thread(target=run)
        follower.start()
        assert _wait_until(lambda: server.flights.coalesced == 1)
        release.set()
        leader.join(30)
        follower.join(30)
        assert sorted(a[2][SOURCE_HEADER] for a in answers) == [
            "coalesced", "computed",
        ]
        assert answers[0][1] == answers[1][1]

    def test_400_and_503_are_never_cached(self, server):
        port = _port(server)
        for _ in range(2):
            status, _, headers = _post_raw(port, {"version": 1, "code": "x"})
            assert status == 400 and SOURCE_HEADER not in headers
        server._draining.set()
        try:
            status, _, _ = _post_raw(port, JACOBI)
            assert status == 503
        finally:
            server._draining.clear()
        status, _, headers = _post_raw(port, JACOBI)
        assert status == 200 and headers[SOURCE_HEADER] == "computed"
        stats = server.results.stats()
        assert stats["hits"] == 0 and stats["digests"] == 1

    def test_429_and_504_are_never_cached(self):
        config = ServiceConfig(
            port=0, threads=1, queue_limit=0, request_timeout=2.0
        )
        server, thread = serve_in_thread(config)
        release = threading.Event()
        try:
            entered = threading.Event()

            def hook(request, key):
                entered.set()
                release.wait(20)

            server.job_hook = hook
            port = _port(server)
            first = {}
            blocker = threading.Thread(
                target=lambda: first.update(r=_post_raw(port, JACOBI))
            )
            blocker.start()
            assert entered.wait(10)
            adi = {"version": 1, "code": "adi", "H": 4}
            status, _, _ = _post_raw(port, adi, timeout=10)
            assert status == 429
            blocker.join(30)
            assert first["r"][0] == 504
            server.job_hook = None
            release.set()
            # the timed-out job still finishes and files its 200
            assert _wait_until(lambda: len(server.results) == 1)
            assert server.results.stats()["digests"] == 1

            builder, env, back = ALL_CODES["jacobi"]
            result = analyze(builder(), env=env, H=4, back_edges=back)
            status, body, _ = _post_raw(port, JACOBI)
            assert status == 200
            assert body == dumps_canonical(result.to_document()).encode()
            status, _, headers = _post_raw(port, adi)
            assert status == 200 and headers[SOURCE_HEADER] == "computed"
        finally:
            release.set()
            server.drain()
            thread.join(10)


class TestBackpressure:
    def test_429_when_admission_queue_full(self, tmp_path):
        config = ServiceConfig(port=0, threads=1, queue_limit=0)
        server, thread = serve_in_thread(config)
        try:
            entered = threading.Event()
            release = threading.Event()

            def hook(request, key):
                entered.set()
                release.wait(20)

            server.job_hook = hook
            port = _port(server)
            first = {}

            def run():
                first["response"] = _post_raw(
                    port, {"version": 1, "code": "jacobi", "H": 4}
                )

            blocker = threading.Thread(target=run)
            blocker.start()
            assert entered.wait(10)

            status, body, headers = _post_raw(
                port, {"version": 1, "code": "adi", "H": 4}, timeout=10
            )
            assert status == 429
            assert headers.get("Retry-After") == "1"
            assert "capacity" in json.loads(body)["error"]
            assert server.metrics.counters.get("analyze.rejected_busy") == 1

            release.set()
            blocker.join(30)
            assert first["response"][0] == 200
        finally:
            release.set()
            server.drain()
            thread.join(10)

    def test_client_retries_through_429(self, tmp_path):
        config = ServiceConfig(port=0, threads=1, queue_limit=0)
        server, thread = serve_in_thread(config)
        try:
            entered = threading.Event()
            release = threading.Event()

            def hook(request, key):
                entered.set()
                release.wait(20)

            server.job_hook = hook
            port = _port(server)
            done = {}

            def blocker_run():
                done["blocker"] = _post_raw(
                    port, {"version": 1, "code": "jacobi", "H": 4}
                )

            blocker = threading.Thread(target=blocker_run)
            blocker.start()
            assert entered.wait(10)

            # The retrying client sees 429 first; once the blocker is
            # released mid-backoff, a retry succeeds.
            client = ServiceClient(
                port=port, retries=8, backoff=0.05, backoff_cap=0.1
            )
            rejected_before = server.metrics.counters.get(
                "analyze.rejected_busy", 0
            )
            threading.Timer(0.3, release.set).start()
            doc = client.analyze(code="adi", H=4)
            assert doc["program"] == "adi"
            assert (
                server.metrics.counters.get("analyze.rejected_busy", 0)
                > rejected_before
            )
            blocker.join(30)
            assert done["blocker"][0] == 200
        finally:
            release.set()
            server.drain()
            thread.join(10)


class TestDrain:
    def test_drain_finishes_in_flight_and_snapshots(self, tmp_path):
        snapshot = tmp_path / "drain.pkl"
        config = ServiceConfig(
            port=0, threads=2, snapshot_path=str(snapshot),
            snapshot_every=1000,
        )
        server, thread = serve_in_thread(config)
        entered = threading.Event()
        release = threading.Event()

        def hook(request, key):
            entered.set()
            release.wait(20)

        server.job_hook = hook
        port = _port(server)
        outcome = {}

        def run():
            outcome["response"] = _post_raw(
                port, {"version": 1, "code": "jacobi", "H": 4}
            )

        in_flight = threading.Thread(target=run)
        in_flight.start()
        assert entered.wait(10)

        drainer = threading.Thread(target=server.drain)
        drainer.start()
        assert _wait_until(server._draining.is_set)
        release.set()

        in_flight.join(30)
        drainer.join(30)
        thread.join(10)

        # the admitted request was NOT dropped by the drain
        assert outcome["response"][0] == 200
        doc = json.loads(outcome["response"][1])
        assert doc["program"] == "jacobi"
        # the warm cache was persisted on the way out
        assert snapshot.exists()
        from repro.locality.engine import AnalysisCache

        warmed = AnalysisCache.load(str(snapshot))
        assert len(warmed.edges) > 0

        # post-drain requests are refused at the socket
        with pytest.raises(OSError):
            _post_raw(port, {"version": 1, "code": "adi"}, timeout=2)

    def test_drain_is_idempotent(self, tmp_path):
        config = ServiceConfig(port=0, threads=1)
        server, thread = serve_in_thread(config)
        server.drain()
        server.drain()
        thread.join(10)


class TestWarmCacheSharing:
    def test_repeat_analyses_hit_the_warm_cache(self, tmp_path):
        # result_cache=0 disables the response cache, so the repeat runs
        # the full pipeline again — against the shared warm
        # AnalysisCache, which must answer the edge work *and* still
        # produce byte-identical output (relabelling is exact).
        config = ServiceConfig(port=0, threads=2, result_cache=0)
        server, thread = serve_in_thread(config)
        try:
            port = _port(server)
            status1, body1, headers1 = _post_raw(
                port, {"version": 1, "code": "jacobi", "H": 4}
            )
            stats_cold = server.state.cache.snapshot_stats()["stats"]
            status2, body2, headers2 = _post_raw(
                port, {"version": 1, "code": "jacobi", "H": 4}
            )
            stats_warm = server.state.cache.snapshot_stats()["stats"]
            assert status1 == status2 == 200
            assert body1 == body2  # warm-cache run is byte-identical
            # result_cache=0 turns off both the body and the key layer
            assert headers1[SOURCE_HEADER] == "computed"
            assert headers2[SOURCE_HEADER] == "computed"
            assert server.results.stats()["hits"] == 0
            assert server.results.stats()["digests"] == 0
            assert stats_warm["edge_hits"] > stats_cold["edge_hits"]
            assert (
                stats_warm["edge_hits"] + stats_warm["edge_misses"]
                == stats_warm["edge_lookups"]
            )
        finally:
            server.drain()
            thread.join(10)
