"""End-to-end cluster tests: router + forked workers on ephemeral ports.

Each test boots a real fleet (``cluster_in_thread``), so these cover the
acceptance bar of the cluster milestone: responses byte-identical to a
serial in-process :func:`repro.analyze`, a SIGKILLed worker's in-flight
request replayed (never lost), draining shards answering 503 that the
blocking client retries through, and the durable job tier's
idempotent-resubmission and boot-replay contracts.
"""

import contextlib
import http.client
import json
import time

import pytest

from repro import analyze
from repro.check import faults
from repro.cluster import JobQueue, cluster_in_thread
from repro.codes import ALL_CODES
from repro.document import dumps_canonical
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    serve_in_thread,
)
from repro.service.coalesce import SOURCE_HEADER
from repro.service.protocol import (
    AnalyzeRequest,
    build_request_program,
    request_key,
)

def expected_doc(code: str, H: int = 4) -> str:
    """The canonical bytes a cluster answer must reproduce exactly."""
    builder, env, back = ALL_CODES[code]
    result = analyze(builder(), env=env, H=H, back_edges=back)
    return dumps_canonical(json.loads(dumps_canonical(result.to_document())))


def canonical(doc) -> str:
    return dumps_canonical(json.loads(dumps_canonical(doc)))


@contextlib.contextmanager
def cluster(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("threads", 2)
    kwargs.setdefault("heartbeat_every", 0.2)
    router, thread = cluster_in_thread(ServiceConfig(**kwargs))
    try:
        yield router, router.server_address[1]
    finally:
        router.drain()
        thread.join(timeout=60)


def post(port: int, body: bytes):
    """One raw POST /analyze; ``(status, body bytes, source header)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(
            "POST", "/analyze", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return (
            response.status, response.read(),
            response.getheader(SOURCE_HEADER),
        )
    finally:
        conn.close()


def request_body(code: str, H: int = 4, **extra) -> bytes:
    return json.dumps({"version": 1, "code": code, "H": H, **extra}).encode()


def owner_shard(router, code: str, H: int = 4):
    """Which shard the ring gives this bundled-code request."""
    request = AnalyzeRequest(code=code, H=H)
    program, env, back = build_request_program(request)
    return router.supervisor.ring.lookup(
        request_key(request, program, env, back)
    )


class TestProxyPath:
    def test_byte_identity_and_warm_affinity(self):
        with cluster() as (router, port):
            client = ServiceClient(port=port, retries=6, backoff=0.1)
            first = client.analyze(code="jacobi", H=4)
            repeat = client.analyze(code="jacobi", H=4)
            other = client.analyze(code="adi", H=4)

            assert canonical(first) == expected_doc("jacobi")
            assert canonical(repeat) == canonical(first)
            assert canonical(other) == expected_doc("adi")

            health = client.health()
            assert health["role"] == "router"
            assert health["status"] == "ok"
            assert [w["shard"] for w in health["workers"]] == [0, 1]
            assert sorted(health["ring"]) == [0, 1]

            metrics = client.metrics()
            # the repeat is answered by the router's own result LRU and
            # never dispatched; only the two unique requests were routed
            assert metrics["counters"]["router.routed"] == 2
            assert metrics["counters"]["router.lru_hit"] == 1
            assert metrics["result_cache"]["hits"] == 1
            assert metrics["result_cache"]["bytes_hits"] == 1
            assert metrics["workers"]["count"] == 2

            # a respelled body is a structural hit, then a byte hit;
            # neither reaches a shard
            respelled = b'{"H": 4, "code": "jacobi"}'
            for source in ("router-key", "router-bytes"):
                status, body, header = post(port, respelled)
                assert status == 200 and header == source
                assert body.decode() == expected_doc("jacobi")
            metrics = client.metrics()
            assert metrics["counters"]["router.routed"] == 2
            assert metrics["counters"]["router.lru_hit"] == 3
            assert metrics["result_cache"]["bytes_hits"] == 2

    def test_source_header_names_every_layer(self):
        # capacity 1: each new key evicts the router's only entry, so a
        # later request can miss the router yet hit its shard's cache
        with cluster(result_cache=1) as (router, port):
            a = "jacobi"
            b = next(
                code for code in ("adi", "redblack", "mgrid", "swim")
                if owner_shard(router, code) != owner_shard(router, a)
            )
            default_env = ALL_CODES[a][1]
            steps = [
                (request_body(a), "computed"),
                (request_body(b), "computed"),
                # same structural key, other canonical body at the shard
                (request_body(a, env=default_env), "shard-key"),
                # the router holds only a; b's shard still holds b
                (request_body(b), "shard-bytes"),
                (request_body(b), "router-bytes"),
                (b'{"H": 4, "code": "%s"}' % b.encode(), "router-key"),
            ]
            for body, source in steps:
                status, payload, header = post(port, body)
                assert (status, header) == (200, source), body
                code = json.loads(body)["code"]
                assert payload.decode() == expected_doc(code)

    def test_zero_capacity_turns_off_both_keys(self):
        with cluster(result_cache=0) as (router, port):
            for _ in range(2):
                status, payload, header = post(port, request_body("jacobi"))
                assert (status, header) == (200, "computed")
                assert payload.decode() == expected_doc("jacobi")
            stats = router.results.stats()
            assert stats["hits"] == 0 and stats["digests"] == 0
            assert router.metrics.snapshot()["counters"]["router.routed"] == 2

    def test_invalid_program_400_matches_single_server(self):
        # the router does not validate; the shard's 400 is forwarded
        # unchanged, byte for byte what a single server answers
        source = """program over
  param N
  array A(4)
  phase F0
    doall i = 0, N - 1
      A(i + 10) = 1
    end doall
  end phase
end program
"""
        body = json.dumps(
            {"version": 1, "source": source, "env": {"N": 8}, "H": 2}
        ).encode()
        server, thread = serve_in_thread(ServiceConfig(port=0, threads=1))
        try:
            expected = post(server.server_address[1], body)
        finally:
            server.drain()
            thread.join(10)
        assert expected[0] == 400
        assert b"program does not validate" in expected[1]
        with cluster() as (router, port):
            for _ in range(2):  # a 400 is never cached
                assert post(port, body) == expected
            assert router.results.stats()["digests"] == 0
            assert router.metrics.snapshot()["counters"]["router.routed"] == 2

    def test_draining_router_rejects_new_work(self):
        with cluster(workers=2) as (router, port):
            client = ServiceClient(port=port, retries=0)
            client.analyze(code="jacobi", H=4)
        # after drain, the socket is closed entirely
        with pytest.raises(ServiceError):
            ServiceClient(port=port, retries=0).analyze(code="jacobi", H=4)


class TestWorkerCrash:
    def test_crashed_worker_request_is_replayed_not_lost(self):
        # Armed before the fork so generation-0 workers inherit the
        # seam: the first job each runs calls os._exit(17) mid-request.
        with faults.inject("worker_crash"):
            with cluster(workers=2) as (router, port):
                client = ServiceClient(
                    port=port, retries=8, backoff=0.2, timeout=300
                )
                doc = client.analyze(code="jacobi", H=4)
                assert canonical(doc) == expected_doc("jacobi")

                shard = owner_shard(router, "jacobi")
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    handle = router.supervisor.handle(shard)
                    if handle is not None and handle.generation >= 1:
                        break
                    time.sleep(0.1)
                assert router.supervisor.handle(shard).generation >= 1

                metrics = client.metrics()
                assert metrics["counters"].get("router.replays", 0) >= 1
                assert metrics["workers"]["respawns"] >= 1

                # the respawned generation serves repeats normally
                again = client.analyze(code="jacobi", H=4)
                assert canonical(again) == expected_doc("jacobi")


class TestDraining503:
    def test_draining_shard_answers_503_with_retry_after(self):
        with cluster(workers=2) as (router, port):
            shard = owner_shard(router, "jacobi")
            handle = router.supervisor.handle(shard)
            handle.draining.set()
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=30)
                body = json.dumps(
                    {"version": 1, "code": "jacobi", "H": 4}
                ).encode()
                conn.request(
                    "POST", "/analyze", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                response.read()
                assert response.status == 503
                assert response.getheader("Retry-After") == "1"
                conn.close()
                snapshot = router.metrics.snapshot()
                assert snapshot["counters"]["router.draining_rejects"] >= 1
            finally:
                handle.draining.clear()
            # the 503 was not cached: the same body now reaches the shard
            status, payload, header = post(port, body)
            assert (status, header) == (200, "computed")
            assert payload.decode() == expected_doc("jacobi")

    def test_client_backoff_rides_out_the_drain(self):
        """The blocking client retries the router's 503 until the
        shard stops draining — no caller-visible failure."""
        with cluster(workers=2) as (router, port):
            shard = owner_shard(router, "jacobi")
            handle = router.supervisor.handle(shard)
            handle.draining.set()

            sleeps = []

            def sleep_then_undrain(delay):
                sleeps.append(delay)
                handle.draining.clear()  # drain "completes" mid-backoff

            client = ServiceClient(
                port=port, retries=4, backoff=0.05,
                sleep=sleep_then_undrain,
            )
            doc = client.analyze(code="jacobi", H=4)
            assert canonical(doc) == expected_doc("jacobi")
            # the 503 really was served and really was retried
            assert len(sleeps) >= 1
            snapshot = router.metrics.snapshot()
            assert snapshot["counters"]["router.draining_rejects"] >= 1


class TestDurableJobs:
    REQUEST = {"version": 1, "code": "jacobi", "H": 4}

    def test_idempotent_resubmission_is_byte_identical(self, tmp_path):
        with cluster(workers=1, queue_dir=str(tmp_path)) as (router, port):
            client = ServiceClient(port=port, retries=6, backoff=0.1)

            first = client.request("POST", "/jobs", {
                "idempotency_key": "batch-1", "request": self.REQUEST,
            })
            assert first["state"] == "done"
            assert first["cached"] is False
            assert canonical(first["result"]) == expected_doc("jacobi")

            again = client.request("POST", "/jobs", {
                "idempotency_key": "batch-1", "request": self.REQUEST,
            })
            assert again["state"] == "done"
            assert again["cached"] is True
            assert canonical(again["result"]) == canonical(first["result"])

            fetched = client.request("GET", "/jobs/batch-1")
            assert fetched["state"] == "done"
            assert canonical(fetched["result"]) == canonical(first["result"])

            stats = client.metrics()["jobs"]
            assert stats["submitted"] == 1
            assert stats["deduped"] == 1
            assert stats["jobs"]["done"] == 1

    def test_invalid_job_is_rejected_before_journaling(self, tmp_path):
        with cluster(workers=1, queue_dir=str(tmp_path)) as (router, port):
            client = ServiceClient(port=port, retries=0)
            with pytest.raises(ServiceError) as excinfo:
                client.request("POST", "/jobs", {
                    "idempotency_key": "bad-1",
                    "request": {"version": 1, "code": "no-such-code"},
                })
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                client.request("POST", "/jobs", {"request": self.REQUEST})
            assert excinfo.value.status == 400
            # neither bad submission reached the journal
            assert router.jobs.snapshot_stats()["submitted"] == 0

    def test_pending_journal_is_replayed_at_boot(self, tmp_path):
        # a router that crashed right after acknowledging the job
        JobQueue(tmp_path).submit("replay-1", self.REQUEST)

        with cluster(workers=1, queue_dir=str(tmp_path)) as (router, port):
            deadline = time.monotonic() + 120
            doc = None
            while time.monotonic() < deadline:
                doc = router.job_document("replay-1")
                if doc is not None and doc["state"] == "done":
                    break
                time.sleep(0.1)
            assert doc is not None and doc["state"] == "done"
            assert canonical(doc["result"]) == expected_doc("jacobi")
            assert router.jobs.snapshot_stats()["replayed"] >= 1

        # the completed result survives yet another restart
        rebooted = JobQueue(tmp_path)
        job = rebooted.get("replay-1")
        assert job is not None and job.state == "done"
        assert canonical(job.result) == expected_doc("jacobi")
