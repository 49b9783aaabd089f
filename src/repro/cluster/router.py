"""The cluster front end: ``python -m repro serve --workers N``.

A :class:`ThreadingHTTPServer` that owns no analysis state of its own.
An ``/analyze`` request meets, in order:

1. **the response cache, by body** — the SHA-256 digest of the raw
   body, looked up in the router's
   :class:`~repro.service.coalesce.ResponseCache` before the request is
   parsed: an exact repeat costs one hash and one write
   (``X-Repro-Source: router-bytes``);
2. **the response cache, by structure** — the request is materialized
   (parsed or built, *not* validated: the owning shard validates) just
   far enough to compute the structural
   :func:`~repro.service.protocol.request_key` (``router-key``);
3. **the shard** — the key is looked up on the consistent-hash ring and
   the request proxied to the owning worker process, whose response
   bytes and ``X-Repro-Source`` are forwarded unchanged.  Every repeat
   of a program lands on the shard whose
   :class:`~repro.locality.engine.AnalysisCache` is already warm for it,
   and the N shards warm N disjoint key arcs instead of N copies of the
   same one.

Failure handling, in the order a request meets it:

* **target shard draining** (scale-down in progress) — immediate 503 +
  ``Retry-After``; the blocking client's backoff retries until the
  shard leaves the ring and the key remaps to a survivor;
* **worker death mid-proxy** — the proxy socket fails, the router waits
  one heartbeat for the supervisor's respawn and replays the request
  against the same shard (fresh port, warm snapshot), up to
  ``replay_limit`` times; an admitted request is never dropped, it is
  at-least-once re-executed (deterministic pipeline, so the replayed
  answer is byte-identical);
* **every worker gone** — 503, never a hang.

``POST /jobs`` adds the durable tier (:mod:`repro.cluster.jobs`):
journal first, run through the same dispatch path, journal the result,
replay pending journals at boot.  ``GET /metrics`` aggregates the
shards' counters (:func:`repro.obs.merge_counter_docs`) under
``workers.*`` plus the router's own routing/scaling counters.

The queue-depth autoscaler runs on ``scale_window``: the decision is
:func:`~repro.cluster.supervisor.desired_workers` of the router's
outstanding-request gauge, acted on one spawn or retire per tick.
"""

from __future__ import annotations

import http.client
import json
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Tuple

from .. import __version__
from ..document import dumps_canonical
from ..obs import merge_counter_docs
from ..service.coalesce import SOURCE_HEADER, ResponseCache
from ..service.config import ServiceConfig
from ..service.protocol import (
    PROTOCOL_VERSION,
    AnalyzeRequest,
    ProtocolError,
    build_request_program,
    materialize_request,
    request_key,
)
from ..service.server import JSONHTTPServer, JSONRequestHandler
from ..service.state import ServerMetrics
from ..session.api import mint_session_id, session_route
from .jobs import DONE, JobQueue
from .supervisor import Supervisor, desired_workers

__all__ = ["ClusterRouter", "cluster_in_thread", "main_cluster"]

#: How long a pending-job resubmission waits for the in-flight run
#: before answering 202 (poll ``GET /jobs/<key>``).
_PENDING_POLL = 0.05

#: Shard response headers the router passes through to its client.
_FORWARDED_HEADERS = ("Retry-After", SOURCE_HEADER)


def _error_body(message: str) -> bytes:
    return dumps_canonical({"error": message}).encode("utf-8")


def _decode(payload: bytes) -> dict:
    """A shard's JSON response body as a document."""
    try:
        return json.loads(payload) if payload else {}
    except (json.JSONDecodeError, UnicodeDecodeError):
        return {"error": payload.decode("utf-8", "replace")}


class ClusterRouter(JSONHTTPServer):
    """Consistent-hash router over the supervised worker fleet."""

    daemon_threads = False
    block_on_close = True

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.supervisor = Supervisor(config)
        self.jobs: Optional[JobQueue] = (
            JobQueue(config.queue_dir)
            if config.queue_dir is not None
            else None
        )
        self.metrics = ServerMetrics(latency_window=config.latency_window)
        #: Router-level cache of finished /analyze response bytes: a
        #: repeat of a completed request answers here without a proxy
        #: hop, on top of the cache the owning shard keeps.
        self.results = ResponseCache(config.result_cache)
        self._gauge_lock = threading.Lock()
        self._outstanding = 0  # proxied requests not yet answered
        self._draining = threading.Event()
        self._drain_lock = threading.Lock()
        self._drain_started = False
        self._drain_done = threading.Event()
        self._scale_stop = threading.Event()
        self._scale_thread: Optional[threading.Thread] = None
        self._replay_pool: Optional[ThreadPoolExecutor] = None
        super().__init__((config.host, config.port), _RouterHandler)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Spawn the fleet, replay journaled jobs, start the autoscaler."""
        self.supervisor.start()
        if self.jobs is not None:
            pending = self.jobs.pending()
            if pending:
                self._replay_pool = ThreadPoolExecutor(
                    max_workers=self.config.threads,
                    thread_name_prefix="repro-job-replay",
                )
                for job in pending:
                    self.jobs.stats.bump("replayed")
                    self._replay_pool.submit(self._run_job, job.key,
                                             job.request)
        lo, hi = self.config.scale_bounds()
        if hi > lo:
            self._scale_thread = threading.Thread(
                target=self._scale_loop, name="repro-autoscale", daemon=True
            )
            self._scale_thread.start()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self) -> None:
        """Stop accepting, finish proxied work, drain every worker."""
        with self._drain_lock:
            first = not self._drain_started
            self._drain_started = True
        if not first:
            self._drain_done.wait()
            return
        self._draining.set()
        self._scale_stop.set()
        if self._scale_thread is not None:
            self._scale_thread.join(timeout=5)
        self.shutdown()
        if self._replay_pool is not None:
            self._replay_pool.shutdown(wait=True)
        self.server_close()  # joins in-flight handler threads
        self.supervisor.stop()  # SIGTERM-drains every worker
        self._drain_done.set()

    # -- the proxy path ---------------------------------------------------

    def _note_outstanding(self, delta: int) -> None:
        with self._gauge_lock:
            self._outstanding += delta

    def outstanding(self) -> int:
        with self._gauge_lock:
            return self._outstanding

    def _proxy(self, port: int, method: str, path: str,
               body: Optional[bytes] = None) -> Tuple[int, bytes, dict]:
        """One request to a shard; ``(status, body bytes, headers)``."""
        conn = http.client.HTTPConnection(
            self.config.host, port, timeout=self.config.request_timeout + 10
        )
        try:
            conn.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = response.read()
            headers = {
                name: response.getheader(name)
                for name in _FORWARDED_HEADERS
                if response.getheader(name) is not None
            }
            return response.status, payload, headers
        finally:
            conn.close()

    def dispatch(
        self,
        key,
        request_doc: Optional[dict],
        method: str = "POST",
        path: str = "/analyze",
    ) -> Tuple[int, bytes, dict]:
        """Route one materialized request; ``(status, body, headers)``.

        ``key`` picks the owning shard on the consistent-hash ring —
        the structural request key for ``/analyze``, the session id for
        ``/session/{id}/*`` (which is what makes sessions shard-sticky:
        every operation on a session lands on the worker holding its
        warm state).  The replay loop is the zero-loss guarantee: a
        proxy that dies under us (worker crash) is retried against the
        shard's next generation after a heartbeat, up to
        ``replay_limit`` times.  (A replayed *session* operation may
        answer 404 — the respawned shard lost its session table; the
        client recreates.  Deterministic failure, never a hang.)  The
        shard's response bytes are returned as they arrived.
        """
        body = (
            None
            if request_doc is None
            else dumps_canonical(request_doc).encode("utf-8")
        )
        self._note_outstanding(1)
        try:
            replays = 0
            while True:
                shard = self.supervisor.ring.lookup(key)
                if shard is None:
                    return (
                        503,
                        _error_body("no analysis workers available"),
                        {"Retry-After": "1"},
                    )
                handle = self.supervisor.handle(shard)
                if handle is None or handle.draining.is_set():
                    self.metrics.bump("router.draining_rejects")
                    return (
                        503,
                        _error_body(f"shard {shard} is draining; retry"),
                        {"Retry-After": "1"},
                    )
                try:
                    answer = self._proxy(handle.port, method, path, body)
                except (ConnectionError, OSError,
                        http.client.HTTPException):
                    replays += 1
                    self.metrics.bump("router.replays")
                    if replays > self.config.replay_limit:
                        return (
                            502,
                            _error_body(
                                f"shard {shard} failed {replays} times"
                            ),
                            {},
                        )
                    # Give the supervisor one heartbeat to respawn the
                    # shard, then replay against its next generation.
                    time.sleep(self.config.heartbeat_every)
                    continue
                self.metrics.bump("router.routed")
                return answer
        finally:
            self._note_outstanding(-1)

    def route_analyze(
        self, request: AnalyzeRequest, digest: Optional[bytes] = None
    ) -> Tuple[int, bytes, dict]:
        """Answer one parsed ``/analyze`` from the cache or its shard.

        ``digest`` is the raw body's, filed beside the structural key so
        the next exact repeat is a byte hit.  The program is not
        validated here: the shard does that once, and its 400 is
        forwarded unchanged.
        """
        program, env, back = materialize_request(request)
        key = request_key(request, program, env, back)
        cached = self.results.get(key, digest)
        if cached is not None:
            self.metrics.bump("router.lru_hit")
            return 200, cached, {SOURCE_HEADER: "router-key"}
        status, body, headers = self.dispatch(key, request.to_json())
        if status == 200:
            self.results.put(key, digest, body)
        return status, body, headers

    # -- the session tier --------------------------------------------------

    def route_session_create(self, body: dict) -> Tuple[int, bytes, dict]:
        """``POST /session``: mint the id, pin the shard, proxy.

        The router chooses the session id *before* dispatch so the
        create and every later ``/session/{id}/*`` call hash to the
        same shard — the id is the stickiness key.
        """
        doc = dict(body)
        sid = doc.get("session_id")
        if sid is None:
            sid = mint_session_id()
            doc["session_id"] = sid
        elif not (isinstance(sid, str) and sid):
            return (
                400, _error_body("'session_id' must be a non-empty string"), {}
            )
        return self.dispatch(sid, doc, path="/session")

    def route_session(
        self, sid: str, method: str, path: str,
        body: Optional[dict] = None,
    ) -> Tuple[int, bytes, dict]:
        """Any ``/session/{id}[/verb]`` operation, sticky by id."""
        return self.dispatch(sid, body, method=method, path=path)

    # -- the durable job tier ---------------------------------------------

    def _run_job(self, key: str, request_doc: dict) -> Optional[dict]:
        """Execute one journaled job through the dispatch path."""
        try:
            request = AnalyzeRequest.from_json(request_doc)
            status, body, _ = self.route_analyze(request)
        except ProtocolError:
            status = 400
        if 200 <= status < 300:
            doc = json.loads(body)
            self.jobs.complete(key, doc)
            return doc
        # A journaled job must not be marked done with a transient
        # failure: leave it pending so the next boot replays it.
        self.metrics.bump("router.job_run_failed")
        return None

    def submit_job(self, key: str, request_doc: dict) -> Tuple[int, dict]:
        """``POST /jobs``: journal, run (or dedup), answer."""
        # Materialize fully before journaling: shape errors, unknown
        # codes and unparsable source all answer 400 here, so a journal
        # entry is by construction runnable — a definitively-bad request
        # must not become a pending job that every boot replays and
        # every replay fails.
        build_request_program(AnalyzeRequest.from_json(request_doc))
        job, created = self.jobs.submit(key, request_doc)
        if created:
            result = self._run_job(key, request_doc)
            if result is None:
                return 503, {
                    "job": key,
                    "state": "pending",
                    "error": "job admitted but not yet completed",
                }
            return 200, {
                "job": key, "state": DONE, "cached": False, "result": result,
            }
        if job.state != DONE:
            # Another thread (or the boot replay) is running it; wait
            # for the journaled result rather than racing a duplicate.
            deadline = time.monotonic() + self.config.request_timeout
            while time.monotonic() < deadline:
                job = self.jobs.get(key)
                if job is not None and job.state == DONE:
                    break
                time.sleep(_PENDING_POLL)
        if job is not None and job.state == DONE:
            return 200, {
                "job": key,
                "state": DONE,
                "cached": True,
                "result": job.result,
            }
        return 202, {"job": key, "state": "pending"}

    def job_document(self, key: str) -> Optional[dict]:
        job = self.jobs.get(key) if self.jobs is not None else None
        if job is None:
            return None
        doc = {"job": job.key, "state": job.state}
        if job.state == DONE:
            doc["result"] = job.result
        return doc

    # -- read-only documents ----------------------------------------------

    def health_document(self) -> dict:
        fleet = self.supervisor.describe()
        workers = fleet["workers"]
        ok = bool(workers) and all(
            w["status"] == "ok" for w in workers
        )
        return {
            "status": (
                "draining"
                if self.draining
                else ("ok" if ok else "degraded")
            ),
            "role": "router",
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "workers": workers,
            "ring": fleet["ring"],
        }

    def metrics_document(self) -> dict:
        doc = self.metrics.snapshot()
        fleet = self.supervisor.describe()
        shard_docs = {}
        counters = []
        for worker in fleet["workers"]:
            if worker["status"] != "ok":
                continue
            try:
                status, payload, _ = self._proxy(
                    worker["port"], "GET", "/metrics"
                )
            except (ConnectionError, OSError, http.client.HTTPException):
                continue
            if status != 200:
                continue
            shard_doc = _decode(payload)
            shard_docs[f"shard-{worker['shard']}"] = {
                "in_flight": shard_doc.get("in_flight"),
                "queue_depth": shard_doc.get("queue_depth"),
                "responses": shard_doc.get("responses"),
                "sessions": shard_doc.get("sessions"),
            }
            counters.append(shard_doc.get("counters") or {})
        doc["workers"] = {
            "counters": merge_counter_docs(counters),
            "shards": shard_docs,
            "respawns": fleet["respawns"],
            "retired": fleet["retired"],
            "count": len(fleet["workers"]),
        }
        doc["outstanding"] = self.outstanding()
        doc["result_cache"] = self.results.stats()
        doc["draining"] = self.draining
        if self.jobs is not None:
            doc["jobs"] = self.jobs.snapshot_stats()
        return doc

    def cache_stats_document(self) -> dict:
        doc: dict = {"shards": {}}
        for worker in self.supervisor.describe()["workers"]:
            if worker["status"] != "ok":
                continue
            try:
                status, payload, _ = self._proxy(
                    worker["port"], "GET", "/cache/stats"
                )
            except (ConnectionError, OSError, http.client.HTTPException):
                continue
            if status == 200:
                doc["shards"][f"shard-{worker['shard']}"] = _decode(payload)
        return doc

    # -- autoscale --------------------------------------------------------

    def _scale_once(self) -> None:
        lo, hi = self.config.scale_bounds()
        current = self.supervisor.active_count()
        want = desired_workers(
            self.outstanding(), self.config.threads, current, lo, hi
        )
        if want > current:
            try:
                self.supervisor.spawn_one()
                self.metrics.bump("router.scaled_up")
            except RuntimeError as exc:
                print(f"scale-up failed: {exc}", file=sys.stderr)
        elif want < current:
            if self.supervisor.retire_one() is not None:
                self.metrics.bump("router.scaled_down")

    def _scale_loop(self) -> None:
        while not self._scale_stop.wait(self.config.scale_window):
            self._scale_once()


class _RouterHandler(JSONRequestHandler):
    server: ClusterRouter

    def do_GET(self):
        if self.path == "/healthz":
            self._respond(200, self.server.health_document())
        elif self.path == "/metrics":
            self._respond(200, self.server.metrics_document())
        elif self.path == "/cache/stats":
            self._respond(200, self.server.cache_stats_document())
        elif self.path.startswith("/jobs/"):
            if self.server.jobs is None:
                self._error(404, "job queue not enabled (--queue-dir)")
                return
            doc = self.server.job_document(self.path[len("/jobs/"):])
            if doc is None:
                self._error(404, "no such job")
            else:
                self._respond(200, doc)
        else:
            route = session_route(self.path)
            if route is not None and route[0] == "entity":
                self._send(*self.server.route_session(
                    route[1], "GET", self.path
                ))
                return
            self._error(404, f"no such endpoint {self.path!r}")

    def do_DELETE(self):
        route = session_route(self.path)
        if route is None or route[0] != "entity":
            self._error(404, f"no such endpoint {self.path!r}")
            return
        if self.server.draining:
            self._error(
                503, "router is draining", headers={"Retry-After": "1"}
            )
            return
        self._send(*self.server.route_session(route[1], "DELETE", self.path))

    def do_POST(self):
        s_route = None
        if self.path not in ("/analyze", "/jobs"):
            s_route = session_route(self.path)
            if s_route is None or s_route[0] == "entity":
                self._error(404, f"no such endpoint {self.path!r}")
                return
        if self.server.draining:
            self._error(
                503, "router is draining", headers={"Retry-After": "1"}
            )
            return
        raw = self._read_body()
        if raw is None:
            return
        t0 = time.perf_counter()
        try:
            digest = None
            if self.path == "/analyze":
                digest = ResponseCache.digest(raw)
                cached = self.server.results.get_body(digest)
                if cached is not None:
                    # An exact repeat: answered before it is even parsed.
                    self.server.metrics.bump("router.lru_hit")
                    self._send(200, cached, {SOURCE_HEADER: "router-bytes"})
                    return
            body = self._parse_object(raw)
            if body is None:
                return
            if s_route is not None:
                verb, sid = s_route
                if verb == "create":
                    self._send(*self.server.route_session_create(body))
                else:
                    self._send(*self.server.route_session(
                        sid, "POST", self.path, body
                    ))
            elif self.path == "/analyze":
                try:
                    request = AnalyzeRequest.from_json(body)
                    status, payload, headers = self.server.route_analyze(
                        request, digest
                    )
                except ProtocolError as exc:
                    self._error(400, str(exc))
                    return
                self._send(status, payload, headers)
            else:
                if self.server.jobs is None:
                    self._error(
                        404,
                        "job queue not enabled; start the router with "
                        "--queue-dir",
                    )
                    return
                key = body.get("idempotency_key")
                request_doc = body.get("request")
                if not (isinstance(key, str) and key):
                    self._error(
                        400, "'idempotency_key' must be a non-empty string"
                    )
                    return
                if not isinstance(request_doc, dict):
                    self._error(
                        400, "'request' must be an /analyze request object"
                    )
                    return
                try:
                    status, doc = self.server.submit_job(key, request_doc)
                except ProtocolError as exc:
                    self._error(400, str(exc))
                    return
                self._respond(status, doc)
        except (BrokenPipeError, ConnectionResetError):
            raise
        except Exception as exc:  # defensive: a bug must not kill the thread
            self.server.metrics.bump("router.errors")
            self._error(500, f"internal error: {type(exc).__name__}: {exc}")
        finally:
            self.server.metrics.observe_latency(time.perf_counter() - t0)


def cluster_in_thread(config: ServiceConfig) -> tuple:
    """Start a router (and its fleet) on a background thread.

    Returns ``(router, thread)``; ``config.port = 0`` picks an
    ephemeral port.  Callers own shutdown: ``router.drain()`` then
    ``thread.join()``.
    """
    router = ClusterRouter(config)
    try:
        router.start()
    except BaseException:
        router.supervisor.stop()
        router.server_close()
        raise
    thread = threading.Thread(
        target=router.serve_forever, name="repro-router", daemon=True
    )
    thread.start()
    return router, thread


def main_cluster(config: ServiceConfig) -> int:
    """``python -m repro serve --workers N [--queue-dir DIR]``."""
    try:
        router = ClusterRouter(config)
    except OSError as exc:
        print(
            f"cannot bind {config.host}:{config.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    try:
        router.start()
    except RuntimeError as exc:
        print(f"cluster failed to start: {exc}", file=sys.stderr)
        router.supervisor.stop()
        router.server_close()
        return 1

    host, port = router.server_address[:2]
    lo, hi = config.scale_bounds()
    print(
        f"repro cluster v{__version__} (protocol {PROTOCOL_VERSION}) "
        f"routing on http://{host}:{port} — "
        f"{config.workers} workers (bounds {lo}..{hi}), "
        f"{config.threads} threads each"
        + (f", job queue at {config.queue_dir}" if config.queue_dir else ""),
        file=sys.stderr,
    )

    def on_signal(signum, frame):
        print(
            f"signal {signal.Signals(signum).name}: draining cluster...",
            file=sys.stderr,
        )
        threading.Thread(
            target=router.drain, name="repro-drain", daemon=True
        ).start()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, on_signal)
    try:
        router.serve_forever()
    finally:
        router.drain()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print("cluster drained; shard snapshots saved", file=sys.stderr)
    return 0
