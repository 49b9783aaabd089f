"""The long-lived analysis server: ``python -m repro serve``.

Stdlib only: a :class:`ThreadingHTTPServer` front end (one thread per
connection) that *admits* work into a bounded queue feeding a fixed
:class:`~concurrent.futures.ThreadPoolExecutor` worker pool.  The
pieces, in request order:

1. **Response cache, by body** — the SHA-256 digest of the raw
   ``/analyze`` body, looked up in the
   :class:`~repro.service.coalesce.ResponseCache` before the request is
   parsed or admitted: an exact repeat costs one hash and one write and
   needs no pool slot (``X-Repro-Source: shard-bytes``).
2. **Admission** — a counting semaphore sized ``workers + queue_limit``.
   A full queue answers **429** immediately (with ``Retry-After``), so
   overload degrades to fast, explicit backpressure instead of
   unbounded queueing; the blocking client backs off and retries.
3. **Response cache, by structure** — the same cache keyed on the
   structural :func:`~repro.service.protocol.request_key`, so a
   respelled repeat never re-analyses (``shard-key``).
4. **Single-flight** — concurrent identical requests coalesce onto one
   in-flight analysis (:mod:`repro.service.coalesce`); followers share
   the leader's response bytes (``coalesced``).
5. **The analysis** (``computed``) — :func:`repro.analyze` against the
   shared warm :class:`~repro.locality.engine.AnalysisCache`
   (thread-safe), with a per-request :class:`repro.obs.Collector` whose
   counters fold into the server-wide ``/metrics`` totals.
6. **Graceful drain** — SIGTERM/SIGINT stop the accept loop, let every
   queued and in-flight request finish and respond, then write the
   final cache snapshot.  No admitted work is dropped.

Endpoints: ``POST /analyze``, ``GET /healthz``, ``GET /metrics``,
``GET /cache/stats``, and the interactive session tier
(:mod:`repro.session`): ``POST /session``, ``GET /session/{id}``,
``POST /session/{id}/edit``, ``POST /session/{id}/sweep``,
``DELETE /session/{id}`` — a bounded TTL-evicted table of warm
incremental-analysis sessions sharing the server's analysis cache.

The worker pool is deliberately made of *threads*: the pipeline's hot
loops sit in NumPy/symbolic code, the shared caches make most repeat
work O(lookup), and an in-process pool is what lets every request share
one warm cache.  A request's analysis never forks: process-level
parallelism is the cluster's (``serve --workers N``, :mod:`repro.cluster`).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from .. import __version__, Collector, analyze
from ..session.api import (
    SessionLimitError,
    SessionNotFound,
    SessionTable,
    handle_create,
    handle_delete,
    handle_edit,
    handle_get,
    handle_sweep,
    session_route,
)
from ..session.state import SessionError
from .coalesce import SOURCE_HEADER, ResponseCache, SingleFlight
from .config import ServiceConfig
from .protocol import (
    PROTOCOL_VERSION,
    AnalyzeRequest,
    ProtocolError,
    build_request_program,
    dumps_canonical,
    request_key,
)
from .state import ServerMetrics, SharedState

__all__ = [
    "ServiceConfig", "AnalysisServer", "JSONHTTPServer",
    "JSONRequestHandler", "serve_in_thread", "main_serve",
]

#: Upper bound on request bodies (source text is small; anything bigger
#: is a mistake or abuse).
MAX_BODY_BYTES = 4 << 20


class JSONHTTPServer(ThreadingHTTPServer):
    """The threaded HTTP server under both front ends.

    Subclasses provide ``metrics`` (a :class:`ServerMetrics`).
    """

    def handle_error(self, request, client_address):
        # A client that drops its connection (a keep-alive socket closed
        # with a reset, a reader gone before the reply) is traffic, not
        # a handler fault: count it and print nothing.
        if isinstance(
            sys.exc_info()[1], (ConnectionResetError, BrokenPipeError)
        ):
            self.metrics.bump("http.peer_resets")
            return
        super().handle_error(request, client_address)


class AnalysisServer(JSONHTTPServer):
    """ThreadingHTTPServer + the serving state machine."""

    daemon_threads = False  # drain waits for in-flight handler threads
    block_on_close = True

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.state = SharedState(config)
        self.metrics = ServerMetrics(latency_window=config.latency_window)
        self.flights = SingleFlight()
        self.results = ResponseCache(config.result_cache)
        self.sessions = SessionTable(
            limit=config.session_limit, ttl=config.session_ttl
        )
        self.pool = ThreadPoolExecutor(
            max_workers=config.threads, thread_name_prefix="repro-analyze"
        )
        self._admission = threading.BoundedSemaphore(
            config.threads + config.queue_limit
        )
        self._gauge_lock = threading.Lock()
        self._admitted = 0  # admitted, not yet responded
        self._in_flight = 0  # actually running in a worker
        self._draining = threading.Event()
        self._drain_lock = threading.Lock()
        self._drain_started = False
        self._drain_done = threading.Event()
        #: Test seam: called as ``job_hook(request, key)`` inside the
        #: single-flight leader, before the analysis runs.
        self.job_hook = None
        super().__init__((config.host, config.port), _Handler)

    # -- admission ------------------------------------------------------

    def admit(self) -> bool:
        ok = self._admission.acquire(blocking=False)
        if ok:
            with self._gauge_lock:
                self._admitted += 1
        return ok

    def release(self) -> None:
        with self._gauge_lock:
            self._admitted -= 1
        self._admission.release()

    def load(self) -> dict:
        with self._gauge_lock:
            admitted, in_flight = self._admitted, self._in_flight
        return {
            "admitted": admitted,
            "in_flight": in_flight,
            "queue_depth": max(0, admitted - in_flight),
            "capacity": self.config.threads + self.config.queue_limit,
        }

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # -- the job --------------------------------------------------------

    def run_job(self, request: AnalyzeRequest,
                digest: Optional[bytes] = None) -> tuple:
        """Materialize, dedup and analyse one admitted request.

        Returns ``(body, source)``: the canonical response bytes and the
        layer that answered.  ``digest`` is the request body's, filed
        beside the structural key so the next exact repeat is a byte hit.
        """
        with self._gauge_lock:
            self._in_flight += 1
        try:
            program, env, back = build_request_program(request)
            key = request_key(request, program, env, back)
            cached = self.results.get(key, digest)
            if cached is not None:
                self.metrics.bump("analyze.result_cache_hits")
                return cached, "shard-key"

            def compute() -> bytes:
                if self.job_hook is not None:
                    self.job_hook(request, key)
                opts = replace(
                    request.options, analysis_cache=self.state.cache
                )
                if opts.plan_cache is None:
                    # Share the server's plan bundle: every request
                    # records into / replays from one compiled-plan
                    # registry, persisted on the snapshot cadence.
                    opts = replace(
                        opts,
                        plan_cache=self.state.plan_cache,
                        plan=True if opts.plan is None else opts.plan,
                    )
                collector = Collector(
                    trace=request.options.trace, metrics=True
                )
                result = analyze(
                    program,
                    env=env,
                    H=request.H,
                    back_edges=back,
                    execute=request.execute,
                    options=opts,
                    collector=collector,
                )
                doc = result.to_document()
                if not request.options.metrics:
                    doc["metrics"] = None
                self.metrics.merge_counters(collector.counters)
                self.metrics.bump("analyze.computed")
                self.state.note_completed()
                body = dumps_canonical(doc).encode("utf-8")
                # Filed before the flight closes, so no identical
                # request can miss both the flight and the cache.
                self.results.put(key, digest, body)
                return body

            body, leader = self.flights.do(key, compute)
            if leader:
                return body, "computed"
            self.results.put(key, digest, body)  # file this body's digest
            self.metrics.bump("analyze.coalesced_hits")
            return body, "coalesced"
        finally:
            with self._gauge_lock:
                self._in_flight -= 1

    def run_session_job(self, verb: str, sid, body) -> tuple:
        """One session operation; ``(status, doc, headers)``.

        Session requests ride the same admission/pool path as
        ``/analyze`` (the caller handles that); this translates the
        session subsystem's exceptions to HTTP statuses.  Sessions
        share the server's warm :class:`AnalysisCache`, so a session's
        first solve reuses whatever ``/analyze`` traffic already built.
        """
        with self._gauge_lock:
            self._in_flight += 1
        try:
            if verb == "create":
                doc = handle_create(
                    self.sessions, body, cache=self.state.cache
                )
                self.metrics.bump("sessions.created")
            elif verb == "edit":
                doc = handle_edit(self.sessions, sid, body)
                self.metrics.bump("sessions.edits")
            elif verb == "sweep":
                doc = handle_sweep(self.sessions, sid, body)
                self.metrics.bump("sessions.sweeps")
            elif verb == "get":
                doc = handle_get(self.sessions, sid)
            elif verb == "delete":
                doc = handle_delete(self.sessions, sid)
                self.metrics.bump("sessions.deleted")
            else:
                return 404, {"error": f"no such session verb {verb!r}"}, {}
            return 200, doc, {}
        except (ProtocolError, SessionError) as exc:
            return 400, {"error": str(exc)}, {}
        except SessionNotFound:
            return 404, {"error": f"no such session {sid!r}"}, {}
        except SessionLimitError as exc:
            self.metrics.bump("sessions.rejected_full")
            return 429, {"error": str(exc)}, {"Retry-After": "1"}
        finally:
            with self._gauge_lock:
                self._in_flight -= 1

    # -- read-only documents --------------------------------------------

    def health_document(self) -> dict:
        doc = {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
        }
        if self.config.shard is not None:
            doc["shard"] = self.config.shard
            doc["generation"] = self.config.generation
        return doc

    def metrics_document(self) -> dict:
        doc = self.metrics.snapshot()
        doc.update(self.load())
        doc["coalesce"] = {
            "coalesced_hits": self.flights.coalesced,
            "led": self.flights.led,
            "in_flight_keys": self.flights.in_flight(),
        }
        doc["result_cache"] = self.results.stats()
        doc["sessions"] = self.sessions.describe()
        cache = self.state.cache.snapshot_stats()
        doc["analysis_cache"] = {
            "edge_hit_rate": cache["edge_hit_rate"],
            "intra_hit_rate": cache["intra_hit_rate"],
            "entries": cache["entries"],
            "load_failed": cache["stats"].get("load_failed", 0),
        }
        doc["draining"] = self.draining
        return doc

    def cache_stats_document(self) -> dict:
        doc = self.state.stats()
        doc["result_cache"] = self.results.stats()
        return doc

    # -- drain ----------------------------------------------------------

    def drain(self) -> None:
        """Stop accepting, finish all admitted work, snapshot, close.

        Idempotent and safe to call from any non-serving thread;
        concurrent callers block until the first finishes.
        """
        with self._drain_lock:
            first = not self._drain_started
            self._drain_started = True
        if not first:
            self._drain_done.wait()
            return
        self._draining.set()
        self.shutdown()  # stop the accept loop (serve_forever returns)
        self.pool.shutdown(wait=True)  # queued + running jobs finish
        self.server_close()  # joins in-flight handler threads
        self.sessions.close_all()  # release every live session's state
        self.state.close()  # final cache snapshot
        self._drain_done.set()


class JSONRequestHandler(BaseHTTPRequestHandler):
    """JSON plumbing shared by the server's and the router's handlers.

    The owning server provides ``config.verbose`` and ``metrics``.
    """

    protocol_version = "HTTP/1.1"
    #: Idle keep-alive connections time out so a drain is never held
    #: hostage by a client that keeps its socket open.
    timeout = 10

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.config.verbose:
            sys.stderr.write(
                "%s - - [%s] %s\n"
                % (self.address_string(), self.log_date_time_string(),
                   format % args)
            )

    def _send(self, status: int, body: bytes,
              headers: Optional[dict] = None):
        # Counted before the write: a client holding its answer must
        # find it in the next /metrics read.
        self.server.metrics.note_response(status)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _respond(self, status: int, doc, headers: Optional[dict] = None):
        self._send(status, dumps_canonical(doc).encode("utf-8"), headers)

    def _error(self, status: int, message: str,
               headers: Optional[dict] = None):
        self._respond(status, {"error": message}, headers)

    def _read_body(self) -> Optional[bytes]:
        """The raw request body, or ``None`` after answering 400/413."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._error(400, "bad Content-Length")
            return None
        if length <= 0:
            self._error(400, "missing request body")
            return None
        if length > MAX_BODY_BYTES:
            self._error(413, f"request body over {MAX_BODY_BYTES} bytes")
            return None
        return self.rfile.read(length)

    def _parse_object(self, raw: bytes) -> Optional[dict]:
        """``raw`` as a JSON object, or ``None`` after answering 400."""
        try:
            doc = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._error(400, f"request body is not JSON: {exc}")
            return None
        if not isinstance(doc, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return doc


class _Handler(JSONRequestHandler):
    server: AnalysisServer  # set by socketserver

    _session_route = staticmethod(session_route)

    def do_GET(self):
        if self.path == "/healthz":
            self._respond(200, self.server.health_document())
        elif self.path == "/metrics":
            self._respond(200, self.server.metrics_document())
        elif self.path == "/cache/stats":
            self._respond(200, self.server.cache_stats_document())
        else:
            route = self._session_route(self.path)
            if route is not None and route[0] == "entity":
                status, doc, headers = self.server.run_session_job(
                    "get", route[1], None
                )
                self._respond(status, doc, headers)
                return
            self._error(404, f"no such endpoint {self.path!r}")

    def do_DELETE(self):
        route = self._session_route(self.path)
        if route is None or route[0] != "entity":
            self._error(404, f"no such endpoint {self.path!r}")
            return
        status, doc, headers = self.server.run_session_job(
            "delete", route[1], None
        )
        self._respond(status, doc, headers)

    def do_POST(self):
        session_route = None
        if self.path != "/analyze":
            session_route = self._session_route(self.path)
            if session_route is None or session_route[0] == "entity":
                self._error(404, f"no such endpoint {self.path!r}")
                return
        if self.server.draining:
            self._error(
                503, "server is draining", headers={"Retry-After": "1"}
            )
            return
        raw = self._read_body()
        if raw is None:
            return
        if session_route is None:
            t0 = time.perf_counter()
            digest = ResponseCache.digest(raw)
            cached = self.server.results.get_body(digest)
            if cached is not None:
                # An exact repeat: answered before parsing or admission.
                self.server.metrics.bump("analyze.result_cache_hits")
                self._send(200, cached, {SOURCE_HEADER: "shard-bytes"})
                self.server.metrics.observe_latency(time.perf_counter() - t0)
                return
        payload = self._parse_object(raw)
        if payload is None:
            return
        if session_route is None:
            try:
                request = AnalyzeRequest.from_json(payload)
            except ProtocolError as exc:
                self._error(400, str(exc))
                return

        if not self.server.admit():
            self.server.metrics.bump("analyze.rejected_busy")
            self._error(
                429,
                "server at capacity; retry with backoff",
                headers={"Retry-After": "1"},
            )
            return
        t0 = time.perf_counter()
        try:
            if session_route is None:
                future = self.server.pool.submit(
                    self.server.run_job, request, digest
                )
            else:
                verb, sid = session_route
                future = self.server.pool.submit(
                    self.server.run_session_job, verb, sid, payload
                )
            try:
                outcome = future.result(
                    timeout=self.server.config.request_timeout
                )
            except FutureTimeout:
                future.cancel()
                self.server.metrics.bump("analyze.timeouts")
                self._error(
                    504,
                    f"analysis exceeded "
                    f"{self.server.config.request_timeout}s",
                )
                return
            except ProtocolError as exc:
                self._error(400, str(exc))
                return
            except RuntimeError as exc:
                if "cannot schedule new futures" in str(exc):
                    self._error(
                        503, "server is draining",
                        headers={"Retry-After": "1"},
                    )
                    return
                raise
            if session_route is None:
                body, source = outcome
                self._send(200, body, {SOURCE_HEADER: source})
            else:
                status, doc, headers = outcome
                self._respond(status, doc, headers)
        except (BrokenPipeError, ConnectionResetError):
            raise
        except Exception as exc:  # defensive: a bug must not kill the thread
            self.server.metrics.bump("analyze.errors")
            self._error(500, f"internal error: {type(exc).__name__}: {exc}")
        finally:
            self.server.release()
            self.server.metrics.observe_latency(time.perf_counter() - t0)


def serve_in_thread(config: ServiceConfig) -> tuple:
    """Start a server on a background thread; ``(server, thread)``.

    ``config.port = 0`` picks an ephemeral port — read it back from
    ``server.server_address``.  Callers own shutdown: ``server.drain()``
    then ``thread.join()``.
    """
    server = AnalysisServer(config)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server, thread


def main_serve(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the locality-analysis service: POST /analyze, "
            "GET /healthz, GET /metrics, GET /cache/stats — and, with "
            "--workers N (N >= 2) or --queue-dir, the sharded "
            "multi-process cluster with POST /jobs."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8377)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="analysis worker PROCESSES; >= 2 starts the consistent-hash "
        "cluster router (each worker owns its own warm cache shard)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=4,
        help="analysis threads per worker process",
    )
    parser.add_argument(
        "--min-workers",
        type=int,
        default=None,
        help="autoscaler floor on worker processes (default: --workers)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="autoscaler ceiling on worker processes (default: --workers)",
    )
    parser.add_argument(
        "--queue",
        type=int,
        default=16,
        help="admission queue beyond the threads; overflow answers 429",
    )
    parser.add_argument(
        "--queue-dir",
        metavar="DIR",
        help="durable idempotent job queue: POST /jobs journals every "
        "batch request to DIR (atomic fsync-rename) and replays "
        "unfinished jobs on boot",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="per-request analysis timeout in seconds (504 on expiry)",
    )
    parser.add_argument(
        "--snapshot",
        metavar="FILE",
        help="warm-start the shared analysis cache from FILE and "
        "periodically pickle it back (same format as --opt cache=FILE)",
    )
    parser.add_argument(
        "--snapshot-dir",
        metavar="DIR",
        help="root directory for per-shard cache/plan snapshots "
        "(DIR/shard-N/{cache,plans}.pkl in cluster mode; "
        "DIR/{cache,plans}.pkl single-process)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=16,
        metavar="N",
        help="snapshot the cache every N completed analyses",
    )
    parser.add_argument(
        "--plan-snapshot",
        metavar="FILE",
        help="load the compiled-plan bundle from FILE at boot (plans + "
        "compile/refutation banks, same format as --opt "
        "plan_cache=FILE) and save it back on the snapshot cadence",
    )
    parser.add_argument(
        "--result-cache",
        type=int,
        default=128,
        metavar="N",
        help="LRU capacity for finished /analyze responses (by request "
        "body digest and by structural key; 0 disables both)",
    )
    parser.add_argument(
        "--session-limit",
        type=int,
        default=64,
        metavar="N",
        help="bounded live interactive-session table; a full table "
        "answers POST /session with 429 + Retry-After until a "
        "session is deleted or expires",
    )
    parser.add_argument(
        "--session-ttl",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="idle sessions are closed and their caches freed after "
        "this long",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every request"
    )
    args = parser.parse_args(argv)

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        threads=args.threads,
        min_workers=args.min_workers,
        max_workers=args.max_workers,
        queue_limit=args.queue,
        queue_dir=args.queue_dir,
        request_timeout=args.timeout,
        snapshot_path=args.snapshot,
        snapshot_dir=args.snapshot_dir,
        snapshot_every=args.snapshot_every,
        plan_path=args.plan_snapshot,
        result_cache=args.result_cache,
        session_limit=args.session_limit,
        session_ttl=args.session_ttl,
        verbose=args.verbose,
    )
    if config.clustered:
        from ..cluster import main_cluster

        return main_cluster(config)
    try:
        server = AnalysisServer(config)
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1

    host, port = server.server_address[:2]
    print(
        f"repro service v{__version__} (protocol {PROTOCOL_VERSION}) "
        f"listening on http://{host}:{port} — "
        f"{config.threads} threads, queue {config.queue_limit}",
        file=sys.stderr,
    )

    def on_signal(signum, frame):
        print(
            f"signal {signal.Signals(signum).name}: draining...",
            file=sys.stderr,
        )
        threading.Thread(
            target=server.drain, name="repro-drain", daemon=True
        ).start()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, on_signal)
    try:
        server.serve_forever()
    finally:
        server.drain()  # idempotent; waits for a signal-started drain
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print("drained; cache snapshot saved", file=sys.stderr)
    return 0
