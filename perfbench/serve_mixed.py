"""serve_mixed: ``python -m repro serve --workers 2`` driven over HTTP.

One closed-loop client sends one request at a time, each on a new
connection as ``repro.service.ServiceClient`` does, with no retries:
a 429, 503 or any other non-200 answer is a failed op, counted by
status.  ``REPEAT_SHARE`` of the requests repeat a hot set of bundled
``(code, H)`` points with Zipf-like counts; they are answered by the
router LRU, the shard ``ResultLRU`` or single-flight plus serialization
and hardly touch analysis, so dedup-layer changes move the median.  The
rest are generated sources the server has never seen; they carry the
whole pipeline through the router's proxy hop, so analysis changes
move the tail.  The repeat share is well above one half and the
first-seen share well above the tail fraction, so neither percentile
sits on a cluster boundary.

The request multiset is fixed for a given ``--seconds`` (exact Zipf
counts over the hot set; the first-seen sources are the first fuzz
seeds congruent to 2 mod 24); ``--seed`` sets the order.  Some generated programs hold
zero-trip loops, which the server refuses with 400 "empty range" while
in-process ``analyze()`` accepts them; those are counted as failures.

Set-up boots the cluster, waits for a healthy ``/healthz`` and sends
each hot point once, so the timed repeats are repeats.  The verify pass
checks that every 200 response is byte-identical to an in-process
``analyze()`` of the same request.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

from repro import analyze
from repro.document import dumps_canonical
from repro.fuzz import generate
from repro.service.protocol import AnalyzeRequest, build_request_program

from harness import ROOT, SRC, BaseWorkload, OpFailed

#: Hot ``(code, H)`` points in Zipf rank order.  A repeat's latency is
#: set by its code (the router materialises every request): about 4 ms
#: for jacobi, 4.5 adi, 5 redblack, 7 mgrid, 12 swim and 20 tomcatv on
#: the reference host.  The most frequent point is a mid-latency one,
#: with 149 repeats faster and 61 slower, so the median request falls
#: mid-way through mgrid's block of samples instead of on the edge
#: between two codes.
HOT_POINTS = (
    ("mgrid", 4), ("jacobi", 4), ("adi", 4), ("redblack", 4),
    ("swim", 4), ("jacobi", 8), ("swim", 8), ("tomcatv", 4),
    ("tomcatv", 8), ("adi", 8), ("redblack", 8), ("mgrid", 8),
)
FIRST_SEEN_H = 8
REQUESTS_PER_SECOND = 27
REPEAT_SHARE = 0.8
BOOT_TIMEOUT_S = 60


def zipf_counts(n: int, k: int) -> list:
    """``n`` split over ``k`` ranks by weight 1/rank, largest remainder."""
    weights = [1.0 / (r + 1) for r in range(k)]
    total = sum(weights)
    raw = [n * w / total for w in weights]
    counts = [int(x) for x in raw]
    by_remainder = sorted(range(k), key=lambda r: counts[r] - raw[r])
    for r in by_remainder[: n - sum(counts)]:
        counts[r] += 1
    return counts


class Workload(BaseWorkload):
    def prepare(self):
        total = REQUESTS_PER_SECOND * self.seconds
        first = total - round(total * REPEAT_SHARE)
        hot = [{"version": 1, "code": c, "H": H} for c, H in HOT_POINTS]
        requests = []
        for doc, count in zip(hot, zipf_counts(total - first, len(hot))):
            kind = f"repeat:{doc['code']}:{doc['H']}"
            requests.extend([(kind, doc)] * count)
        for i in range(first):
            gen = generate(2 + 24 * i)
            requests.append((
                "first",
                {"version": 1, "source": gen.source, "env": gen.env,
                 "H": FIRST_SEEN_H},
            ))
        random.Random(self.seed).shuffle(requests)
        self.hot = hot
        self.requests = [
            (kind, json.dumps(doc).encode()) for kind, doc in requests
        ]
        self.responses = {}  # request body -> 200 response bytes
        self.proc = None
        self.pids = []

    # -- server lifecycle ---------------------------------------------

    def setup(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "2",
             "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        line = self.proc.stderr.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))
        # Drain the rest of the server's log so its pipe never fills.
        self.log_reader = threading.Thread(
            target=self.proc.stderr.read, daemon=True
        )
        self.log_reader.start()
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            status, body = self._send("GET", "/healthz")
            health = json.loads(body) if status == 200 else {}
            if health.get("status") == "ok":
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"server unhealthy: {status} {body!r}")
            time.sleep(0.1)
        self.pids = [self.proc.pid] + [w["pid"] for w in health["workers"]]
        for doc in self.hot:
            body = json.dumps(doc).encode()
            status, _ = self._send("POST", "/analyze", body)
            if status != 200:
                raise RuntimeError(f"warm-up {doc} answered {status}")
        self.metrics_before = self._metrics()

    def close(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            if hasattr(self, "metrics_before"):
                after = self._metrics()
                self.delta = {
                    k: after[k] - v for k, v in self.metrics_before.items()
                }
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        # The router stops its workers when it drains; one it could not
        # stop (router killed) is stopped here.
        for pid in self.pids[1:]:
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    if b"repro" not in fh.read():
                        continue
                os.kill(pid, signal.SIGKILL)
            except (FileNotFoundError, ProcessLookupError):
                pass
        if hasattr(self, "log_reader"):
            self.log_reader.join(timeout=5)

    def _send(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        except (ConnectionError, OSError) as exc:
            return 0, str(exc).encode()
        finally:
            conn.close()

    def _metrics(self) -> dict:
        status, body = self._send("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        doc = json.loads(body)
        workers = doc["workers"]["counters"]
        return {
            "router_lru_hits": doc["counters"].get("router.lru_hit", 0),
            "result_cache_hits": workers.get("analyze.result_cache_hits", 0),
            "coalesced_hits": workers.get("analyze.coalesced_hits", 0),
            "computed": workers.get("analyze.computed", 0),
        }

    def peak_rss_mb(self) -> float:
        total_kb = 0
        for pid in self.pids:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    # -- the timed ops ------------------------------------------------

    def ops(self):
        for kind, body in self.requests:
            yield kind, (lambda k=kind, b=body: self._op(k, b))

    def _op(self, kind, body):
        with self.span(f"service.{kind.partition(':')[0]}"):
            status, payload = self._send("POST", "/analyze", body)
        if status != 200:
            try:
                message = json.loads(payload).get("error", "")
            except (ValueError, AttributeError):
                message = payload.decode("utf-8", "replace")
            # "...: loop j: empty range: upper -1 < lower 0" -> "empty range"
            parts = message.split(": ")
            reason = parts[-2] if len(parts) > 2 else parts[-1]
            raise OpFailed(f"HTTP {status}: {reason[:60]}")
        self.responses[body] = payload
        return hashlib.sha256(payload).hexdigest()

    # -- results ------------------------------------------------------

    def layer_metrics(self) -> dict:
        delta = self.delta
        repeats = sum(1 for kind, _ in self.requests if kind != "first")
        dedup = (
            delta["router_lru_hits"] + delta["result_cache_hits"]
            + delta["coalesced_hits"]
        )
        rtts: dict = {}
        for name, _, start, end in self.tracer.spans:
            rtts.setdefault(name, []).append((end - start) * 1000.0)
        return {
            "service.repeat_rtt_p50_ms": statistics.median(
                rtts["service.repeat"]
            ),
            "service.first_rtt_p50_ms": statistics.median(
                rtts["service.first"]
            ),
            "cluster.router_lru_hits": delta["router_lru_hits"],
            "service.result_cache_hits": delta["result_cache_hits"],
            "service.coalesced_hits": delta["coalesced_hits"],
            "service.dedup_hit_ratio": dedup / repeats if repeats else 0.0,
            "document.serialize_s": self.serialize_s,
        }

    def verify(self):
        self.work.update(self.delta)
        mismatches = []
        self.serialize_s = 0.0
        for body, payload in self.responses.items():
            request = AnalyzeRequest.from_json(json.loads(body))
            program, env, back = build_request_program(request)
            result = analyze(
                program, env, request.H, back_edges=back,
                execute=request.execute, options=request.options,
            )
            doc = result.to_document()
            doc["metrics"] = None
            t0 = time.perf_counter()
            expected = dumps_canonical(doc).encode()
            self.serialize_s += time.perf_counter() - t0
            if expected != payload:
                label = request.code or f"source#{hashlib.sha256(body).hexdigest()[:8]}"
                mismatches.append(
                    f"{label} H={request.H}: served bytes differ from "
                    f"in-process analyze()"
                )
        self.work["verified_responses"] = len(self.responses)
        return mismatches
