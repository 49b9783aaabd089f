"""Child-process side of one benchmark run.

``run.py`` starts this in a fresh interpreter (``run.py --role run`` or
``--role setup``).  The child imports the program, builds its inputs
from the seed (timed separately, so input generation is not counted as
set-up), warms up, prints ``READY`` so the parent can stop the set-up
clock, then replays the workload's fixed op sequence and prints one
``RESULT`` line with everything the parent reports.

A workload is a class with this shape (see :class:`BaseWorkload`):

* ``prepare()`` builds the seeded inputs;
* ``setup()`` warms up (imports, server boot, warm-up cycle);
* ``ops()`` yields ``(kind, callable)`` pairs, one per timed op; a
  callable returns a short string that goes into the work digest;
* ``close()`` releases what ``setup()`` started;
* ``verify()`` runs the untimed output checks and returns mismatches.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Fixed pure-Python loop timed once per run: it does the same work on
#: every run, so its time tracks host speed and tells drift apart from
#: a regression.  It is reported, never used to gate or to normalise.
CALIBRATION_ITERATIONS = 2_000_000


class OpFailed(Exception):
    """An op that failed in a way the workload classified itself."""

    def __init__(self, failure_class: str):
        super().__init__(failure_class)
        self.failure_class = failure_class


def failure_class(exc: BaseException) -> str:
    """``Type at module:line`` of the innermost frame inside ``repro``."""
    if isinstance(exc, OpFailed):
        return exc.failure_class
    package = os.path.join(SRC, "repro") + os.sep
    where = "?"
    tb = exc.__traceback__
    while tb is not None:
        path = tb.tb_frame.f_code.co_filename
        if path.startswith(package):
            where = f"{path[len(package):]}:{tb.tb_lineno}"
        tb = tb.tb_next
    return f"{type(exc).__name__} at {where}"


def calibrate() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def own_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentiles(latencies: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond."""
    xs = sorted(latencies)
    n = len(xs)
    if n > 10:
        tail_rank = n - 11
        tail_pct = 100.0 * (tail_rank + 1) / n
    else:
        tail_rank, tail_pct = n - 1, 100.0
    return {
        "p50": statistics.median(xs),
        "tail": xs[tail_rank],
        "tail_percentile": round(tail_pct, 2),
        "tail_samples_beyond": n - 1 - tail_rank,
    }


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    ``wrap`` replaces a public function on its module with a wrapper
    that records a span around each call; the program calls the wrapper
    through its own deferred imports, so spans sit at the layer
    boundaries without editing the program.  ``restore`` puts every
    original back.
    """

    def __init__(self):
        self.spans = []  # [name, parent index, start, end]
        self._stack = []
        self._patched = []
        self.epoch = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, parent, time.perf_counter() - self.epoch, None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.perf_counter() - self.epoch

    def wrap(self, owner, attr: str, name: str, after=None):
        """Span every call of ``owner.attr``; ``after(args, kwargs, out)``
        runs on each return (to read counters the call produced)."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                out = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        """Per span name: total self time (duration minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = [
            {"name": n, "parent": p, "start_s": s, "end_s": e}
            for n, p, s, e in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": doc, "self_s": self.self_times()}, fh)


def wrap_pipeline(tracer) -> None:
    """Span the layers ``analyze`` calls; it imports them per call."""
    import repro.distribution
    import repro.dsm
    import repro.locality

    tracer.wrap(repro.locality, "build_lcg", "locality.build_lcg")
    tracer.wrap(
        repro.distribution, "extract_constraints", "distribution.constraints"
    )
    tracer.wrap(repro.distribution, "solve_enumerative", "distribution.ilp")
    tracer.wrap(repro.dsm, "execute_with_plan", "dsm.execute")


def add_counters(total: dict, counters) -> None:
    for key, value in (counters or {}).items():
        total[key] = total.get(key, 0) + value


class BaseWorkload:
    """Base class; see the module docstring for the contract."""

    def __init__(self, seed: int, seconds: int, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.counters: dict = {}  # program counters, traced runs only
        self.work: dict = {}  # what the run did; identical per seed

    def prepare(self):
        pass

    def setup(self):
        pass

    def ops(self):
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def close(self):
        pass

    def verify(self) -> list:
        return []

    def layer_metrics(self) -> dict:
        """Per-layer values beyond span self times (traced runs)."""
        return {}

    @contextmanager
    def span(self, name: str):
        if self.tracer is None:
            yield
        else:
            with self.tracer.span(name):
                yield


def run_child(workload_cls, seed: int, seconds: int, traced: bool,
              setup_only: bool, trace_path: str) -> int:
    tracer = Tracer() if traced else None
    wl = workload_cls(seed, seconds, tracer)
    t0 = time.perf_counter()
    wl.prepare()
    gen_s = time.perf_counter() - t0
    try:
        wl.setup()
        print(f"READY {gen_s!r}", flush=True)
        if setup_only:
            return 0

        calibration_s = calibrate()
        latencies = []  # completed ops only
        records = []  # (kind, seconds, completed) for every op
        failures: dict = {}
        digest = hashlib.sha256()
        start = time.perf_counter()
        for kind, op in wl.ops():
            t = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # every failed op is counted by class
                dt = time.perf_counter() - t
                cls = failure_class(exc)
                failures[cls] = failures.get(cls, 0) + 1
                records.append((kind, dt, False))
                digest.update(f"fail:{cls}\n".encode())
                continue
            dt = time.perf_counter() - t
            latencies.append(dt)
            records.append((kind, dt, True))
            digest.update(f"{out}\n".encode())
        wall = time.perf_counter() - start
        rss = wl.peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.restore()
        wl.close()

    mismatches = wl.verify()
    # Latency percentiles cover completed ops; failed ones are counted
    # against the attempts in success_rate.
    attempted = len(records)
    failed = sum(failures.values())
    stats = percentiles(latencies)
    by_kind: dict = {}
    for kind, dt, completed in records:
        if completed:
            by_kind.setdefault(kind, []).append(dt)
    result = {
        "correct": not mismatches,
        "mismatches": mismatches[:20],
        "attempted": attempted,
        "failed": failed,
        "failures": dict(sorted(failures.items())),
        "wall_s": wall,
        "op_time_s": sum(dt for _, dt, _ in records),
        "throughput_per_s": (attempted - failed) / wall,
        "latency_p50_ms": stats["p50"] * 1000.0,
        "latency_tail_ms": stats["tail"] * 1000.0,
        "tail_percentile": stats["tail_percentile"],
        "tail_samples_beyond": stats["tail_samples_beyond"],
        "slowest_ms": [
            round(x * 1000.0, 3) for x in sorted(latencies)[-14:]
        ],
        "peak_rss_mb": rss,
        "success_rate": (attempted - failed) / attempted,
        "error_rate": failed / attempted,
        "calibration_s": calibration_s,
        "kind_p50_ms": {
            k: statistics.median(v) * 1000.0 for k, v in sorted(by_kind.items())
        },
        "work": dict(wl.work, digest=digest.hexdigest()),
    }
    if tracer is not None:
        tracer.write(trace_path)
        layers = {f"{k}_s": v for k, v in tracer.self_times().items()}
        layers.update(wl.layer_metrics())
        result["layers"] = layers
        result["counters"] = dict(sorted(wl.counters.items()))
    print("RESULT " + json.dumps(result, sort_keys=True), flush=True)
    return 0
