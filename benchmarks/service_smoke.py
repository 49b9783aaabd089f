"""Service smoke: boot the server, hammer it, check the dedup machinery.

Boots an in-process :mod:`repro.service` server, fires ~50 concurrent
requests over a deliberately duplicate-heavy mix of bundled codes, and
asserts the acceptance bar from the serving milestone:

* every request gets a 2xx response,
* at least one response was deduplicated (single-flight coalesce or
  a response-cache hit) — duplicates must not all recompute; the
  byte-keyed hits, structural-key hits and coalesced followers are
  printed separately,
* every response is byte-identical to its serial in-process twin,
* draining persists the warm analysis cache *and* the compiled-plan
  bundle snapshots (both written atomically).

``--cold-boot`` re-runs against snapshots left by a previous invocation
(point ``--snapshot-dir`` at the same directory): a restarted server
must load both files, replay plans instead of re-deriving, and still
answer byte-identically.

``--cluster`` smokes the multi-process tier instead: a sustained mixed
workload against ``serve --workers 4``-style routers at 1 and 4
workers, with one worker SIGKILLed mid-run.  Asserts zero lost
requests, byte-identity with in-process ``analyze()`` throughout, at
least one supervised respawn — and, on runners with ≥ 4 cores, that
4-worker aggregate throughput scales ≥ 3× over 1 worker.

Run as a script (CI does): exits nonzero on any violation.

    PYTHONPATH=src python benchmarks/service_smoke.py
    PYTHONPATH=src python benchmarks/service_smoke.py \
        --snapshot-dir ./state && \
    PYTHONPATH=src python benchmarks/service_smoke.py \
        --snapshot-dir ./state --cold-boot
    PYTHONPATH=src python benchmarks/service_smoke.py --cluster
"""

import argparse
import json
import os
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro import analyze
from repro.codes import ALL_CODES
from repro.service import ServiceClient, ServiceConfig, serve_in_thread
from repro.service.protocol import dumps_canonical

REQUESTS = 50
CODES = ["jacobi", "adi", "tfft2"]  # duplicates by construction
H_VALUES = [4, 8]

#: The cluster workload: unique (code, H) pairs — uniqueness defeats
#: the response cache and single-flight, so throughput measures actual
#: pipeline work spread across the shards, not dedup.
CLUSTER_H_VALUES = [4, 5, 6, 7]
#: Required aggregate speedup from 1 -> 4 workers, asserted only on
#: runners with >= 4 cores (a 1-core container cannot scale processes).
CLUSTER_SCALING = 3.0
CLUSTER_WORKERS = 4


def expected_bodies(H_values):
    """Serial in-process answers, keyed by (code, H)."""
    expected = {}
    for code in CODES:
        builder, env, back = ALL_CODES[code]
        for H in H_values:
            result = analyze(builder(), env=env, H=H, back_edges=back)
            expected[(code, H)] = dumps_canonical(result.to_document())
    return expected


def _cluster_burst(workers: int, expected, kill_one: bool = False):
    """One sustained burst against a ``workers``-wide cluster.

    Returns ``(elapsed_seconds, failures, respawns)``; every request
    outcome is checked for success and byte-identity inside.
    """
    from repro.cluster import cluster_in_thread

    config = ServiceConfig(
        port=0,
        workers=workers,
        threads=2,
        queue_limit=64,
        heartbeat_every=0.2,
    )
    router, thread = cluster_in_thread(config)
    port = router.server_address[1]
    mix = [(code, H) for H in CLUSTER_H_VALUES for code in CODES] * 2
    outcomes = [None] * len(mix)
    failures = []

    started = threading.Event()

    def fire(slot, code, H):
        client = ServiceClient(port=port, retries=8, backoff=0.1,
                               timeout=300)
        try:
            outcomes[slot] = ("ok", code, H, client.analyze(code=code, H=H))
        except Exception as exc:  # recorded, judged after the join
            outcomes[slot] = ("error", code, H, exc)
        started.set()

    killer = None
    if kill_one:

        def kill_a_worker():
            # Wait for the burst to be genuinely in flight, then
            # SIGKILL one worker out from under it.
            started.wait(60)
            victim = router.supervisor.handles()[0]
            print(
                f"SIGKILL shard {victim.shard} (pid {victim.pid}) mid-run"
            )
            os.kill(victim.pid, signal.SIGKILL)

        killer = threading.Thread(target=kill_a_worker, daemon=True)
        killer.start()

    t0 = time.perf_counter()
    threads = [
        threading.Thread(target=fire, args=(slot, code, H))
        for slot, (code, H) in enumerate(mix)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(600)
    elapsed = time.perf_counter() - t0
    if killer is not None:
        killer.join(10)

    metrics = ServiceClient(port=port).metrics()
    respawns = metrics["workers"]["respawns"]
    router.drain()
    thread.join(30)

    errors = [o for o in outcomes if o is None or o[0] == "error"]
    if errors:
        failures.append(
            f"{workers}-worker burst lost {len(errors)} requests: "
            f"{errors[:3]}"
        )
    mismatched = sum(
        1
        for o in outcomes
        if o and o[0] == "ok"
        and dumps_canonical(o[3]) != expected[(o[1], o[2])]
    )
    if mismatched:
        failures.append(
            f"{workers}-worker burst: {mismatched} responses differ "
            f"from serial analyze()"
        )
    print(
        f"{workers} workers: {len(mix)} requests in {elapsed:.2f}s "
        f"({len(mix) / elapsed:.2f} req/s), respawns={respawns}"
    )
    return elapsed, failures, respawns


def cluster_main() -> int:
    """The ``--cluster`` smoke: scaling, worker kill, zero loss."""
    print("computing serial baselines...")
    expected = expected_bodies(CLUSTER_H_VALUES)
    failures = []

    one, fails, _ = _cluster_burst(1, expected)
    failures += fails
    four, fails, respawns = _cluster_burst(
        CLUSTER_WORKERS, expected, kill_one=True
    )
    failures += fails
    if respawns < 1:
        failures.append(
            "the killed worker was never respawned by the supervisor"
        )

    speedup = one / four if four else 0.0
    cores = os.cpu_count() or 1
    print(f"aggregate speedup 1->{CLUSTER_WORKERS} workers: {speedup:.2f}x "
          f"on {cores} cores")
    if cores >= CLUSTER_WORKERS:
        if speedup < CLUSTER_SCALING:
            failures.append(
                f"throughput scaled only {speedup:.2f}x from 1 to "
                f"{CLUSTER_WORKERS} workers (need >= {CLUSTER_SCALING}x)"
            )
    else:
        print(
            f"note: scaling assertion skipped on a {cores}-core runner "
            f"(needs >= {CLUSTER_WORKERS})"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("cluster smoke passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--snapshot-dir",
        metavar="DIR",
        help="directory for cache.pkl and plans.pkl (default: a fresh "
        "temporary directory)",
    )
    parser.add_argument(
        "--cold-boot",
        action="store_true",
        help="require pre-existing snapshots in --snapshot-dir and "
        "assert the restarted server replays plans from them",
    )
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="smoke the multi-process cluster tier instead (scaling, "
        "mid-run worker kill, zero lost requests)",
    )
    args = parser.parse_args(argv)

    if args.cluster:
        return cluster_main()

    if args.snapshot_dir:
        state_dir = Path(args.snapshot_dir)
        state_dir.mkdir(parents=True, exist_ok=True)
    else:
        state_dir = Path(tempfile.mkdtemp(prefix="repro-smoke-"))
    snapshot = state_dir / "cache.pkl"
    plan_snapshot = state_dir / "plans.pkl"

    if args.cold_boot and not (snapshot.exists() and plan_snapshot.exists()):
        print(
            f"FAIL: --cold-boot needs existing snapshots in {state_dir}",
            file=sys.stderr,
        )
        return 1

    config = ServiceConfig(
        port=0,
        threads=4,
        queue_limit=64,  # admit the whole burst; smoke tests dedup, not 429s
        snapshot_path=str(snapshot),
        snapshot_every=10,
        plan_path=str(plan_snapshot),
    )
    server, thread = serve_in_thread(config)
    port = server.server_address[1]
    print(f"server on 127.0.0.1:{port}, {REQUESTS} concurrent requests")

    if args.cold_boot:
        boot_plans = len(server.state.plan_cache.plans)
        print(f"cold boot loaded {boot_plans} plans from {plan_snapshot}")

    mix = [
        (CODES[i % len(CODES)], H_VALUES[i % len(H_VALUES)])
        for i in range(REQUESTS)
    ]
    outcomes = [None] * REQUESTS

    def fire(slot, code, H):
        client = ServiceClient(port=port, retries=6, backoff=0.1)
        try:
            outcomes[slot] = ("ok", code, H, client.analyze(code=code, H=H))
        except Exception as exc:  # recorded, judged after the join
            outcomes[slot] = ("error", code, H, exc)

    threads = [
        threading.Thread(target=fire, args=(slot, code, H))
        for slot, (code, H) in enumerate(mix)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(300)

    client = ServiceClient(port=port)
    metrics = client.metrics()
    plan_stats = server.state.plan_cache.snapshot_stats()
    server.drain()
    thread.join(30)

    failures = []
    errors = [o for o in outcomes if o is None or o[0] == "error"]
    if errors:
        failures.append(f"{len(errors)} requests failed: {errors[:3]}")

    expected = expected_bodies(H_VALUES)
    mismatched = sum(
        1
        for kind, code, H, doc in outcomes
        if kind == "ok" and dumps_canonical(doc) != expected[(code, H)]
    )
    if mismatched:
        failures.append(
            f"{mismatched} responses differ from serial analyze()"
        )

    coalesced = metrics["coalesce"]["coalesced_hits"]
    lru_hits = metrics["result_cache"]["hits"]
    bytes_hits = metrics["result_cache"]["bytes_hits"]
    computed = metrics["counters"].get("analyze.computed", 0)
    print(
        f"bytes_hits={bytes_hits} key_hits={lru_hits - bytes_hits} "
        f"coalesced={coalesced} computed={computed} "
        f"latency_p50_ms={metrics['latency']['p50_ms']} "
        f"latency_p95_ms={metrics['latency']['p95_ms']}"
    )
    if coalesced + lru_hits < 1:
        failures.append(
            "duplicate-heavy burst produced no coalesced or cached hits"
        )

    ok_count = sum(1 for o in outcomes if o and o[0] == "ok")
    responses_2xx = metrics["responses"].get("200", 0)
    print(f"ok={ok_count}/{REQUESTS} (server counted {responses_2xx} 200s)")

    if not snapshot.exists():
        failures.append(f"drain did not write the cache snapshot {snapshot}")
    if not plan_snapshot.exists():
        failures.append(
            f"drain did not write the plan snapshot {plan_snapshot}"
        )

    print(f"plan cache: {json.dumps(plan_stats['stats'], sort_keys=True)}")
    if args.cold_boot:
        if plan_stats["stats"]["load_failed"]:
            failures.append("cold boot failed to load the plan snapshot")
        if boot_plans < 1:
            failures.append(
                "cold boot loaded zero plans from the bundle"
            )
        if plan_stats["stats"]["installed"] < 1:
            failures.append(
                "cold-booted server never replayed a snapshot plan"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("service smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
