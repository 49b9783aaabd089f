"""One analysis worker process: a full single-process server, sharded.

The supervisor forks this entrypoint once per shard.  Each worker is a
complete :class:`~repro.service.server.AnalysisServer` — admission,
single-flight, response cache, its own warm
:class:`~repro.locality.engine.AnalysisCache` and plan bundle with
shard-private snapshot paths (``ServiceConfig.for_shard``) — bound to
an ephemeral port that is reported back to the supervisor over a pipe.
The configuration crosses the fork as a ``ServiceConfig`` spec string,
so spawning a worker is ``run_worker(spec, conn)`` and nothing else.

SIGTERM is the retire path: graceful drain (finish every admitted
request, write the final snapshots) then exit 0.  Any other death is a
crash the supervisor notices by waitpid/heartbeat and respawns with
``generation + 1`` onto the *same* shard directory — the respawned
worker warm-starts from the dead one's last snapshot.

The ``worker_crash`` fault seam (:mod:`repro.check.faults`) is wired
through the server's ``job_hook``: a generation-0 worker that inherited
an armed seam hard-exits (``os._exit``) on its first admitted job —
mid-request, after admission, the worst case for the router.  Only
generation 0 installs the hook, so the respawned generation serves the
replay instead of crash-looping; the end-to-end test asserts the
request still answers, byte-identical.
"""

from __future__ import annotations

import os
import signal
import sys
import threading

from ..check import faults
from ..service.config import ServiceConfig
from ..service.server import AnalysisServer

__all__ = ["run_worker"]


def _install_crash_seam(server: AnalysisServer, config: ServiceConfig):
    """Arm the inherited ``worker_crash`` seam on a generation-0 worker."""
    if config.generation != 0 or not faults.is_armed("worker_crash"):
        return

    def crash_hook(request, key):
        if faults.fire("worker_crash"):
            # SIGKILL semantics: no drain, no snapshot, no goodbye.
            os._exit(17)

    server.job_hook = crash_hook


def run_worker(spec: str, conn) -> None:
    """Process entrypoint: serve one shard until told to drain.

    ``spec`` is ``ServiceConfig.to_spec()`` of this shard's config
    (``port=0``); ``conn`` a pipe that receives the bound port (or an
    ``("error", message)`` tuple if the server cannot start).
    """
    config = ServiceConfig.from_spec(spec)
    try:
        server = AnalysisServer(config)
    except Exception as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        os._exit(1)

    _install_crash_seam(server, config)

    def on_term(signum, frame):
        threading.Thread(
            target=server.drain, name="repro-worker-drain", daemon=True
        ).start()

    signal.signal(signal.SIGTERM, on_term)
    # The router owns Ctrl-C: a worker ignores the process group's
    # SIGINT and waits for its supervisor's explicit SIGTERM.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    port = server.server_address[1]
    try:
        conn.send(("ok", port))
    finally:
        conn.close()
    if config.verbose:
        print(
            f"shard {config.shard} gen {config.generation} "
            f"(pid {os.getpid()}) on port {port}",
            file=sys.stderr,
        )
    try:
        server.serve_forever()
    finally:
        server.drain()
    os._exit(0)
