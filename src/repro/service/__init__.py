"""``repro.service`` — the concurrent locality-analysis server.

The full paper pipeline (ARDs → PDs/IDs → LCG → ILP distribution → DSM
execution) behind a long-lived, stdlib-only HTTP service with request
coalescing, a shared warm analysis cache and explicit backpressure:

* :mod:`.config` — :class:`ServiceConfig`, the one frozen
  configuration value every serving process is built from,
* :mod:`.protocol` — the versioned JSON request/response schema over
  the wire document of :mod:`repro.document` (the serializer the CLI's
  ``--json`` mode shares),
* :mod:`.server` — ``python -m repro serve``: bounded admission, a
  thread worker pool, per-request timeouts, 429 on overload, graceful
  SIGTERM drain,
* :mod:`.coalesce` — single-flight dedup + a byte-keyed response cache,
* :mod:`.state` — the shared warm :class:`AnalysisCache` and its
  periodic disk snapshots, plus server-wide metrics,
* :mod:`.client` — ``python -m repro query``: a blocking client with
  retry and exponential backoff.

The multi-process scale-out tier (``serve --workers N``) lives in
:mod:`repro.cluster` and composes these same pieces per shard.
"""

from .client import ServiceClient, ServiceError, ServiceUnavailable
from .coalesce import ResponseCache, SingleFlight
from .config import ServiceConfig
from .protocol import (
    PROTOCOL_VERSION,
    AnalyzeRequest,
    ProtocolError,
    dumps_canonical,
    response_document,
)
from .server import AnalysisServer, serve_in_thread
from .state import ServerMetrics, SharedState

__all__ = [
    "PROTOCOL_VERSION",
    "AnalysisServer",
    "AnalyzeRequest",
    "ProtocolError",
    "ResponseCache",
    "ServerMetrics",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceUnavailable",
    "SharedState",
    "SingleFlight",
    "dumps_canonical",
    "response_document",
    "serve_in_thread",
]
