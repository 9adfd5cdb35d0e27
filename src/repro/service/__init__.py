"""Query-as-a-service layer: a long-lived server in front of the engines.

The paper's experiments are single-shot batch evaluations; this package
is what turns the reproduction into something that can sit under
sustained concurrent traffic (the ROADMAP's north star).  It provides:

- a newline-delimited JSON protocol (:mod:`repro.service.protocol`) over
  TCP, spoken by :class:`QueryService` (:mod:`repro.service.server`) and
  the blocking :class:`ServiceClient` (:mod:`repro.service.client`);
- sessions pinning an engine + database, so long-lived engines keep
  their plan caches and compiled units warm across requests;
- prepared/parameterized statements keyed on query *shape*
  (:mod:`repro.service.prepared`): constants are canonicalized into
  parameter holes bound through single-row parameter relations, so
  requests that differ only in constants share one plan and one set of
  compiled units, and re-binding invalidates only the param-dependent
  entries (PR 7's selective retention doing the work);
- one execution path for every engine op: a frame to an executor
  (:class:`~repro.service.worker.WorkerState`) through a bounded queue
  and one pump per executor, with per-request queue-wait timeouts;
- a multi-process worker pool backend (:mod:`repro.service.pool` /
  :mod:`repro.service.worker`): database-affinity sharding across N
  worker processes, primary/replica read routing with read-your-writes
  gating, cross-process reuse of canonical query shapes, and crash
  detection with respawn-from-snapshot (``ServiceConfig.workers``;
  ``0`` runs the executor on one thread of the server process);
- :class:`ServiceStats` (:mod:`repro.service.stats`): per-operation
  latency percentiles, shape-cache and engine-cache hit rates, queue
  depth, per-method planning telemetry, and — in pool mode — per-worker
  dispatch counts and replica-lag gauges, surfaced via the ``stats``
  introspection op (whose ``reset`` flag zeroes the window).

See ``docs/SERVICE.md`` for the protocol spec and a worked client
example; ``benchmarks/bench_pr8_service.py`` is the concurrent traffic
driver that produces the checked-in ``BENCH_PR8.json``, and
``benchmarks/bench_pr10_pool.py`` drives the same workload through the
pool backend for ``BENCH_PR10.json``.
"""

from repro.service.client import ServiceClient, ServiceError, ServiceRetryableError
from repro.service.host import DatabaseHost
from repro.service.pool import WorkerHandle, WorkerPool, plan_assignments
from repro.service.prepared import (
    PreparedStatement,
    PreparedStatementCache,
    QueryShape,
    canonicalize_query,
    shape_from_wire,
    shape_to_wire,
)
from repro.service.protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    RETRYABLE_CODES,
    ProtocolError,
    decode_line,
    encode_message,
    error_response,
    ok_response,
)
from repro.service.server import QueryService, Session, ServiceConfig
from repro.service.stats import LatencyRecorder, ServiceStats

__all__ = [
    "DatabaseHost",
    "ERROR_CODES",
    "LatencyRecorder",
    "MAX_LINE_BYTES",
    "PreparedStatement",
    "PreparedStatementCache",
    "ProtocolError",
    "QueryService",
    "QueryShape",
    "RETRYABLE_CODES",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceRetryableError",
    "ServiceStats",
    "Session",
    "WorkerHandle",
    "WorkerPool",
    "canonicalize_query",
    "decode_line",
    "encode_message",
    "error_response",
    "ok_response",
    "plan_assignments",
    "shape_from_wire",
    "shape_to_wire",
]
