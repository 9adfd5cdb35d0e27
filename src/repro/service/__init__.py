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
  worker processes, each database on the one worker that runs all its
  reads and writes, cross-process reuse of canonical query shapes, and
  crash detection with respawn-from-snapshot (``ServiceConfig.workers``;
  ``0`` runs the executor on one thread of the server process);
- :class:`ServiceStats` (:mod:`repro.service.stats`): per-operation
  latency percentiles, shape-cache and engine-cache hit rates, queue
  depth, per-method planning telemetry, and — in pool mode — per-worker
  dispatch counts and liveness, surfaced via the ``stats``
  introspection op (whose ``reset`` flag zeroes the window).

See ``docs/SERVICE.md`` for the protocol spec and a worked client
example; the layered benchmark's ``serve_warm``, ``serve_mixed`` and
``serve_pool`` workloads (``benchmarks/layers/``) measure served traffic
on both backends.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "DatabaseHost": "host",
        "ERROR_CODES": "protocol",
        "LatencyRecorder": "stats",
        "MAX_LINE_BYTES": "protocol",
        "PreparedStatement": "prepared",
        "PreparedStatementCache": "prepared",
        "ProtocolError": "protocol",
        "QueryService": "server",
        "QueryShape": "prepared",
        "RETRYABLE_CODES": "protocol",
        "ServiceClient": "client",
        "ServiceConfig": "server",
        "ServiceError": "client",
        "ServiceRetryableError": "client",
        "ServiceStats": "stats",
        "Session": "server",
        "WorkerHandle": "pool",
        "WorkerPool": "pool",
        "canonicalize_query": "prepared",
        "decode_line": "protocol",
        "encode_message": "protocol",
        "error_response": "protocol",
        "ok_response": "protocol",
        "plan_assignments": "pool",
        "shape_from_wire": "prepared",
        "shape_to_wire": "prepared",
    },
)
