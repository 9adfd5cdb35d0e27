"""The query service: a long-lived asyncio TCP server over the engines.

Architecture (see ``docs/SERVICE.md`` for the wire-level spec):

- One :class:`DatabaseHost` per registered database owns the
  :class:`~repro.relalg.database.Database`, one lazily-created engine
  per backend name (so plan caches and compiled units live as long as
  the server), and the :class:`PreparedStatementCache` of planned query
  shapes.
- :class:`Session` objects pin a database + engine + default planning
  method for a client; they are bookkeeping only and cost nothing to
  hold open.
- Engine work (``prepare`` / ``execute`` / ``query`` / ``update``) is
  admitted through one bounded queue — a full queue fails fast with
  ``overloaded`` — and drained by a single worker that dequeues up to
  ``batch_max`` requests at a time and runs them on a one-thread
  executor.  That single thread serializes all engine and catalog
  access, so the service needs no locks anywhere.  Per-request timeouts
  are *queue-wait* deadlines, checked at dequeue: an expired request is
  failed with ``timeout`` without executing.  Execution itself is not
  preempted.
- Cheap ops (``ping``, ``stats``, ``open_session``, ``close_session``)
  run inline on the event loop and never queue behind engine work.
- With ``ServiceConfig.workers > 0`` the single-thread executor is
  replaced by the multi-process pool backend (``repro.service.pool``):
  canonicalization and statement bookkeeping stay here on the loop,
  engine execution is dispatched to worker processes, writes commit on
  each database's primary worker and are mirrored into this process's
  authoritative catalog copy before being fanned out to read replicas.
  ``workers = 0`` (the default) keeps the legacy in-process path.
"""

from __future__ import annotations

import asyncio
import contextlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.planner import METHODS
from repro.datalog import parse_rule
from repro.relalg.compiled import DEFAULT_PLAN_CACHE_SIZE, ENGINE_NAMES
from repro.relalg.database import Database
from repro.service.host import DatabaseHost, _map_exception, _RequestError
from repro.service.pool import PoolRequest, WorkerPool
from repro.service.prepared import shape_to_wire
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode_message,
    error_response,
    ok_response,
    request_field,
)
from repro.service.stats import ServiceStats
from repro.service.worker import apply_catalog_delta

#: Scalar types accepted as parameter values and update-row entries
#: (everything Datalog constants can be, plus what JSON can carry).
_SCALAR_TYPES = (str, int, float)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`QueryService` (the admission-control
    knobs are documented in docs/SERVICE.md)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read it back via .port
    queue_limit: int = 256
    request_timeout: float = 30.0
    batch_max: int = 16
    max_sessions: int = 1024
    prepared_cache_size: int = 256
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE
    default_engine: str = "interpreted"
    default_method: str = "bucket"
    #: Number of pool worker processes.  0 (the default) keeps the
    #: legacy single-thread in-process executor.
    workers: int = 0
    #: Read replicas per database when the pool is on (clamped to
    #: ``workers - 1``; ignored for ``workers = 0``).
    replicas: int = 1


@dataclass
class Session:
    """A client-visible binding of database + engine + default method."""

    session_id: int
    database: str
    engine: str
    method: str
    requests: int = 0
    #: Pool mode only: highest write sequence this session produced per
    #: relation, used to gate replica reads for read-your-writes.
    writes: dict[str, int] = field(default_factory=dict)


class _Work:
    """One admitted engine request waiting in the queue."""

    __slots__ = ("thunk", "future", "deadline", "request_id", "enqueued")

    def __init__(self, thunk, future, deadline, request_id, enqueued):
        self.thunk = thunk
        self.future = future
        self.deadline = deadline
        self.request_id = request_id
        self.enqueued = enqueued


class QueryService:
    """The asyncio server; see the module docstring for the design.

    Usage::

        service = QueryService({"default": edge_database()})
        await service.start()
        ...  # service.port is now bound
        await service.stop()
    """

    _ENGINE_OPS = frozenset({"prepare", "execute", "query", "update"})

    def __init__(
        self,
        databases: dict[str, Database],
        config: ServiceConfig | None = None,
    ) -> None:
        if not databases:
            raise ValueError("QueryService needs at least one database")
        self.config = config or ServiceConfig()
        self.hosts = {
            name: DatabaseHost(
                name,
                database,
                prepared_cache_size=self.config.prepared_cache_size,
                plan_cache_size=self.config.plan_cache_size,
            )
            for name, database in databases.items()
        }
        self.stats = ServiceStats()
        self._sessions: dict[int, Session] = {}
        self._next_session = 1
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue[_Work] | None = None
        self._worker_task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping = False
        self._pool: WorkerPool | None = None
        if self.config.workers > 0:
            self._pool = WorkerPool(
                sorted(self.hosts),
                self.config.workers,
                self.config.replicas,
                self._snapshot_databases_for,
                queue_limit=self.config.queue_limit,
                prepared_cache_size=self.config.prepared_cache_size,
                plan_cache_size=self.config.plan_cache_size,
            )

    def _snapshot_databases_for(self, worker_id: int) -> dict[str, Database]:
        """Bootstrap payload for one (re)spawning pool worker: this
        process's authoritative catalog copies for the databases that
        worker hosts."""
        assert self._pool is not None
        hosted = self._pool._hosted(worker_id)
        return {name: self.hosts[name].database for name in hosted}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listening socket and start the chosen backend
        (worker pool, or the legacy in-process admission worker)."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        if self._pool is not None:
            await self._pool.start()
        else:
            self._queue = asyncio.Queue(maxsize=max(1, self.config.queue_limit))
            # One thread: all engine/catalog access is serialized here,
            # so the engines and the Database need no locking.
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-service"
            )
        self._server = await asyncio.start_server(
            self._handle_client,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES + 1024,
        )
        if self._pool is None:
            self._worker_task = self._loop.create_task(self._worker())

    async def serve_forever(self) -> None:
        """Run until cancelled (used by ``python -m repro serve``)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener, fail queued requests with ``shutdown``,
        and release the executor."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        if self._worker_task is not None:
            self._worker_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._worker_task
        if self._queue is not None:
            while not self._queue.empty():
                item = self._queue.get_nowait()
                if not item.future.done():
                    item.future.set_result(
                        (
                            None,
                            error_response(
                                item.request_id, "shutdown", "server stopping"
                            ),
                        )
                    )
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._pool is not None:
            await self._pool.stop()
        self._server = None
        self._worker_task = None
        self._executor = None
        self._queue = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        encode_message(
                            error_response(
                                None, "bad_request", "message line too long"
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    message = decode_line(line)
                except ProtocolError as exc:
                    self.stats.record_error(exc.code)
                    writer.write(
                        encode_message(error_response(None, exc.code, exc.message))
                    )
                    await writer.drain()
                    continue
                response = await self._dispatch(message)
                writer.write(encode_message(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, message: dict) -> dict:
        assert self._loop is not None
        request_id = message.get("id")
        started = self._loop.time()
        try:
            op = request_field(message, "op", str)
        except ProtocolError as exc:
            self.stats.record_error(exc.code)
            return error_response(request_id, exc.code, exc.message)
        self.stats.record_request(op)
        label = op
        try:
            if op == "ping":
                response = ok_response(request_id, pong=True)
            elif op == "stats":
                reset = bool(
                    request_field(message, "reset", bool, required=False)
                )
                # The snapshot is taken first, so a resetting stats call
                # returns the final pre-reset window.
                response = ok_response(
                    request_id, stats=self.snapshot(), reset=reset
                )
                if reset:
                    self.reset_stats()
            elif op == "open_session":
                response = self._op_open_session(request_id, message)
            elif op == "close_session":
                response = self._op_close_session(request_id, message)
            elif op in self._ENGINE_OPS:
                if self._pool is not None:
                    label, response = await self._admit_pool(
                        request_id, op, message
                    )
                else:
                    label, response = await self._admit(request_id, op, message)
                label = label or op
            else:
                response = error_response(
                    request_id, "unknown_op", f"unknown op {op!r}"
                )
        except (ProtocolError, _RequestError) as exc:
            response = error_response(request_id, exc.code, exc.message)
        except Exception as exc:  # defensive: never kill the connection
            code, text = _map_exception(exc)
            response = error_response(request_id, code, text)
        if response.get("ok"):
            self.stats.record_latency(label, self._loop.time() - started)
        else:
            self.stats.record_error(response["error"]["code"])
        return response

    def _resolve_session(self, message: dict) -> Session:
        session_id = request_field(message, "session", int)
        session = self._sessions.get(session_id)
        if session is None:
            raise _RequestError(
                "unknown_session", f"no open session {session_id}"
            )
        session.requests += 1
        return session

    def _resolve_method(self, message: dict, session: Session) -> str:
        method = request_field(message, "method", str, required=False)
        if method is None:
            return session.method
        if method not in METHODS:
            raise _RequestError(
                "bad_request",
                f"unknown method {method!r}; expected one of {list(METHODS)}",
            )
        return method

    # ------------------------------------------------------------------
    # Fast ops (inline on the event loop)
    # ------------------------------------------------------------------
    def _op_open_session(self, request_id, message: dict) -> dict:
        if len(self._sessions) >= self.config.max_sessions:
            return error_response(
                request_id,
                "overloaded",
                f"session limit {self.config.max_sessions} reached",
            )
        database = (
            request_field(message, "database", str, required=False) or "default"
        )
        if database not in self.hosts:
            return error_response(
                request_id,
                "unknown_database",
                f"unknown database {database!r}; have {sorted(self.hosts)}",
            )
        engine = (
            request_field(message, "engine", str, required=False)
            or self.config.default_engine
        )
        if engine not in ENGINE_NAMES:
            return error_response(
                request_id,
                "bad_request",
                f"unknown engine {engine!r}; expected one of {list(ENGINE_NAMES)}",
            )
        method = (
            request_field(message, "method", str, required=False)
            or self.config.default_method
        )
        if method not in METHODS:
            return error_response(
                request_id,
                "bad_request",
                f"unknown method {method!r}; expected one of {list(METHODS)}",
            )
        session = Session(self._next_session, database, engine, method)
        self._next_session += 1
        self._sessions[session.session_id] = session
        self.stats.sessions_opened += 1
        return ok_response(
            request_id,
            session=session.session_id,
            database=database,
            engine=engine,
            method=method,
        )

    def _op_close_session(self, request_id, message: dict) -> dict:
        session = self._resolve_session(message)
        del self._sessions[session.session_id]
        self.stats.sessions_closed += 1
        return ok_response(
            request_id, session=session.session_id, requests=session.requests
        )

    # ------------------------------------------------------------------
    # Engine ops (through the admission queue)
    # ------------------------------------------------------------------
    async def _admit(self, request_id, op: str, message: dict):
        assert self._loop is not None and self._queue is not None
        if self._stopping:
            return None, error_response(request_id, "shutdown", "server stopping")
        session = self._resolve_session(message)
        host = self.hosts[session.database]
        thunk = self._build_thunk(request_id, op, message, session, host)
        timeout = request_field(message, "timeout", float, required=False)
        if timeout is None:
            timeout = self.config.request_timeout
        now = self._loop.time()
        deadline = now + timeout if timeout > 0 else now
        work = _Work(thunk, self._loop.create_future(), deadline, request_id, now)
        try:
            self._queue.put_nowait(work)
        except asyncio.QueueFull:
            return None, error_response(
                request_id,
                "overloaded",
                f"admission queue full ({self.config.queue_limit})",
            )
        self.stats.set_queue_depth(self._queue.qsize())
        return await work.future

    # ------------------------------------------------------------------
    # Engine ops, pool backend
    # ------------------------------------------------------------------
    async def _admit_pool(self, request_id, op: str, message: dict):
        """Dispatch one engine op onto the worker pool.

        Canonicalization, statement-registry lookups, and update
        validation stay inline on the event loop (they are cheap and
        must see one consistent registry); only engine execution and
        delta application cross into worker processes.
        """
        assert self._loop is not None and self._pool is not None
        if self._stopping:
            return None, error_response(request_id, "shutdown", "server stopping")
        session = self._resolve_session(message)
        host = self.hosts[session.database]
        timeout = request_field(message, "timeout", float, required=False)
        if timeout is None:
            timeout = self.config.request_timeout
        now = self._loop.time()
        deadline = now + timeout if timeout > 0 else now
        if op == "prepare":
            rule = request_field(message, "rule", str)
            method = self._resolve_method(message, session)
            query = parse_rule(rule)
            statement, values, hit = host.prepare(query, method)
            return op, ok_response(
                request_id,
                statement=statement.statement_id,
                shape=statement.shape.text,
                params=statement.param_count,
                columns=list(statement.columns),
                method=method,
                cached=hit,
                default_params=list(values),
            )
        if op == "update":
            return await self._pool_update(
                request_id, message, session, host, deadline
            )
        if op == "query":
            rule = request_field(message, "rule", str)
            method = self._resolve_method(message, session)
            query = parse_rule(rule)
            statement, params, hit = host.prepare(query, method)
            label = "query_warm" if hit else "query_cold"
            cached = hit
        else:  # execute
            statement_id = request_field(message, "statement", int)
            params = message.get("params", [])
            self._check_params(params)
            statement = host.prepared.by_id(statement_id)
            if statement is None:
                raise _RequestError(
                    "unknown_statement", f"no prepared statement {statement_id}"
                )
            label = "execute"
            cached = True
        return await self._pool_execute(
            request_id, session, statement, tuple(params), label, cached, deadline
        )

    async def _pool_execute(
        self, request_id, session, statement, params, label, cached, deadline
    ):
        """Route one read to an eligible worker and await its result.

        The read must observe every write this session made to any
        relation the statement scans, so it carries the maximum of
        those write sequence numbers; the router only considers workers
        whose replication watermark has reached it.
        """
        assert self._loop is not None and self._pool is not None
        need = 0
        for atom in statement.shape.template.atoms:
            seq = session.writes.get(atom.relation, 0)
            if seq > need:
                need = seq
        handle = self._pool.route_read(session.database, need)
        frame = {
            "kind": "exec",
            "db": session.database,
            "engine": session.engine,
            "method": statement.method,
            "statement": statement.statement_id,
            "shape": shape_to_wire(statement.shape),
            "params": list(params),
        }
        item = PoolRequest(
            frame=frame,
            future=self._loop.create_future(),
            deadline=deadline,
            request_id=request_id,
        )
        if not self._pool.submit(handle, item):
            return None, error_response(
                request_id,
                "overloaded",
                f"admission queue full ({self.config.queue_limit})",
            )
        self.stats.set_queue_depth(self._pool.queued)
        raw = await item.future
        if not raw.get("ok"):
            return None, error_response(
                request_id,
                raw.get("code", "internal"),
                raw.get("message", "worker error"),
            )
        statement.uses += 1  # keep front-end statement stats meaningful
        return label, ok_response(
            request_id,
            statement=statement.statement_id,
            columns=list(statement.columns),
            rows=raw["rows"],
            cardinality=raw["cardinality"],
            cached=cached,
            rebound=raw["rebound"],
            elapsed_s=raw["elapsed"],
        )

    async def _pool_update(self, request_id, message, session, host, deadline):
        """Commit one write on its primary worker, then mirror + fan out.

        The write sequence number is allocated only *after* the primary
        acks, in ack order — so sequence numbers are dense over writes
        that actually committed, and a timed-out or failed write leaves
        no replication gap.  The ack-then-mirror-then-forward order is
        what makes respawn snapshots safe: the front-end copy always
        contains every delta any replica was ever asked to apply.
        """
        assert self._loop is not None and self._pool is not None
        relation = request_field(message, "relation", str)
        insert = self._check_rows(message.get("insert", []), "insert")
        delete = self._check_rows(message.get("delete", []), "delete")
        db = session.database
        primary = self._pool.primary(db)
        frame = {
            "kind": "update",
            "db": db,
            "relation": relation,
            "insert": insert,
            "delete": delete,
        }
        item = PoolRequest(
            frame=frame,
            future=self._loop.create_future(),
            deadline=deadline,
            request_id=request_id,
        )
        if not self._pool.submit(primary, item):
            return None, error_response(
                request_id,
                "overloaded",
                f"admission queue full ({self.config.queue_limit})",
            )
        self.stats.set_queue_depth(self._pool.queued)
        raw = await item.future
        if not raw.get("ok") and raw.get("code") in (
            "timeout",
            "worker_failed",
            "shutdown",
        ):
            # The delta is not durable anywhere: it either never ran, or
            # ran on a primary that crashed and was respawned from the
            # front-end copy (which does not contain it).
            return None, error_response(
                request_id, raw["code"], raw["message"]
            )
        # The primary executed the delta (fully, or partially before an
        # error).  Replay it deterministically on the front-end copy and
        # fan it out so every copy converges on the identical state.
        seq = self._pool.next_seq(db)
        inserted, deleted, error = apply_catalog_delta(
            host.database, relation, insert, delete
        )
        self._pool.record_commit(db, seq, primary)
        self._pool.forward_apply(db, relation, insert, delete, seq)
        if inserted or deleted:
            session.writes[relation] = seq
        if error is not None:
            code, text = _map_exception(error)
            return None, error_response(request_id, code, text)
        return "update", ok_response(
            request_id,
            relation=relation,
            inserted=inserted,
            deleted=deleted,
            version=host.database.version(relation),
        )

    def _build_thunk(self, request_id, op, message, session, host):
        """Validate the request *now* (on the loop) and return the
        closure the executor thread will run."""
        if op == "prepare":
            rule = request_field(message, "rule", str)
            method = self._resolve_method(message, session)

            def thunk():
                query = parse_rule(rule)
                statement, values, hit = host.prepare(query, method)
                return op, ok_response(
                    request_id,
                    statement=statement.statement_id,
                    shape=statement.shape.text,
                    params=statement.param_count,
                    columns=list(statement.columns),
                    method=method,
                    cached=hit,
                    default_params=list(values),
                )

            return thunk

        if op == "execute":
            statement_id = request_field(message, "statement", int)
            params = message.get("params", [])
            self._check_params(params)

            def thunk():
                statement = host.prepared.by_id(statement_id)
                if statement is None:
                    raise _RequestError(
                        "unknown_statement",
                        f"no prepared statement {statement_id}",
                    )
                result, rebound, elapsed = host.execute_statement(
                    statement, tuple(params), session.engine
                )
                return "execute", self._result_response(
                    request_id, statement, result, True, rebound, elapsed
                )

            return thunk

        if op == "query":
            rule = request_field(message, "rule", str)
            method = self._resolve_method(message, session)

            def thunk():
                query = parse_rule(rule)
                statement, values, hit = host.prepare(query, method)
                result, rebound, elapsed = host.execute_statement(
                    statement, values, session.engine
                )
                label = "query_warm" if hit else "query_cold"
                return label, self._result_response(
                    request_id, statement, result, hit, rebound, elapsed
                )

            return thunk

        if op == "update":
            relation = request_field(message, "relation", str)
            insert = self._check_rows(message.get("insert", []), "insert")
            delete = self._check_rows(message.get("delete", []), "delete")

            def thunk():
                inserted, deleted = host.update(relation, insert, delete)
                return "update", ok_response(
                    request_id,
                    relation=relation,
                    inserted=inserted,
                    deleted=deleted,
                    version=host.database.version(relation),
                )

            return thunk

        raise _RequestError("unknown_op", f"unknown op {op!r}")  # pragma: no cover

    @staticmethod
    def _result_response(request_id, statement, result, cached, rebound, elapsed):
        rows = [list(row) for row in sorted(result.rows, key=repr)]
        return ok_response(
            request_id,
            statement=statement.statement_id,
            columns=list(statement.columns),
            rows=rows,
            cardinality=result.cardinality,
            cached=cached,
            rebound=rebound,
            elapsed_s=elapsed,
        )

    @staticmethod
    def _check_params(params) -> None:
        if not isinstance(params, list):
            raise _RequestError("bad_request", "params must be an array")
        for value in params:
            if not isinstance(value, _SCALAR_TYPES):
                raise _RequestError(
                    "bad_request",
                    f"parameter values must be scalars, got {value!r}",
                )

    @staticmethod
    def _check_rows(rows, field_name: str) -> list[tuple]:
        if not isinstance(rows, list):
            raise _RequestError("bad_request", f"{field_name} must be an array")
        out = []
        for row in rows:
            if not isinstance(row, list) or not all(
                isinstance(v, _SCALAR_TYPES) for v in row
            ):
                raise _RequestError(
                    "bad_request",
                    f"{field_name} rows must be arrays of scalars, got {row!r}",
                )
            out.append(tuple(row))
        return out

    # ------------------------------------------------------------------
    # The admission worker
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        assert self._loop is not None and self._queue is not None
        while True:
            work = await self._queue.get()
            batch = [work]
            while len(batch) < max(1, self.config.batch_max):
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.stats.record_batch(len(batch))
            self.stats.set_queue_depth(self._queue.qsize())
            now = self._loop.time()
            runnable = []
            for item in batch:
                if now > item.deadline:
                    if not item.future.done():
                        item.future.set_result(
                            (
                                None,
                                error_response(
                                    item.request_id,
                                    "timeout",
                                    "request exceeded its queue-wait deadline",
                                ),
                            )
                        )
                else:
                    runnable.append(item)
            if runnable:
                await self._loop.run_in_executor(
                    self._executor, self._run_batch, runnable
                )

    def _run_batch(self, items: list[_Work]) -> None:
        """Executor thread: run each thunk, hand results back to the loop."""
        assert self._loop is not None
        for item in items:
            try:
                outcome = item.thunk()
            except Exception as exc:
                code, text = _map_exception(exc)
                outcome = (None, error_response(item.request_id, code, text))
            self._loop.call_soon_threadsafe(self._deliver, item, outcome)

    @staticmethod
    def _deliver(item: _Work, outcome) -> None:
        if not item.future.done():
            item.future.set_result(outcome)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero every traffic counter and latency window (and, in pool
        mode, the per-worker dispatch counters) so subsequent snapshots
        describe a clean measurement window."""
        self.stats.reset()
        if self._pool is not None:
            self._pool.reset_counters()

    def snapshot(self) -> dict:
        """The ``stats`` op's payload.  Counters are read without
        synchronization — values are advisory, not transactional."""
        out = {
            "service": self.stats.snapshot(),
            "sessions": len(self._sessions),
            "config": {
                "queue_limit": self.config.queue_limit,
                "request_timeout": self.config.request_timeout,
                "batch_max": self.config.batch_max,
                "max_sessions": self.config.max_sessions,
                "prepared_cache_size": self.config.prepared_cache_size,
                "plan_cache_size": self.config.plan_cache_size,
                "default_engine": self.config.default_engine,
                "default_method": self.config.default_method,
                "workers": self.config.workers,
                "replicas": self.config.replicas,
            },
            "databases": {
                name: host.info() for name, host in sorted(self.hosts.items())
            },
        }
        if self._pool is not None:
            out["pool"] = self._pool.snapshot()
        return out


__all__ = [
    "DatabaseHost",
    "QueryService",
    "ServiceConfig",
    "Session",
]
