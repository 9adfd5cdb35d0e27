"""The query service: a long-lived asyncio TCP server over the engines.

Architecture (see ``docs/SERVICE.md`` for the wire-level spec):

- One :class:`DatabaseHost` per registered database owns the
  :class:`~repro.relalg.database.Database`, one lazily-created engine
  per backend name (so plan caches and compiled units live as long as
  the server), and the statement registry: a
  :class:`PreparedStatementCache` that canonicalizes query shapes and
  assigns their ids, and never plans.
- :class:`Session` objects pin a database + engine + default planning
  method for a client; they are bookkeeping only and cost nothing to
  hold open.
- Engine ops (``prepare`` / ``execute`` / ``query`` / ``update``) take
  one path, :meth:`QueryService._engine_op`: protocol, session, registry
  lookup and routing on the event loop, then one frame to an executor —
  :meth:`repro.service.worker.WorkerState.handle`, the only code that
  plans, binds, executes or applies a delta — and the reply built from
  its ack.  Each executor has one bounded queue drained by one pump
  (``repro.service.pool``): a full queue fails fast with ``overloaded``;
  timeouts are *queue-wait* deadlines, checked at dequeue, so an expired
  request fails with ``timeout`` without executing.  Execution itself is
  not preempted.
- ``workers = 0`` (the default) runs the executor on one thread of this
  process, over the front end's own hosts; that thread serializes all
  engine and catalog access, so the service needs no locks.
  ``workers = N`` runs it in N worker processes behind framed-pickle
  sockets: writes commit on each database's primary worker and are
  mirrored into this process's authoritative catalog copy before being
  fanned out to read replicas.
- Cheap ops (``ping``, ``stats``, ``open_session``, ``close_session``)
  run inline on the event loop and never queue behind engine work.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass, field

from repro.core.planner import METHODS
from repro.datalog import parse_rule
from repro.relalg.compiled import DEFAULT_PLAN_CACHE_SIZE, ENGINE_NAMES
from repro.relalg.database import Database
from repro.service.host import DatabaseHost, _map_exception, _RequestError
from repro.service.pool import LocalPool, WorkerPool
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
from repro.service.worker import WorkerState

#: Scalar types accepted as parameter values and update-row entries
#: (everything Datalog constants can be, plus what JSON can carry).
_SCALAR_TYPES = (str, int, float)

#: Executor refusals after which an update is durable nowhere: it never
#: ran, or ran on a primary that crashed and was respawned from the
#: front-end copy (which does not contain it).
_NOT_APPLIED = frozenset({"overloaded", "timeout", "worker_failed", "shutdown"})


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`QueryService` (the admission-control
    knobs are documented in docs/SERVICE.md)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read it back via .port
    queue_limit: int = 256
    request_timeout: float = 30.0
    max_sessions: int = 1024
    prepared_cache_size: int = 256
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE
    default_engine: str = "interpreted"
    default_method: str = "bucket"
    #: Number of pool worker processes.  0 (the default) runs the
    #: executor on one thread of the server process.
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
        caches = {
            "prepared_cache_size": self.config.prepared_cache_size,
            "plan_cache_size": self.config.plan_cache_size,
        }
        # The front end's own executor state: with workers = 0 the
        # executor thread runs it; with a pool it is the mirror.
        self._state = WorkerState(databases, caches)
        self.hosts: dict[str, DatabaseHost] = self._state.hosts
        self.stats = ServiceStats()
        self._sessions: dict[int, Session] = {}
        self._next_session = 1
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping = False
        options = {"queue_limit": self.config.queue_limit, "stats": self.stats}
        if self.config.workers > 0:
            self._pool = WorkerPool(
                sorted(self.hosts),
                self.config.workers,
                self.config.replicas,
                self._snapshot_databases_for,
                **caches,
                **options,
            )
        else:
            self._pool = LocalPool(self._state, **options)

    def _snapshot_databases_for(self, worker_id: int) -> dict[str, Database]:
        """Bootstrap payload for one (re)spawning pool worker: this
        process's authoritative catalog copies for the databases that
        worker hosts."""
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
        """Start the executors, then bind the listening socket."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        await self._pool.start()
        self._server = await asyncio.start_server(
            self._handle_client,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES + 1024,
        )

    async def serve_forever(self) -> None:
        """Run until cancelled (used by ``python -m repro serve``)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener, fail queued and in-flight requests with
        ``shutdown``, and release the executors."""
        self._stopping = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
        await self._pool.stop()
        if server is not None:
            with contextlib.suppress(Exception):
                await server.wait_closed()

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
                label, response = await self._engine_op(request_id, op, message)
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
    # Engine ops: one frame to an executor, the reply from its ack
    # ------------------------------------------------------------------
    async def _engine_op(self, request_id, op: str, message: dict):
        """Validate on the loop, send one frame, answer from the ack.

        A registry hit on ``prepare`` needs no executor; a miss sends a
        ``prepare`` frame to the database's primary, so planning errors
        surface at ``prepare``, and a shape its executor refused leaves
        the registry again.  Writes go to the primary; reads go where
        :meth:`WorkerPool.route_read` sends them.
        """
        assert self._loop is not None
        if self._stopping:
            raise _RequestError("shutdown", "server stopping")
        session = self._resolve_session(message)
        db = session.database
        timeout = request_field(message, "timeout", float, required=False)
        if timeout is None:
            timeout = self.config.request_timeout
        deadline = self._loop.time() + max(timeout, 0.0)
        handle = self._pool.primary(db)
        if op == "update":
            frame = {
                "kind": "update",
                "db": db,
                "relation": request_field(message, "relation", str),
                "insert": self._check_rows(message.get("insert", []), "insert"),
                "delete": self._check_rows(message.get("delete", []), "delete"),
            }
        else:
            host = self.hosts[db]
            if op == "execute":
                statement_id = request_field(message, "statement", int)
                params = message.get("params", [])
                self._check_params(params)
                statement = host.prepared.by_id(statement_id)
                if statement is None:
                    raise _RequestError(
                        "unknown_statement", f"no prepared statement {statement_id}"
                    )
                hit = True
            else:
                rule = request_field(message, "rule", str)
                method = self._resolve_method(message, session)
                statement, params, hit, _ = host.register(parse_rule(rule), method)
                if op == "prepare" and hit:
                    return self._prepared(request_id, statement, params, hit)
            if op != "prepare":
                need = max(
                    (
                        session.writes.get(atom.relation, 0)
                        for atom in statement.shape.template.atoms
                    ),
                    default=0,
                )
                handle = self._pool.route_read(db, need)
            frame = {
                "kind": "prepare" if op == "prepare" else "exec",
                "db": db,
                "engine": session.engine,
                "method": statement.method,
                "statement": statement.statement_id,
                "shape": shape_to_wire(statement.shape),
                "params": list(params),
            }
        ack = await self._pool.call(handle, frame, deadline)
        if op == "update":
            return self._commit(request_id, session, frame, handle, ack)
        if not ack["ok"]:
            if not hit:
                host.prepared.discard(statement)
            raise _RequestError(ack["code"], ack["message"])
        if op == "prepare":
            return self._prepared(request_id, statement, params, hit)
        return (
            "execute" if op == "execute" else "query_warm" if hit else "query_cold",
            ok_response(
                request_id,
                statement=statement.statement_id,
                columns=list(statement.columns),
                rows=ack["rows"],
                cardinality=ack["cardinality"],
                cached=hit,
                rebound=ack["rebound"],
                elapsed_s=ack["elapsed"],
            ),
        )

    def _commit(self, request_id, session, frame, primary, ack):
        """Answer an update from its primary's ack.

        With a pool, a delta the primary executed (fully, or partially
        before an error) is then replayed on the front-end copy and
        fanned out, so every copy converges on the identical state.  Its
        write sequence number is allocated only *after* the ack, in ack
        order — dense over writes that actually committed — and the
        ack-then-mirror-then-forward order is what makes respawn
        snapshots safe: the front-end copy always contains every delta
        any replica was ever asked to apply.
        """
        if ack.get("code") in _NOT_APPLIED:
            raise _RequestError(ack["code"], ack["message"])
        if self.config.workers > 0:
            db = frame["db"]
            seq = self._pool.next_seq(db)
            applied = dict(frame, kind="apply", seq=seq)
            self._state.handle(applied)
            self._pool.record_commit(db, seq, primary)
            self._pool.forward_apply(applied)
            session.writes[frame["relation"]] = seq
        if not ack["ok"]:
            raise _RequestError(ack["code"], ack["message"])
        return "update", ok_response(
            request_id,
            relation=frame["relation"],
            inserted=ack["inserted"],
            deleted=ack["deleted"],
            version=ack["version"],
        )

    @staticmethod
    def _prepared(request_id, statement, values, hit):
        return "prepare", ok_response(
            request_id,
            statement=statement.statement_id,
            shape=statement.shape.text,
            params=statement.param_count,
            columns=list(statement.columns),
            method=statement.method,
            cached=hit,
            default_params=list(values),
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
    # Introspection
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero every traffic counter and latency window (and the
        executors' dispatch counters) so subsequent snapshots describe a
        clean measurement window."""
        self.stats.reset()
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
        if self.config.workers > 0:
            out["pool"] = self._pool.snapshot()
        return out


__all__ = [
    "DatabaseHost",
    "QueryService",
    "ServiceConfig",
    "Session",
]
