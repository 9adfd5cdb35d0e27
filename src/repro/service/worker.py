"""The executor: :class:`WorkerState`, and the child-process side of
``repro.service.pool``.

``WorkerState.handle(frame)`` is the only code that plans, binds,
executes or applies a delta for a served request.  The service drives
it on one thread of its own process (``--workers 0``, over the front
end's own hosts) or in worker processes, each hosting the three engines
for the databases it was assigned (as primary or replica).  The parent
never pickles plans, engines, or compiled units across the boundary —
only the *canonical query shape* plus parameter bindings cross the wire
(see ``repro.service.prepared.shape_to_wire``), and each worker compiles
a shape once on first sight and reuses the plan, the compiled units, and
the dependency-tracked caches for the life of the process.  That is the
cross-process plan-reuse contract: N workers hold N warm copies of the
hot statement set instead of recomputing per request.

The IPC layer is deliberately tiny: length-prefixed pickle frames over
a loopback TCP socket the worker opens back to the parent.  Pickle is
safe here because both ends are the same trusted process tree on
127.0.0.1 and the connection is gated by a per-pool random secret
exchanged in the ``hello`` frame; nothing untrusted ever reaches this
socket (clients speak the JSON protocol to the front end only).

Frames the worker understands (``kind`` field):

- ``bootstrap`` — databases + cache-size config; sent once after the
  handshake (and again from scratch when a crashed worker is respawned,
  carrying the parent's current catalog state).
- ``prepare`` — build and plan the local statement for the parent's
  statement id (a planning error is the reply).
- ``exec`` — execute one prepared shape: build/fetch the local
  statement for the parent's statement id, bind params, run on the
  requested engine, return sorted rows.
- ``update`` / ``apply`` — apply a row-level delta to the local
  catalog copy.  ``update`` (primary) surfaces errors to the parent;
  ``apply`` (replica, and the parent's mirror) acknowledges
  unconditionally — both run the same deterministic
  :func:`apply_catalog_delta`, which is how primary, replicas, and the
  parent's own mirror copy stay byte-identical even for
  partially-failing deltas.
- ``ping`` — health check.
- ``stop`` — clean shutdown.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import struct
import sys
import time
from collections import OrderedDict

from repro.service.host import DatabaseHost, _map_exception, apply_catalog_delta
from repro.service.prepared import PreparedStatement, shape_from_wire

#: Frame header: one unsigned 32-bit big-endian payload length.
FRAME_HEADER = struct.Struct("!I")

#: Upper bound on one IPC frame (bootstrap frames carry whole pickled
#: databases; anything beyond this indicates a protocol bug).
MAX_FRAME_BYTES = 256 * 1024 * 1024


def send_frame(sock: socket.socket, obj) -> None:
    """Write one length-prefixed pickle frame (blocking)."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(data)} bytes exceeds {MAX_FRAME_BYTES}")
    sock.sendall(FRAME_HEADER.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise EOFError("peer closed the IPC connection")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket):
    """Read one length-prefixed pickle frame (blocking)."""
    (length,) = FRAME_HEADER.unpack(_recv_exact(sock, FRAME_HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise EOFError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return pickle.loads(_recv_exact(sock, length))


class WorkerState:
    """Everything one executor owns: hosted databases, per-database
    engines (built lazily, kept warm), and the local statement store."""

    def __init__(self, databases: dict, config: dict) -> None:
        self.hosts = {
            name: DatabaseHost(
                name,
                database,
                prepared_cache_size=config.get("prepared_cache_size", 256),
                plan_cache_size=config.get("plan_cache_size", 256),
            )
            for name, database in databases.items()
        }
        self.statement_capacity = max(1, config.get("prepared_cache_size", 256))
        # Per-database LRU of planned statements keyed on the *parent's*
        # statement id (the parent's registry guarantees an id never
        # changes meaning, so the id alone is a sound cache key).  Its
        # evictions are what unbind parameter relations.
        self.statements: dict[str, OrderedDict] = {
            name: OrderedDict() for name in self.hosts
        }

    def _host(self, name: str):
        host = self.hosts.get(name)
        if host is None:
            raise ValueError(f"worker does not host database {name!r}")
        return host

    def _statement(self, frame: dict):
        """The planned statement for the frame's id: fetched, or built
        from its shape (planning errors propagate, nothing is stored)."""
        host = self._host(frame["db"])
        store = self.statements[host.name]
        statement_id = frame["statement"]
        statement = store.get(statement_id)
        if statement is not None:
            store.move_to_end(statement_id)
            return host, statement
        shape = shape_from_wire(frame["shape"])
        statement = PreparedStatement(statement_id, shape, frame["method"])
        statement.plan  # planned before it is stored: a refused shape leaves none
        store[statement_id] = statement
        while len(store) > self.statement_capacity:
            _, evicted = store.popitem(last=False)
            evicted.unbind(host.database)
        return host, statement

    def handle(self, frame: dict) -> dict:
        """Dispatch one request frame to its handler; never raises."""
        kind = frame.get("kind")
        try:
            if kind == "exec":
                return self._handle_exec(frame)
            if kind == "prepare":
                self._statement(frame)
                return {"ok": True}
            if kind in ("update", "apply"):
                return self._handle_delta(frame)
            if kind == "ping":
                return {"ok": True, "pong": True, "pid": os.getpid()}
            return {"ok": False, "code": "internal", "message": f"unknown frame kind {kind!r}"}
        except Exception as exc:
            code, text = _map_exception(exc)
            return {"ok": False, "code": code, "message": text}

    def _handle_exec(self, frame: dict) -> dict:
        host, statement = self._statement(frame)
        result, rebound, elapsed = host.execute_statement(
            statement, tuple(frame["params"]), frame["engine"]
        )
        return {
            "ok": True,
            "rows": [list(row) for row in sorted(result.rows, key=repr)],
            "cardinality": result.cardinality,
            "rebound": rebound,
            "elapsed": elapsed,
        }

    def _handle_delta(self, frame: dict) -> dict:
        database = self._host(frame["db"]).database
        relation = frame["relation"]
        inserted, deleted, error = apply_catalog_delta(
            database, relation, frame["insert"], frame["delete"]
        )
        if error is not None and frame["kind"] == "update":
            code, text = _map_exception(error)
            return {"ok": False, "code": code, "message": text, "seq": frame.get("seq")}
        return {
            "ok": True,
            "inserted": inserted,
            "deleted": deleted,
            "version": database.version(relation),
            "seq": frame.get("seq"),
        }


def worker_main(host: str, port: int, worker_id: int, secret: str) -> None:
    """Child-process entry point: connect back to the parent, handshake,
    bootstrap, then serve frames until ``stop`` or EOF."""
    # A foreground Ctrl-C delivers SIGINT to the whole process group;
    # the parent owns worker lifetime (stop frame / terminate), so the
    # children must not die first with KeyboardInterrupt tracebacks.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sock = None
    for _ in range(100):  # the parent's listener is already bound, but be lenient
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            break
        except OSError:
            time.sleep(0.05)
    if sock is None:
        raise SystemExit(1)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        send_frame(
            sock,
            {"kind": "hello", "worker": worker_id, "secret": secret, "pid": os.getpid()},
        )
        bootstrap = recv_frame(sock)
        if bootstrap.get("kind") != "bootstrap":
            raise SystemExit(1)
        state = WorkerState(bootstrap["databases"], bootstrap["config"])
        while True:
            try:
                frame = recv_frame(sock)
            except (EOFError, OSError):
                break
            if frame.get("kind") == "stop":
                send_frame(sock, {"ok": True, "stopped": True})
                break
            send_frame(sock, state.handle(frame))
    finally:
        try:
            sock.close()
        except OSError:
            pass


def main() -> None:
    """What a worker process runs (``repro.service.pool.WORKER_ENTRY``):
    the parent's port and this worker's id on argv, the handshake secret
    as the one line on stdin."""
    port, worker_id = map(int, sys.argv[1:3])
    worker_main("127.0.0.1", port, worker_id, sys.stdin.readline().strip())


__all__ = [
    "FRAME_HEADER",
    "MAX_FRAME_BYTES",
    "WorkerState",
    "apply_catalog_delta",
    "main",
    "recv_frame",
    "send_frame",
    "worker_main",
]
