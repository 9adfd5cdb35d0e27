"""Tests for the multi-process worker pool backend.

Pure-logic tests cover the sharding layout and the shape wire format;
live tests run a real :class:`QueryService` with ``workers > 0`` —
actual child processes over loopback IPC — and exercise read-your-writes
across workers and sessions, crash detection with respawn-from-snapshot,
the ``pool`` stats block and the process tree.  Queries, prepared
statements, updates and admission control run on both backends in
``test_server.py``.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from repro.core.planner import plan_query
from repro.datalog import parse_rule
from repro.relalg.columnar import numpy_module
from repro.relalg.database import Database, edge_database
from repro.relalg.engine import ENGINE_NAMES, evaluate
from repro.relalg.relation import Relation
from repro.service import QueryService, ServiceClient, ServiceConfig, ServiceError
from repro.service import pool as pool_module
from repro.service.client import ServiceRetryableError
from repro.service.pool import WORKER_ENTRY, WorkerPool, plan_assignments
from repro.service.prepared import (
    PreparedStatement,
    canonicalize_query,
    shape_from_wire,
    shape_to_wire,
)
from repro.service.worker import recv_frame, send_frame


def pool_database() -> Database:
    db = edge_database()
    rows = [(i, (i * 3 + 1) % 7) for i in range(7)] + [(1, 4), (2, 5)]
    db.add("graph", Relation(("u", "w"), rows))
    return db


class LivePool:
    """A QueryService on a background loop."""

    def __init__(self, databases=None, **config_kwargs):
        self.service = QueryService(
            databases or {"default": pool_database()},
            ServiceConfig(port=0, **config_kwargs),
        )
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.service.start(), self.loop).result(120)
        self.port = self.service.port

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, **kwargs)

    def shutdown(self) -> None:
        future = asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop)
        try:
            future.result(60)
        except TimeoutError:
            dump = asyncio.run_coroutine_threadsafe(
                self._dump_tasks(), self.loop
            ).result(10)
            raise RuntimeError(f"stop() hung; pending tasks:\n{dump}")
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()

    @staticmethod
    async def _dump_tasks() -> str:
        import io
        import traceback

        out = io.StringIO()
        for task in asyncio.all_tasks():
            print(repr(task), file=out)
            task.print_stack(file=out)
        return out.getvalue()


@pytest.fixture
def live():
    started: list[LivePool] = []

    def factory(databases=None, **config_kwargs) -> LivePool:
        service = LivePool(databases, **config_kwargs)
        started.append(service)
        return service

    yield factory
    for service in started:
        service.shutdown()


class TestAssignments:
    def test_layout_is_deterministic_in_name_order(self):
        """Each database has one owner, dealt round robin in name order."""
        layout = plan_assignments(["c", "a", "b"], workers=2)
        assert layout == {"a": 0, "b": 1, "c": 0}
        assert plan_assignments(["b", "c", "a"], workers=2) == layout
        assert plan_assignments(["a", "b"], workers=1) == {"a": 0, "b": 0}


class TestShapeWire:
    def test_round_trip_preserves_key_template_and_text(self):
        shape, values = canonicalize_query(
            parse_rule("q(X, Y) :- graph(2, X), graph(X, Y), graph(Y, 7).")
        )
        rebuilt = shape_from_wire(shape_to_wire(shape))
        assert rebuilt.key == shape.key
        assert rebuilt.template == shape.template
        assert rebuilt.hole_count == shape.hole_count == len(values)
        assert rebuilt.text == shape.text

    def test_rebuilt_statement_is_executable(self):
        db = pool_database()
        shape, values = canonicalize_query(
            parse_rule("q(X) :- graph(2, X), graph(X, Y).")
        )
        local = PreparedStatement(7, shape, "bucket")
        remote = PreparedStatement(7, shape_from_wire(shape_to_wire(shape)), "bucket")
        assert remote.param_relations == local.param_relations
        remote.bind(db, values)
        result, _ = evaluate(remote.plan, db)
        expected, _ = evaluate(
            plan_query(
                parse_rule("q(X) :- graph(2, X), graph(X, Y)."),
                "bucket",
                rng=random.Random(0),
            ),
            pool_database(),
        )
        assert result.rows == expected.rows


class TestReadYourWrites:
    def test_session_reads_observe_own_writes_immediately(self, live):
        """The documented read-your-writes guarantee: within a session,
        a read issued right after an acknowledged write always observes
        it."""
        server = live(workers=2)
        with server.client() as client:
            session = client.open_session()
            for i in range(15):
                updated = client.update(
                    session, "graph", insert=[[100 + i, 900 + i]]
                )
                assert updated["inserted"] == 1
                anchored = client.query(session, f"q(X) :- graph({100 + i}, X).")
                assert [900 + i] in anchored["rows"], f"write {i} not visible"
            assert client.stats_snapshot()["service"]["errors"] == {}

    def test_another_session_sees_an_acknowledged_write_at_once(self, live):
        """The database's one worker ran the write, so the first read of
        any other session, on another connection, observes it."""
        server = live(workers=2)
        with server.client() as writer_client, server.client() as reader_client:
            writer = writer_client.open_session()
            reader = reader_client.open_session()
            writer_client.update(writer, "graph", insert=[[300, 301]])
            rows = reader_client.query(reader, "q(X) :- graph(300, X).")["rows"]
            assert rows == [[301]]

    def test_version_field_matches_legacy_semantics(self, live):
        server = live(workers=2)
        with server.client() as client:
            session = client.open_session()
            first = client.update(session, "graph", insert=[[50, 60]])
            second = client.update(session, "graph", insert=[[50, 60]])
            assert second["inserted"] == 0
            assert second["version"] == first["version"]  # no-op delta


def shard_database(shard: int) -> Database:
    """Same schema as :func:`pool_database`, contents differing by shard."""
    db = edge_database()
    rows = [(i, (i * 3 + 1 + shard) % 7) for i in range(7)] + [(shard, 5)]
    db.add("graph", Relation(("u", "w"), rows))
    return db


class TestSharding:
    def test_sharded_answers_match_direct_evaluate_on_every_engine(self, live):
        """Four databases over two workers: every engine on every shard
        answers what ``evaluate()`` does, and both workers own shards."""
        shards = {f"s{i}": shard_database(i) for i in range(4)}
        server = live(shards, workers=2)
        rules = [
            "q(X) :- graph(2, X), graph(X, Y).",
            "q(X, Y) :- graph(X, Y), graph(Y, Z), graph(Z, X).",
        ]
        with server.client() as client:
            for engine, shard in [(e, s) for e in ENGINE_NAMES for s in range(4)]:
                session = client.open_session(database=f"s{shard}", engine=engine)
                for rule in rules:
                    plan = plan_query(parse_rule(rule), "bucket", rng=random.Random(0))
                    expected, _ = evaluate(plan, shard_database(shard), engine=engine)
                    for _ in range(2):  # cold, then warm
                        served = client.query(session, rule)["rows"]
                        assert {tuple(r) for r in served} == expected.rows, rule
            assignments = client.stats_snapshot()["pool"]["assignments"]
            assert set(assignments.values()) == {0, 1}


class TestCrashRecovery:
    def test_worker_crash_fails_inflight_then_respawns_with_data(self, live):
        server = live(workers=1)
        with server.client() as client:
            session = client.open_session()
            updated = client.update(session, "graph", insert=[[77, 88]])
            assert updated["inserted"] == 1
            assert [88] in client.query(session, "q(X) :- graph(77, X).")["rows"]

            pid = int(client.stats_snapshot()["pool"]["workers"]["0"]["pid"])
            os.kill(pid, signal.SIGKILL)
            time.sleep(0.3)

            # First request after the kill hits the dead socket: the
            # pump fails it with the retryable worker_failed code.
            with pytest.raises(ServiceRetryableError) as exc:
                client.query(session, "q(X) :- graph(77, X).")
            assert exc.value.code == "worker_failed"

            # Retrying (the documented client contract for retryable
            # codes) eventually lands on the respawned worker, which was
            # bootstrapped from the front end's mirror: the acknowledged
            # write survived the crash.
            deadline = time.monotonic() + 60
            rows = None
            while time.monotonic() < deadline:
                try:
                    rows = client.query(session, "q(X) :- graph(77, X).")["rows"]
                    break
                except ServiceRetryableError:
                    time.sleep(0.1)
            assert rows is not None, "worker never respawned"
            assert [88] in rows
            workers = client.stats_snapshot()["pool"]["workers"]["0"]
            assert workers["respawns"] >= 1
            assert workers["alive"] is True


class TestPoolStats:
    def test_pool_block_shape_and_reset(self, live):
        server = live(workers=2)
        with server.client() as client:
            session = client.open_session()
            for _ in range(6):
                client.query(session, "q(X) :- edge(X, Y), edge(Y, X).")
            snap = client.stats_snapshot()
            pool = snap["pool"]
            assert snap["config"]["workers"] == 2
            assert set(pool) == {"workers", "assignments", "queued", "worker_failures"}
            assert set(pool["workers"]) == {"0", "1"}
            worker = pool["workers"]["0"]
            assert set(worker) == {
                "pid",
                "alive",
                "queue_depth",
                "inflight",
                "dispatched",
                "completed",
                "errors",
                "respawns",
            }
            assert worker["dispatched"] == 6  # the owner ran every read
            assert pool["assignments"] == {"default": 0}

            # The resetting snapshot returns the pre-reset window; the
            # next snapshot starts clean (per-worker counters included).
            pre = client.reset_stats()
            assert pre["service"]["requests"] >= 7
            post = client.stats_snapshot()
            assert post["service"]["requests"] == 1  # just this stats call
            assert post["pool"]["workers"]["0"]["dispatched"] == 0


class FlakyServer(threading.Thread):
    """Accepts connections; drops the first one on its first request,
    then answers pings normally — exercising client reconnect."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        import socket

        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(4)
        self.port = self.sock.getsockname()[1]
        self.dropped = False

    def run(self) -> None:
        import json

        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            # The stream holds the fd too: both must close for the client
            # to see EOF rather than wait out its socket timeout.
            with conn, conn.makefile("rb") as stream:
                while True:
                    line = stream.readline()
                    if not line:
                        break
                    if not self.dropped:
                        self.dropped = True
                        break  # close mid-request: client sees EOF
                    message = json.loads(line)
                    reply = {"id": message.get("id"), "ok": True, "pong": True}
                    conn.sendall((json.dumps(reply) + "\n").encode())

    def close(self) -> None:
        self.sock.close()


class TestClientReconnect:
    def test_connection_loss_is_retryable_and_reconnects(self):
        server = FlakyServer()
        server.start()
        try:
            client = ServiceClient(
                "127.0.0.1", server.port, timeout=5, reconnect_backoff=0.01
            )
            started = time.monotonic()
            with pytest.raises(ServiceRetryableError) as exc:
                client.ping()
            assert exc.value.code == "connection_lost"
            assert "server closed the connection" in exc.value.message
            assert time.monotonic() - started < 2  # EOF, not the timeout
            assert client.reconnects == 1
            # The reconnected socket works; the retry is the caller's
            # explicit decision, not something the client does silently.
            assert client.ping() is True
            client.close()
        finally:
            server.close()

    def test_reconnect_exhaustion_raises_retryable(self):
        server = FlakyServer()  # never started: connects but nobody accepts>backlog
        port = server.port
        client = ServiceClient(
            "127.0.0.1", port, reconnect_attempts=2, reconnect_backoff=0.01
        )
        server.close()  # now every reconnect attempt is refused
        with pytest.raises(ServiceRetryableError) as exc:
            client.ping()
        assert exc.value.code == "connection_lost"
        client.close()

    def test_retryable_codes_raise_subclass(self, live):
        server = live(workers=1)
        with server.client() as client:
            session = client.open_session()
            with pytest.raises(ServiceRetryableError) as exc:
                client.request(
                    "query", session=session, rule="q(X) :- edge(X, Y).", timeout=0
                )
            assert exc.value.code == "timeout"
            # Non-retryable errors stay plain ServiceError.
            with pytest.raises(ServiceError) as exc:
                client.query(session, "nonsense")
            assert not isinstance(exc.value, ServiceRetryableError)


# ----------------------------------------------------------------------
# The processes themselves
# ----------------------------------------------------------------------
SRC = str(Path(pool_module.__file__).resolve().parents[2])

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads the process table from /proc"
)


def children_of(parent: int) -> dict[int, tuple[str, str]]:
    """``{pid: (state, command line)}`` of ``parent``'s child processes."""
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # The command name may hold spaces; fields follow its ")".
                state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if int(ppid) == parent:
            out[int(entry)] = (state, command)
    return out


#: ``python -m repro`` with argv, then what it loaded of numpy and the
#: compiled engine.
SERVE_AND_REPORT = """
import runpy, sys
sys.argv[0] = "repro"
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as done:
    assert not done.code, done.code
print("loaded:", [m for m in ("numpy", "repro.relalg.compiled") if m in sys.modules])
"""


def maps_numpy(pid: int) -> bool:
    """Whether numpy's core extension module is mapped into ``pid``."""
    with open(f"/proc/{pid}/maps") as handle:
        return "_multiarray_umath" in handle.read()


def wait_until(condition, seconds: float = 30.0) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.05)
    return condition()


@needs_proc
class TestProcessTree:
    def test_children_are_the_workers_and_none_outlives_the_server(self):
        """A ``--workers 2`` server is three processes and nothing else —
        no launcher, no tracker; a crashed worker is reaped, not left a
        zombie; after the server stops none of them is left.  The read
        after the kill goes to the dead owner, so the pump finds the crash
        at once instead of at the next health ping."""
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2"],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.PIPE,
            text=True,
        )
        seen = {server.pid}
        try:
            line = server.stdout.readline()
            assert "listening on" in line, line
            port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
            first = children_of(server.pid)
            seen.update(first)
            assert len(first) == 2
            assert all(WORKER_ENTRY in command for _, command in first.values())

            with ServiceClient("127.0.0.1", port) as client:
                session = client.open_session()
                stats = client.stats_snapshot()["pool"]["workers"]
                assert {int(w["pid"]) for w in stats.values()} == set(first)
                victim = int(stats["0"]["pid"])
                os.kill(victim, signal.SIGKILL)

                def answered():
                    try:
                        return client.query(session, "q(X) :- edge(1, X).")["rows"]
                    except ServiceRetryableError:
                        return None

                assert wait_until(answered, 60.0), "worker never respawned"
                # The dead worker's entry leaves the table once it is
                # waited for; its replacement makes two again.
                assert wait_until(
                    lambda: victim not in children_of(server.pid)
                    and len(children_of(server.pid)) == 2
                )
                second = children_of(server.pid)
                seen.update(second)
                assert all(state != "Z" for state, _ in second.values())

            server.send_signal(signal.SIGINT)
            assert server.wait(timeout=30) == 0
            assert wait_until(
                lambda: not any(os.path.exists(f"/proc/{pid}") for pid in seen)
            ), "a process outlived the server"
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()

    def test_a_front_end_loads_neither_numpy_nor_the_engines(self):
        """A ``--workers 1`` server that has served vectorized reads and a
        write: the worker lowered the plans and so imported numpy, the
        front end only applied the write to its mirror and loaded neither
        numpy nor the compiled engine.  (The server keeps this process's
        import path, so it can import numpy exactly when this process
        can.)"""
        path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
        server = subprocess.Popen(
            [
                sys.executable, "-c", SERVE_AND_REPORT,
                "serve", "--port", "0", "--workers", "1",
            ],
            env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = server.stdout.readline()
            assert "listening on" in line, line
            port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
            (worker,) = children_of(server.pid)
            with ServiceClient("127.0.0.1", port) as client:
                session = client.open_session(engine="vectorized")
                client.update(session, "edge", insert=[[3, 4]])
                rows = client.query(session, "q(X) :- edge(X, Y), edge(Y, 4).")["rows"]
                assert sorted(rows) == [[1], [2]]
                statement = client.prepare(session, "q(X) :- edge(1, X).")["statement"]
                assert sorted(client.execute(session, statement, [2])["rows"]) == [[1], [3]]
            assert not maps_numpy(server.pid)
            assert maps_numpy(worker) == (numpy_module() is not None)
            server.send_signal(signal.SIGINT)
            assert server.wait(timeout=30) == 0
            assert server.stdout.read().strip() == "loaded: []"
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()

    def test_in_process_server_has_exactly_its_workers(self, live):
        before = set(children_of(os.getpid()))
        server = live(workers=2)
        workers = set(children_of(os.getpid())) - before
        with server.client() as client:
            stats = client.stats_snapshot()["pool"]["workers"]
        assert workers == {int(w["pid"]) for w in stats.values()}
        asyncio.run_coroutine_threadsafe(
            server.service.stop(), server.loop
        ).result(60)
        assert not set(children_of(os.getpid())) & workers  # waited for, all

    def test_the_secret_is_in_neither_argv_nor_environment(self, live):
        server = live(workers=1)
        secret = server.service._pool._secret.encode()
        assert len(secret) == 32
        (pid,) = (h.pid for h in server.service._pool.handles)
        for name in ("cmdline", "environ"):
            with open(f"/proc/{pid}/{name}", "rb") as handle:
                content = handle.read()
            assert content and secret not in content, name


def test_a_worker_that_never_connects_is_terminated_and_waited_for(monkeypatch):
    started = []

    def recording(*args, **kwargs):
        started.append(subprocess.Popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(pool_module, "SPAWN_TIMEOUT", 0.5)
    monkeypatch.setattr(pool_module, "WORKER_ENTRY", "import time; time.sleep(600)")
    monkeypatch.setattr(
        pool_module,
        "subprocess",
        types.SimpleNamespace(
            Popen=recording,
            PIPE=subprocess.PIPE,
            TimeoutExpired=subprocess.TimeoutExpired,
        ),
    )
    pool = WorkerPool(["default"], 1, lambda worker_id: {})

    async def run() -> None:
        try:
            with pytest.raises(asyncio.TimeoutError):
                await pool.start()
        finally:
            await pool.stop()

    asyncio.run(run())
    assert len(started) == 1
    assert started[0].returncode == -signal.SIGTERM  # set by wait(), not poll()
    assert pool.handles[0].process is None


#: What a pool worker serving the row engines never imports: the test-only
#: graph oracle, the pool launcher the workers replaced, numpy (loaded by
#: the first vectorized lowering only), the event loop and the front end's
#: server and pool, the SQL route and the workload generators.
WORKER_UNWANTED = (
    "networkx",
    "multiprocessing",
    "numpy",
    "asyncio",
    "repro.service.server",
    "repro.service.pool",
    "repro.sql",
    "repro.workloads",
)


def test_a_running_worker_loads_only_what_it_runs():
    """Play the parent to one real worker process — handshake, bootstrap,
    a planned and executed query, stop — and have it report what it
    imported on the way out.  The query runs on the interpreter: the
    compiled engine's first lowering asks for numpy by design, and what
    is pinned here is what the worker's own machinery loads."""
    report = (
        "; import sys; print('loaded:', "
        f"[m for m in {WORKER_UNWANTED!r} if m in sys.modules])"
    )
    shape, values = canonicalize_query(parse_rule("q(X) :- edge(1, X), edge(X, Y)."))
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(60)
        worker = subprocess.Popen(
            [
                sys.executable, "-c", WORKER_ENTRY + report,
                str(listener.getsockname()[1]), "7",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        try:
            worker.stdin.write(b"not-a-secret\n")
            worker.stdin.close()
            connection, _ = listener.accept()
            with connection:
                connection.settimeout(60)
                hello = recv_frame(connection)
                assert hello == {
                    "kind": "hello",
                    "worker": 7,
                    "secret": "not-a-secret",
                    "pid": worker.pid,
                }
                send_frame(
                    connection,
                    {
                        "kind": "bootstrap",
                        "databases": {"default": edge_database()},
                        "config": {},
                    },
                )
                send_frame(
                    connection,
                    {
                        "kind": "exec",
                        "db": "default",
                        "engine": "interpreted",
                        "method": "bucket",
                        "statement": 1,
                        "shape": shape_to_wire(shape),
                        "params": list(values),
                    },
                )
                reply = recv_frame(connection)
                assert reply["ok"] and reply["rows"] == [[2], [3]]
                send_frame(connection, {"kind": "stop"})
                assert recv_frame(connection) == {"ok": True, "stopped": True}
            out = worker.stdout.read().decode()
            assert worker.wait(timeout=30) == 0
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
            worker.stdout.close()
    assert out.strip() == "loaded: []"
