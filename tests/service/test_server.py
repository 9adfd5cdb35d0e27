"""End-to-end service tests: a live asyncio server on a loopback socket,
exercised through the blocking :class:`ServiceClient`.

The event loop runs in a background thread so the (synchronous) tests
can use the same client code a real script would.  Every test class
runs twice: against the executor on a thread of the server process
(``workers=0``) and, as its ``...OnPool`` twin, against a worker
process.  Only assertions that one backend alone can answer — the front
end's ``engines`` block, the ``pool`` block — branch.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.planner import plan_query
from repro.datalog import parse_rule
from repro.relalg.compiled import ENGINE_NAMES, make_engine
from repro.relalg.database import Database, edge_database
from repro.relalg.engine import evaluate
from repro.relalg.relation import Relation
from repro.service import QueryService, ServiceClient, ServiceConfig, ServiceError
from repro.service import prepared as prepared_module
from repro.service.protocol import decode_line, encode_message

#: ``ServiceConfig`` fields of the two backends every test runs against.
THREAD = {"workers": 0}
POOL = {"workers": 1, "replicas": 0}


def service_database() -> Database:
    db = edge_database()
    rows = [(i, (i * 3 + 1) % 7) for i in range(7)] + [(1, 4), (2, 5)]
    db.add("graph", Relation(("u", "w"), rows))
    return db


class LiveService:
    """A QueryService running on a background event-loop thread."""

    def __init__(self, databases=None, **config_kwargs):
        self.service = QueryService(
            databases or {"default": service_database()},
            ServiceConfig(port=0, **config_kwargs),
        )
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.service.start(), self.loop).result(60)
        self.port = self.service.port

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, **kwargs)

    def shutdown(self) -> None:
        asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@pytest.fixture
def live(request):
    """Start servers on the test class's ``BACKEND`` (``THREAD`` unless
    the class says otherwise); stop them after the test."""
    backend = getattr(request.cls, "BACKEND", THREAD)
    started: list[LiveService] = []

    def factory(databases=None, **config_kwargs) -> LiveService:
        service = LiveService(databases, **{**backend, **config_kwargs})
        started.append(service)
        return service

    yield factory
    for service in started:
        service.shutdown()


class TestLifecycle:
    def test_ping(self, live):
        with live().client() as client:
            assert client.ping() is True

    def test_session_open_close(self, live):
        with live().client() as client:
            session = client.open_session(engine="compiled", method="early")
            closed = client.close_session(session)
            assert closed["session"] == session
            with pytest.raises(ServiceError) as exc:
                client.query(session, "q(X) :- edge(X, Y).")
            assert exc.value.code == "unknown_session"

    def test_unknown_database(self, live):
        with live().client() as client:
            with pytest.raises(ServiceError) as exc:
                client.open_session(database="nope")
            assert exc.value.code == "unknown_database"

    def test_unknown_op(self, live):
        with live().client() as client:
            with pytest.raises(ServiceError) as exc:
                client.request("frobnicate")
            assert exc.value.code == "unknown_op"

    def test_session_limit(self, live):
        with live(max_sessions=1).client() as client:
            client.open_session()
            with pytest.raises(ServiceError) as exc:
                client.open_session()
            assert exc.value.code == "overloaded"

    def test_malformed_line_gets_error_response(self, live):
        server = live()
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            response = json.loads(sock.makefile("rb").readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "parse_error"


class TestQueries:
    def test_query_round_trip(self, live):
        with live().client() as client:
            session = client.open_session()
            answer = client.query(session, "q(X) :- edge(X, Y), edge(Y, X).")
            assert answer["cached"] is False
            # Columns are the canonical (positional) head variables.
            assert len(answer["columns"]) == 1
            assert {tuple(row) for row in answer["rows"]} == {(1,), (2,), (3,)}

    def test_same_shape_different_constants_hits_cache(self, live):
        server = live()
        with server.client() as client:
            session = client.open_session(engine="compiled")
            first = client.query(session, "q(X) :- graph(2, X), graph(X, Y).")
            assert first["cached"] is False
            second = client.query(session, "q(X) :- graph(5, X), graph(X, Y).")
            assert second["cached"] is True
            assert second["statement"] == first["statement"]
            # The shape cache hit means no second plan; the compiled-unit
            # cache retained every unit across the rebind.
            snap = client.stats_snapshot()
            info = snap["databases"]["default"]
            assert info["prepared"]["hits"] >= 1
            assert info["prepared"]["misses"] == 1
            if "pool" not in snap:  # a pool's engines live in its workers
                assert info["engines"]["compiled"]["hits"] > 0

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_served_rows_match_direct_evaluate(self, live, engine):
        rules = [
            "q(X) :- edge(X, Y), edge(Y, Z), edge(Z, X).",
            "q(X) :- graph(2, X), graph(X, Y).",
            "q(X, Y) :- graph(X, Y), graph(Y, 4).",
        ]
        server = live()
        with server.client() as client:
            session = client.open_session(engine=engine)
            for rule in rules:
                served = client.query(session, rule)
                expected, _ = evaluate(
                    plan_query(parse_rule(rule), "bucket", rng=random.Random(0)),
                    service_database(),
                    engine=engine,
                )
                assert {tuple(row) for row in served["rows"]} == expected.rows, rule
                # Same shape, warm second run, same rows.
                again = client.query(session, rule)
                assert again["cached"] is True
                assert again["rows"] == served["rows"]

    def test_method_override_per_request(self, live):
        with live().client() as client:
            session = client.open_session(method="bucket")
            answer = client.query(
                session, "q(X) :- edge(X, Y), edge(Y, X).", method="early"
            )
            assert answer["cached"] is False  # different method = new statement

    def test_syntax_error_maps_to_query_error(self, live):
        with live().client() as client:
            session = client.open_session()
            with pytest.raises(ServiceError) as exc:
                client.query(session, "this is not datalog")
            assert exc.value.code == "query_error"

    def test_non_ascii_digit_is_a_query_error_not_a_bad_request(self, live):
        """It used to reach ``int()`` and come back as ``bad_request:
        invalid literal for int()``."""
        with live().client() as client:
            session = client.open_session()
            with pytest.raises(ServiceError) as exc:
                client.query(session, "q(X) :- edge(X, 1\u00b2).")
            assert exc.value.code == "query_error"
            assert "unexpected character '\u00b2'" in exc.value.message

    def test_unknown_relation(self, live):
        with live().client() as client:
            session = client.open_session()
            with pytest.raises(ServiceError) as exc:
                client.query(session, "q(X) :- nothere(X, Y).")
            assert exc.value.code == "unknown_relation"


class TestPreparedExecution:
    def test_prepare_then_execute_with_params(self, live):
        with live().client() as client:
            session = client.open_session(engine="vectorized")
            prepared = client.prepare(session, "q(X) :- graph(2, X), graph(X, Y).")
            assert prepared["params"] == 1
            assert prepared["default_params"] == [2]
            for anchor in (2, 5, 2):
                answer = client.execute(session, prepared["statement"], [anchor])
                rule = f"q(X) :- graph({anchor}, X), graph(X, Y)."
                expected, _ = evaluate(
                    plan_query(parse_rule(rule), "bucket", rng=random.Random(0)),
                    service_database(),
                )
                assert {tuple(r) for r in answer["rows"]} == expected.rows

    def test_execute_unknown_statement(self, live):
        with live().client() as client:
            session = client.open_session()
            with pytest.raises(ServiceError) as exc:
                client.execute(session, 12345, [])
            assert exc.value.code == "unknown_statement"

    def test_execute_wrong_arity(self, live):
        with live().client() as client:
            session = client.open_session()
            prepared = client.prepare(session, "q(X) :- graph(2, X).")
            with pytest.raises(ServiceError) as exc:
                client.execute(session, prepared["statement"], [1, 2])
            assert exc.value.code == "bad_request"

    def test_non_scalar_params_rejected(self, live):
        with live().client() as client:
            session = client.open_session()
            prepared = client.prepare(session, "q(X) :- graph(2, X).")
            with pytest.raises(ServiceError) as exc:
                client.execute(session, prepared["statement"], [[1]])
            assert exc.value.code == "bad_request"

    def test_statements_shared_across_sessions(self, live):
        with live().client() as client:
            one = client.open_session(engine="interpreted")
            two = client.open_session(engine="compiled")
            p1 = client.prepare(one, "q(X) :- graph(3, X).")
            p2 = client.prepare(two, "q(X) :- graph(6, X).")
            assert p1["statement"] == p2["statement"]
            assert p2["cached"] is True


class TestUpdates:
    def test_update_visible_to_queries(self, live):
        with live().client() as client:
            session = client.open_session()
            before = client.query(session, "q(X) :- graph(50, X).")
            assert before["rows"] == []
            updated = client.update(session, "graph", insert=[[50, 60]])
            assert updated["inserted"] == 1
            after = client.execute(session, before["statement"], [50])
            assert [list(r) for r in after["rows"]] == [[60]]
            deleted = client.update(session, "graph", delete=[[50, 60]])
            assert deleted["deleted"] == 1

    def test_update_bumps_version_only_on_change(self, live):
        with live().client() as client:
            session = client.open_session()
            first = client.update(session, "graph", insert=[[50, 60]])
            second = client.update(session, "graph", insert=[[50, 60]])
            assert second["inserted"] == 0
            assert second["version"] == first["version"]  # no-op delta

    def test_update_unknown_relation(self, live):
        with live().client() as client:
            session = client.open_session()
            with pytest.raises(ServiceError) as exc:
                client.update(session, "nothere", insert=[[1, 2]])
            assert exc.value.code == "unknown_relation"


def dense_database(nodes: int = 80) -> Database:
    db = service_database()
    db.add(
        "dense",
        Relation(
            ("u", "w"),
            [(i, j) for i in range(nodes) for j in range(nodes) if i != j],
        ),
    )
    return db


class TestAdmissionControl:
    def test_request_timeout_zero_expires_in_queue(self, live):
        with live().client() as client:
            session = client.open_session()
            with pytest.raises(ServiceError) as exc:
                client.request(
                    "query",
                    session=session,
                    rule="q(X) :- edge(X, Y).",
                    timeout=0,
                )
            assert exc.value.code == "timeout"

    def test_expired_request_mid_batch_never_executes(self, live):
        """An expired request queued behind a slow query fails with
        ``timeout`` at dequeue and must not run: the update leaves no
        trace while the query queued beside it completes."""
        server = live(databases={"default": dense_database()})
        with server.client() as slow_client, server.client() as upd_client, \
                server.client() as read_client:
            slow = slow_client.open_session()
            upd = upd_client.open_session()
            read = read_client.open_session()
            slow_rule = "q(X) :- dense(X, Y), dense(Y, Z), dense(Z, X)."
            with ThreadPoolExecutor(max_workers=3) as threads:
                slow_future = threads.submit(slow_client.query, slow, slow_rule)
                time.sleep(0.15)  # slow query now occupies the executor
                update_future = threads.submit(
                    upd_client.request,
                    "update",
                    session=upd,
                    relation="graph",
                    insert=[[500, 600]],
                    timeout=0,
                )
                read_future = threads.submit(
                    read_client.query, read, "q(X) :- graph(2, X)."
                )
                assert slow_future.result(60)["cardinality"] >= 1
                with pytest.raises(ServiceError) as exc:
                    update_future.result(60)
                assert exc.value.code == "timeout"
                assert read_future.result(60)["rows"]
            after = read_client.query(read, "q(X) :- graph(500, X).")
            assert after["rows"] == []
            snap = read_client.stats_snapshot()
            if "pool" in snap:  # nothing was committed, so nothing replicated
                assert snap["pool"]["write_seq"]["default"] == 0

    def test_stats_reset_clears_counters_and_latency(self, live):
        with live().client() as client:
            session = client.open_session()
            client.query(session, "q(X) :- edge(X, Y).")
            pre = client.reset_stats()
            assert pre["service"]["requests"] >= 3
            assert "query_cold" in pre["service"]["latency"]
            post = client.stats_snapshot()
            assert post["service"]["requests"] == 1  # just this stats op
            # Only post-reset traffic (stats ops) left in the window.
            assert set(post["service"]["latency"]) <= {"stats"}
            assert post["service"]["ops"] == {"stats": 1}

    def test_stats_snapshot_shape(self, live):
        server = live()
        with server.client() as client:
            session = client.open_session()
            client.query(session, "q(X) :- edge(X, Y).")
            snap = client.stats_snapshot()
        assert snap["sessions"] == 1
        service_block = snap["service"]
        assert service_block["requests"] >= 3
        assert "query_cold" in service_block["latency"]
        assert snap["config"]["queue_limit"] == 256
        database_block = snap["databases"]["default"]
        assert database_block["plans_by_method"] == {"bucket": 1}
        assert database_block["prepared"]["entries"] == 1


class TestLifecycleOnPool(TestLifecycle):
    BACKEND = POOL


class TestQueriesOnPool(TestQueries):
    BACKEND = POOL


class TestPreparedExecutionOnPool(TestPreparedExecution):
    BACKEND = POOL


class TestUpdatesOnPool(TestUpdates):
    BACKEND = POOL


class TestAdmissionControlOnPool(TestAdmissionControl):
    BACKEND = POOL


#: One session's requests (``session`` 1 is the first one a fresh server
#: opens), touching every reply shape and error code an engine op has.
PARITY_SCRIPT = [
    ("open_session", {"engine": "compiled"}),
    ("prepare", {"rule": "q(X) :- graph(2, X), graph(X, Y)."}),  # miss
    ("prepare", {"rule": "q(Z) :- graph(5, Z), graph(Z, W)."}),  # hit
    ("execute", {"statement": 1, "params": [2]}),
    ("execute", {"statement": 1, "params": [5]}),  # rebind
    ("execute", {"statement": 1, "params": [5]}),  # same value
    ("query", {"rule": "q(X) :- edge(X, Y), edge(Y, X)."}),  # cold
    ("query", {"rule": "q(A) :- edge(A, B), edge(B, A)."}),  # warm
    ("update", {"relation": "graph", "insert": [[50, 1]]}),
    ("update", {"relation": "graph", "insert": [[50, 1]]}),  # no-op
    ("execute", {"statement": 1, "params": [50]}),
    ("update", {"relation": "graph", "delete": [[50, 1]]}),
    ("execute", {"statement": 99, "params": []}),
    ("execute", {"statement": 1, "params": [1, 2]}),
    ("execute", {"statement": 1, "params": [[1]]}),
    ("query", {"rule": "q(X) :- nothere(X, Y)."}),
    ("update", {"relation": "nothere", "insert": [[1, 2]]}),
    ("query", {"rule": "this is not datalog"}),
    (
        "prepare",
        {
            "rule": "q(X) :- edge(X, Y), edge(Y, Z), edge(Z, X).",
            "method": "yannakakis",
        },
    ),
    # Refused at planning, so not registered: refused again.
    (
        "prepare",
        {
            "rule": "q(X) :- edge(X, Y), edge(Y, Z), edge(Z, X).",
            "method": "yannakakis",
        },
    ),
    ("query", {"rule": "q(X) :- edge(X, Y).", "timeout": 0}),
]


def run_script(port: int) -> list[dict]:
    """Every reply of :data:`PARITY_SCRIPT`, raw (errors included)."""
    replies = []
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        stream = sock.makefile("rb")
        for number, (op, fields) in enumerate(PARITY_SCRIPT):
            message = {"op": op, "id": number, **fields}
            if op != "open_session":
                message["session"] = 1
            sock.sendall(encode_message(message))
            reply = decode_line(stream.readline())
            reply.pop("elapsed_s", None)
            replies.append(reply)
        stream.close()
    return replies


def test_both_backends_answer_alike(live):
    """The same script against the executor thread and a worker process
    gets the same replies, field by field, but for ``elapsed_s``."""
    thread = run_script(live(**THREAD).port)
    pool = run_script(live(**POOL).port)
    assert thread == pool
    codes = [r["error"]["code"] for r in thread if not r["ok"]]
    assert codes == [
        "unknown_statement",
        "bad_request",
        "bad_request",
        "unknown_relation",
        "unknown_relation",
        "query_error",
        "query_error",
        "query_error",
        "timeout",
    ]
    assert [r.get("cached") for r in thread[1:3]] == [False, True]
    assert [r["rebound"] for r in thread[3:6]] == [1, 1, 0]
    assert [r["cached"] for r in thread[6:8]] == [False, True]
    assert [r["inserted"] for r in thread[8:10]] == [1, 0]
    assert thread[9]["version"] == thread[8]["version"]
    assert thread[10]["rows"] == [[1]]
    assert thread[11]["deleted"] == 1


def test_engine_work_stays_on_one_thread_off_the_loop(live, monkeypatch):
    """With ``workers=0`` planning, catalog writes and engine execution
    all run on the executor thread: ``plans._intern_key`` and the
    ``Database`` are unlocked, so none of them may run on the loop."""
    server = live(prepared_cache_size=2)
    threads: dict[str, set[int]] = {}

    def record(owner, name):
        original = getattr(owner, name)

        def recorded(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)

    record(prepared_module, "plan_query")
    for name in ("put", "drop", "insert_rows", "delete_rows"):
        record(Database, name)
    for engine in ENGINE_NAMES:
        record(type(make_engine(engine, Database())), "execute")

    with server.client() as client:
        for engine in ENGINE_NAMES:
            session = client.open_session(engine=engine)
            # More shapes than the statement LRU holds: an eviction storm.
            for length in range(1, 6):
                body = ", ".join(
                    f"graph({left}, {right})"
                    for left, right in zip(
                        ["2"] + [f"V{i}" for i in range(1, length)],
                        [f"V{i}" for i in range(1, length)] + ["X"],
                    )
                )
                rule = f"q(X) :- {body}."
                statement = client.query(session, rule)["statement"]
                client.execute(session, statement, [5])
            client.update(session, "graph", insert=[[70, 71]])
            client.update(session, "graph", delete=[[70, 71]])

    assert set(threads) >= {
        "plan_query", "put", "drop", "insert_rows", "delete_rows", "execute"
    }
    (executor,) = set().union(*threads.values())
    assert executor != server.thread.ident
