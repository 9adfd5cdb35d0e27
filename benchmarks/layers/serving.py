"""The three workloads that drive a server process over its wire protocol.

The server is the public CLI, ``python -m repro serve``, in a process of
its own, so the load generator's interpreter lock is not billed to it.
Load is closed loop with no think time: each connection is a blocking
caller that sends its next request when the previous reply has been
parsed.  Every connection holds one session per engine, and the whole
service works for one engine at a time: the engine changes every
``PHASE_SECONDS``, so a reply on one engine is never queued behind
another engine's heavier work and each engine's median is its own.

The server cannot be spanned from outside, so the traced run has three
sources: the client's send-to-reply spans, an in-process replay of the
identical request stream through the same public functions the server
calls, and the server's own ``elapsed_s`` and ``stats`` counters.  What
the replay cannot account for is ``service.server.residual_us``.
"""

from __future__ import annotations

import os
import pickle
import random
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path

from repro.core.planner import plan_query
from repro.datalog import parse_rule
from repro.relalg.engine import evaluate
from repro.relalg.io import save_database
from repro.service.prepared import canonicalize_query, shape_to_wire
from repro.service.protocol import decode_line, encode_message, ok_response
from repro.service.server import DatabaseHost
from repro.service.worker import WorkerState, recv_frame, send_frame

import cases
from inproc import KERNEL_LAYER
from measure import (
    Outcome,
    Spans,
    mean,
    median,
    percentile,
    process_tree,
    quartile,
    tail,
    tree_peak_rss_mb,
)

now = time.perf_counter

DATABASE = "bench"
PREPARED_CACHE = 256
#: Replies whose full rows (not only their count) are compared.
ROW_SAMPLE = 16
#: Whole cycles of the traced window that are replayed and recorded, so
#: that every engine has the same share; a request costs about 0.3 ms.
REPLAY_CYCLES = 2
#: All sessions in use belong to one engine for this long, then to the next.
PHASE_SECONDS = 0.5
#: One trip through all engines; throughput and the tail are taken per cycle.
CYCLE_SECONDS = PHASE_SECONDS * len(cases.ENGINES)
#: Per-layer metrics that are the mean, in microseconds, of a replayed span.
REPLAYED_MEANS = {
    "datalog.parse_us": "datalog",
    "service.protocol.decode_us": "service.protocol.decode",
    "service.protocol.encode_us": "service.protocol.encode",
    "service.serialize_us": "service.serialize",
    "service.prepared.canonicalize_us": "canonicalize",
    "service.prepared.lookup_us": "service.prepared.lookup",
    "service.prepared.bind_us": "service.prepared.bind",
    "relalg.database.delta_us": "relalg.database",
}
#: Requests generated per connection and second of the run; one
#: connection of two completes about 500 a second on the sizing host.
STREAM_RATE = 1500


def connections() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def split_processors() -> tuple[set[int], set[int]] | None:
    """``(load generator, server)`` processors, or None with only one.

    Left to the scheduler, the two sides wander between processors and a
    reply's half-dozen wake-ups are sometimes local and sometimes cross
    to another (virtual) processor, which on the sizing host moved the
    median reply between 0.95 and 1.6 ms from one run to the next.  Fixed
    sides make every client-server wake-up cross and every server-internal
    one local, every time.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None
    return {allowed[0]}, set(allowed[1:])


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro serve`` on a free port, over a catalog directory."""

    def __init__(self, src: Path, work: Path, catalog: Path, workers: int) -> None:
        self._log = open(work / "server.log", "ab")
        environment = dict(os.environ, PYTHONPATH=str(src))
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--db", f"{DATABASE}={catalog}",
                "--prepared-cache-size", str(PREPARED_CACHE),
                "--workers", str(workers),
                "--replicas", "0",
            ],
            env=environment,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        sides = split_processors()
        if sides is not None:
            # Worker processes are spawned later and inherit the mask.
            os.sched_setaffinity(self.process.pid, sides[1])
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.process.stdout], [], [], 120.0)
        line = self.process.stdout.readline().decode() if ready else ""
        # "repro service listening on 127.0.0.1:PORT (databases: ...)"
        if "listening on" not in line:
            raise RuntimeError(f"the server did not start: {line!r}")
        return int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Interrupt the server, wait for it and for its workers."""
        members = process_tree(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for pid in members[1:]:
            # Workers leave on the parent's stop frame or on its EOF.
            for _ in range(100):
                if not os.path.exists(f"/proc/{pid}"):
                    break
                time.sleep(0.05)
            else:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


class Wire:
    """One blocking protocol connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rb")

    def exchange(self, data: bytes) -> dict:
        self.sock.sendall(data)
        line = self.file.readline()
        if not line:
            raise ConnectionError("the server closed the connection")
        return decode_line(line)

    def call(self, op: str, **fields) -> dict:
        reply = self.exchange(encode_message({"op": op, **fields}))
        if not reply.get("ok"):
            raise RuntimeError(f"{op} failed: {reply.get('error')}")
        return reply

    def close(self) -> None:
        self.file.close()
        self.sock.close()


# ----------------------------------------------------------------------
# Request streams
# ----------------------------------------------------------------------
@dataclass
class Request:
    kind: str  # "execute" | "query" | "update"
    shape: cases.Shape | None = None
    values: tuple = ()
    insert: tuple = ()
    delete: tuple = ()
    #: Expected rows of a read (None: the answer depends on how the
    #: connections' updates interleave), or (inserted, deleted).
    expect: object = None

    @property
    def read(self) -> bool:
        return self.kind != "update"


class Answers:
    """Expected rows per (shape, values), from references that share no
    code with the server: ``chain_answer`` for chains, and for the fig
    shapes one ``evaluate()`` on a catalog of their own."""

    def __init__(self, seed: int) -> None:
        self.catalog = cases.serve_catalog(seed)
        self._known: dict = {}

    def evaluate(self, shape: cases.Shape, values: tuple) -> frozenset:
        plan = plan_query(
            parse_rule(shape.text(values)), shape.method, rng=random.Random(0)
        )
        return evaluate(plan, self.catalog)[0].rows

    def rows(self, shape: cases.Shape, values: tuple) -> frozenset:
        key = (shape.name, values)
        known = self._known.get(key)
        if known is None:
            if shape.kind == "fig":
                known = self.evaluate(shape, values)
            else:
                found = cases.chain_answer(
                    self.catalog.get(shape.relation).rows,
                    shape.length,
                    dict(zip(shape.anchors, values)),
                    shape.head,
                )
                known = frozenset((value,) for value in found)
            self._known[key] = known
        return known


def warm_stream(seed: int, connection: int, count: int, shapes, answers) -> list[Request]:
    """72 % anchored chains with anchors from a pool of ten, 28 % fig
    queries, all by statement id and all read-only."""
    rng = random.Random(seed * 7127 + connection * 13 + 1)
    anchored = [s for s in shapes if s.kind != "fig" for _ in range(s.weight)]
    figs = [s for s in shapes if s.kind == "fig"]
    stream = []
    for _ in range(count):
        if rng.random() < 0.72:
            shape = rng.choice(anchored)
            values = tuple(
                rng.randrange(cases.ANCHOR_POOL) for _ in range(shape.values)
            )
        else:
            shape, values = rng.choice(figs), ()
        stream.append(
            Request("execute", shape, values, expect=answers.rows(shape, values))
        )
    return stream


def mixed_stream(seed: int, connection: int, total: int, count: int, shapes,
                 answers) -> list[Request]:
    """55 % anchored ``query`` by rule text and 10 % feed-scanning
    ``query``, both Zipf(1.0) over more shapes than the statement cache
    holds; 25 % fig ``execute``; 10 % ``update`` of ``feed``.

    A connection writes only rows whose first column it owns (``u %
    total == connection``), so the relation the run ends with does not
    depend on how the connections interleave and every reply's
    inserted/deleted counts are known in advance.
    """
    rng = random.Random(seed * 7127 + connection * 13 + 1)
    # Which shapes are popular belongs to the population, not to the seed:
    # the seed draws from the distribution, it does not reshape it.
    ranking = random.Random(7)
    by_kind = {}
    for kind in ("anchored", "feed", "fig"):
        population = [s for s in shapes if s.kind == kind]
        ranking.shuffle(population)
        weights = list(accumulate(1.0 / rank for rank in range(1, len(population) + 1)))
        by_kind[kind] = (population, weights)
    owned = [
        row for row in sorted(answers.catalog.get("feed").rows)
        if row[0] % total == connection
    ]
    present = set(owned)
    stream = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.90:
            kind = "anchored" if roll < 0.55 else "feed" if roll < 0.65 else "fig"
            population, weights = by_kind[kind]
            if kind == "fig":
                shape, values = rng.choice(population), ()
            else:
                shape = rng.choices(population, cum_weights=weights)[0]
                values = tuple(
                    rng.randrange(cases.MIXED_ANCHOR_POOL)
                    for _ in range(shape.values)
                )
            stream.append(
                Request(
                    "execute" if kind == "fig" else "query", shape, values,
                    expect=None if kind == "feed" else answers.rows(shape, values),
                )
            )
            continue
        insert = tuple(
            (
                rng.randrange(connection, cases.GRAPH_DOMAIN, total),
                rng.randrange(cases.GRAPH_DOMAIN),
            )
            for _ in range(2)
        )
        inserted = 0
        for row in insert:
            if row not in present:
                present.add(row)
                owned.append(row)
                inserted += 1
        # The server inserts before it deletes, and so does the model.
        victim = owned.pop(rng.randrange(len(owned)))
        present.discard(victim)
        stream.append(
            Request("update", insert=insert, delete=(victim,), expect=(inserted, 1))
        )
    return stream


def final_feed(answers: Answers, streams) -> frozenset:
    """``feed`` after every update of ``streams`` (the reference model)."""
    rows = set(answers.catalog.get("feed").rows)
    for stream in streams:
        for request in stream:
            if request.kind == "update":
                rows.update(request.insert)
                rows.difference_update(request.delete)
    return frozenset(rows)


# ----------------------------------------------------------------------
# One client connection
# ----------------------------------------------------------------------
class Client:
    """A connection with its sessions and prepared statements."""

    def __init__(self, port: int, prepared) -> None:
        self.wire = Wire(port)
        self.sessions = [
            self.wire.call("open_session", database=DATABASE, engine=engine)["session"]
            for engine in cases.ENGINES
        ]
        self.prepared = prepared
        self.statements = {}
        self.prepare()

    def prepare(self) -> None:
        """(Re-)prepare this connection's statements; a statement the
        cache evicted meanwhile comes back under a new id."""
        for shape in self.prepared:
            reply = self.wire.call(
                "prepare", session=self.sessions[0], method=shape.method,
                rule=shape.text(tuple(range(shape.values))),
            )
            self.statements[shape.name] = reply["statement"]

    def message(self, request: Request, engine: int) -> dict:
        """``request`` as it goes on the wire from this connection's
        session on engine number ``engine``."""
        return wire_message(request, self.sessions[engine], self.statements)


def wire_message(request: Request, session: int, statements: dict) -> dict:
    if request.kind == "update":
        return {
            "op": "update", "session": session, "relation": "feed",
            "insert": [list(row) for row in request.insert],
            "delete": [list(row) for row in request.delete],
        }
    if request.kind == "execute":
        return {
            "op": "execute", "session": session,
            "statement": statements[request.shape.name],
            "params": list(request.values),
        }
    return {
        "op": "query", "session": session, "method": request.shape.method,
        "rule": request.shape.text(request.values),
    }


def judge(request: Request, reply: dict, full_rows: bool) -> str | None:
    """Why ``reply`` is wrong for ``request``, or None."""
    if not reply.get("ok"):
        return f"{request.kind} refused: {reply.get('error')}"
    if request.kind == "update":
        counts = (reply["inserted"], reply["deleted"])
        if counts != request.expect:
            return f"update applied {counts}, the model expects {request.expect}"
        return None
    rows = reply["rows"]
    if reply["cardinality"] != len(rows):
        return f"{request.shape.name}: cardinality and row count disagree"
    if request.expect is None:
        return None
    if len(rows) != len(request.expect):
        return (
            f"{request.shape.name}{request.values}: {len(rows)} rows, "
            f"expected {len(request.expect)}"
        )
    if full_rows and {tuple(row) for row in rows} != request.expect:
        return f"{request.shape.name}{request.values}: rows differ from the reference"
    return None


@dataclass
class Window:
    """What the connections observed in one timed window."""

    begin: float
    end: float
    #: Per connection, in send order: (request, engine number, sent,
    #: received, the server's elapsed_s).
    per_connection: list[list[tuple]]

    @cached_property
    def samples(self) -> list[tuple]:
        """Every reply, in the order the requests were sent."""
        merged = [sample for samples in self.per_connection for sample in samples]
        merged.sort(key=lambda sample: sample[2])
        return merged

    def latencies(self, keep) -> list[float]:
        """Send-to-reply seconds of the samples ``keep(request, engine)``
        selects."""
        return [
            done - sent
            for samples in self.per_connection
            for request, engine, sent, done, _ in samples
            if keep(request, engine)
        ]

    def phase_medians(self, engine: int) -> list[float]:
        """The median read latency of every phase ``engine`` had."""
        phases: dict[int, list[float]] = {}
        for samples in self.per_connection:
            for request, used, sent, done, _ in samples:
                if used == engine and request.read:
                    phase = int((sent - self.begin) / PHASE_SECONDS)
                    phases.setdefault(phase, []).append(done - sent)
        return [median(latencies) for latencies in phases.values()]

    def cycles(self, keep) -> list[list[float]]:
        """Latencies of the samples ``keep`` selects, per whole cycle."""
        whole = int((self.end - self.begin) / CYCLE_SECONDS + 1e-9)
        cycles: list[list[float]] = [[] for _ in range(max(whole, 1))]
        for samples in self.per_connection:
            for request, engine, sent, done, _ in samples:
                index = int((sent - self.begin) / CYCLE_SECONDS)
                if keep(request, engine) and index < len(cycles):
                    cycles[index].append(done - sent)
        return cycles

    def throughput(self) -> float:
        """Replies per second: the upper quartile over whole cycles
        through the engines (see measure.quartile)."""
        whole = int((self.end - self.begin) / CYCLE_SECONDS + 1e-9)
        done_at = [s[3] for samples in self.per_connection for s in samples]
        if whole < 2:
            return len(done_at) / (self.end - self.begin)
        counts = [0] * whole
        for done in done_at:
            index = int((done - self.begin) / CYCLE_SECONDS)
            if index < whole:
                counts[index] += 1
        return quartile(counts, upper=True) / CYCLE_SECONDS


def is_read(request: Request, engine: int) -> bool:
    return request.read


def drive(clients, streams, offsets, seconds: float, outcome: Outcome,
          spans: Spans | None = None) -> Window:
    """Run every connection's stream from its offset for ``seconds``."""
    sides = split_processors()
    everywhere = os.sched_getaffinity(0)
    if sides is not None:
        os.sched_setaffinity(0, sides[0])  # threads started below inherit it
    barrier = threading.Barrier(len(clients) + 1)
    results: list = [None] * len(clients)
    lock = threading.Lock()
    clock = {}

    def run(index: int) -> None:
        client, stream = clients[index], streams[index]
        samples = []
        problems = []
        barrier.wait()
        begin, deadline = clock["begin"], clock["deadline"]
        position = offsets[index]
        for request in stream[position:]:
            moment = now()
            if moment >= deadline:
                break
            engine = int((moment - begin) / PHASE_SECONDS) % len(cases.ENGINES)
            data = encode_message(client.message(request, engine))
            sent = now()
            try:
                reply = client.wire.exchange(data)
            except (OSError, ConnectionError) as exc:
                problems.append(f"connection {index}: {type(exc).__name__}: {exc}")
                break
            done = now()
            samples.append((request, engine, sent, done, reply.get("elapsed_s", 0.0)))
            problem = judge(request, reply, position % ROW_SAMPLE == 0)
            if problem:
                problems.append(problem)
            position += 1
        else:
            problems.append(
                f"connection {index} ran out of requests before the window "
                f"ended; the stream is sized for {STREAM_RATE} requests a second"
            )
        offsets[index] = position
        with lock:
            results[index] = (samples, problems)

    threads = [
        threading.Thread(target=run, args=(index,)) for index in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    clock["begin"] = now()
    clock["deadline"] = clock["begin"] + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    end = now()
    os.sched_setaffinity(0, everywhere)
    for index, (samples, problems) in enumerate(results):
        outcome.attempted += len(samples)
        for problem in problems:
            outcome.fail(problem)
        if spans:
            for request, _, sent, done, _ in samples:
                name = "wire.read" if request.read else "wire.update"
                spans.add(name, sent, done, -1, index)
    return Window(clock["begin"], end, [samples for samples, _ in results])


# ----------------------------------------------------------------------
# In-process replay
# ----------------------------------------------------------------------
class Replay:
    """The request path of the server, re-run in this process one
    request at a time with a span around each call into a layer.

    With ``pool`` the execution half goes the way of the worker pool:
    the shape is put on the wire form, the frame is pickled and crosses a
    socket pair, ``WorkerState.handle`` runs it, and the reply returns
    the same way.
    """

    def __init__(self, seed: int, prepared, pool: bool) -> None:
        self.host = DatabaseHost(
            DATABASE, cases.serve_catalog(seed), prepared_cache_size=PREPARED_CACHE
        )
        self.pool = pool
        if pool:
            self.worker = WorkerState(
                {DATABASE: cases.serve_catalog(seed)},
                {"prepared_cache_size": PREPARED_CACHE},
            )
            self.near, self.far = socket.socketpair()
        self.prepared = prepared
        self.statements = {}
        self.prepare()
        self.spans = Spans()
        self.samples: dict[str, list[float]] = {}
        self.read_totals: list[float] = []
        self.all_totals: list[float] = []

    def prepare(self) -> None:
        for shape in self.prepared:
            query = parse_rule(shape.text(tuple(range(shape.values))))
            statement, _, _ = self.host.prepare(query, shape.method)
            self.statements[shape.name] = statement.statement_id

    def close(self) -> None:
        if self.pool:
            self.near.close()
            self.far.close()

    def serve(self, request: Request, engine: int, identifier: int,
              record: bool) -> None:
        host = self.host
        engine_name = cases.ENGINES[engine]
        # The session does not matter to the replay: it names the engine.
        line = encode_message(wire_message(request, 1, self.statements))
        marks: list[tuple[str, float, float]] = []
        #: (sample name, value) pairs that are not spans of their own.
        facts: list[tuple[str, float]] = []
        clock = [now()]

        def mark(name: str, aside: bool = False) -> None:
            """Close the span since the last mark; ``aside`` keeps it off
            the books as a sample (work done twice to time a part of it)."""
            end = now()
            if aside:
                facts.append((name, end - clock[0]))
                end = now()
            else:
                marks.append((name, clock[0], end))
            clock[0] = end

        begin = clock[0]
        message = decode_line(line)
        mark("service.protocol.decode")
        if request.kind == "update":
            insert = [tuple(row) for row in message["insert"]]
            delete = [tuple(row) for row in message["delete"]]
            inserted, deleted = host.update(message["relation"], insert, delete)
            mark("relalg.database")
            response = ok_response(
                None, relation=message["relation"], inserted=inserted,
                deleted=deleted, version=host.database.version(message["relation"]),
            )
        else:
            if request.kind == "query":
                query = parse_rule(message["rule"])
                mark("datalog")
                statement, values, hit = host.prepare(query, message["method"])
                mark("service.prepared.lookup")
                if not hit:
                    # The miss planned the statement; plan it once more,
                    # off the books, to learn how much of the miss that was.
                    start = now()
                    plan_query(statement.query, statement.method, rng=random.Random(0))
                    planned = min(now() - start, marks[-1][2] - marks[-1][1])
                    name, lookup_start, lookup_end = marks.pop()
                    marks.append((name, lookup_start, lookup_end - planned))
                    marks.append(("core", lookup_end - planned, lookup_end))
                    facts.append((f"plan.{statement.method}", planned))
                    clock[0] = now()
            else:
                statement = host.prepared.by_id(message["statement"])
                values = tuple(message["params"])
                hit = True
                mark("service.prepared.lookup")
            if self.pool:
                rows, elapsed, rebound = self._through_worker(
                    statement, values, engine_name, mark, facts
                )
            else:
                rebound = statement.bind(host.database, values)
                mark("service.prepared.bind")
                engine = host.engine(engine_name)
                misses = engine.cache_info().misses
                start = now()
                result = engine.execute(statement.plan)
                end = now()
                # Counted at the span's own boundary: a call that missed
                # nowhere was served whole from the result cache.
                cached = engine.cache_info().misses == misses
                elapsed = end - start
                marks.append(
                    ("relalg.cache" if cached else KERNEL_LAYER[engine_name],
                     start, end)
                )
                kind = "hit" if cached else "recompute"
                facts.append((f"{kind}.{engine_name}", elapsed))
                clock[0] = now()
                rows = [list(row) for row in sorted(result.rows, key=repr)]
                mark("service.serialize")
            response = ok_response(
                None, statement=statement.statement_id,
                columns=list(statement.columns), rows=rows, cardinality=len(rows),
                cached=hit, rebound=rebound, elapsed_s=elapsed,
            )
        clock[0] = now()
        data = encode_message(response)
        mark("service.protocol.encode")
        decode_line(data)
        mark("service.protocol.client_decode")
        if not record:
            return
        total = sum(end - start for _, start, end in marks)
        self.all_totals.append(total)
        if request.read:
            self.read_totals.append(total)
        parent = self.spans.open("replay", begin, identifier)
        self.spans.close(parent, clock[0])
        for name, start, end in marks:
            self.spans.add(name, start, end, parent, identifier)
            facts.append((name, end - start))
        if request.kind == "query":
            start = now()
            canonicalize_query(query)
            facts.append(("canonicalize", now() - start))
        for name, value in facts:
            self.samples.setdefault(name, []).append(value)

    def _through_worker(self, statement, values, engine_name, mark, facts):
        frame = {
            "kind": "exec", "db": DATABASE, "engine": engine_name,
            "method": statement.method, "statement": statement.statement_id,
            "shape": shape_to_wire(statement.shape), "params": list(values),
        }
        mark("service.pool.frame")
        # send_frame pickles the frame itself; pickling it once more right
        # after (the warmer of the two) tells how much of the crossing that
        # was, and the rest is the socket.
        send_frame(self.near, frame)
        received = recv_frame(self.far)
        mark("service.pool.socket")
        blob = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)
        mark("service.pool.pickle", aside=True)
        raw = self.worker.handle(received)
        mark("service.worker")
        send_frame(self.far, raw)
        raw = recv_frame(self.near)
        mark("service.pool.socket")
        reply_blob = pickle.dumps(raw, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(reply_blob)
        mark("service.pool.pickle", aside=True)
        if not raw.get("ok"):
            raise RuntimeError(f"the replayed worker refused: {raw}")
        facts.append(("frame_bytes", len(blob) + len(reply_blob)))
        facts.append((f"worker.elapsed.{engine_name}", raw["elapsed"]))
        return raw["rows"], raw["elapsed"], raw["rebound"]

    def per_request(self, name: str, requests: int) -> float:
        """Seconds of layer ``name`` per replayed request."""
        return sum(self.samples.get(name, ())) / requests if requests else 0.0


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
class Serve:
    """Common life cycle of a serve_* workload."""

    name = ""
    workers = 0
    mixed = False

    def __init__(self, seed: int, smoke: bool, corrupt: bool, src: Path,
                 work: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.corrupt = corrupt
        self.src = src
        self.work = work
        self.notes: dict = {}
        self.server: ServerProcess | None = None
        self.clients: list[Client] = []
        cpus = len(os.sched_getaffinity(0))
        if self.workers > cpus - 1:
            raise SystemExit(
                f"{self.name} needs workers <= cpus - 1 and this host has "
                f"{cpus} cpu(s) for {self.workers} worker(s); it does not "
                "measure workers that share a processor with the front end"
            )
        self.shapes = cases.mixed_shapes() if self.mixed else cases.warm_shapes()
        self.prepared = [
            s for s in self.shapes if s.kind == "fig" or not self.mixed
        ]

    # -- inputs (not part of set-up: the program never sees them made) ----
    def generate(self, seconds: float) -> None:
        self.answers = Answers(self.seed)
        total = connections()
        count = int(STREAM_RATE * (seconds + 1.0))
        # serve_pool sends exactly serve_warm's requests: the stream is a
        # function of the seed and the connection, not of the workload.
        if self.mixed:
            self.streams = [
                mixed_stream(self.seed, c, total, count, self.shapes, self.answers)
                for c in range(total)
            ]
        else:
            self.streams = [
                warm_stream(self.seed, c, count, self.shapes, self.answers)
                for c in range(total)
            ]
        self.offsets = [0] * total
        if self.corrupt:
            first = next(r for r in self.streams[0] if r.read and r.expect is not None)
            first.expect = frozenset(first.expect | {(-1,)})
            # Position 0 of a stream is always among the full-row samples,
            # but a wrong count is caught wherever it is.

    # -- set-up: catalog on disk, server, sessions, statements -------------
    def setup(self, workers: int | None = None) -> None:
        self.teardown()
        catalog = self.work / "catalog"
        save_database(cases.serve_catalog(self.seed), catalog)
        self.server = ServerProcess(
            self.src, self.work, catalog,
            self.workers if workers is None else workers,
        )
        self.clients = [
            Client(self.server.port, self.prepared) for _ in range(connections())
        ]

    def teardown(self) -> None:
        for client in self.clients:
            client.wire.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def warm_requests(self) -> list[tuple[Request, int]]:
        """Every shape once as ``(request, engine number)`` (the read-only
        workloads: once per engine), the order both the server and the
        replay are warmed in."""
        rng = random.Random(self.seed + 99)
        requests = []
        for index, shape in enumerate(self.shapes):
            pool = cases.MIXED_ANCHOR_POOL if self.mixed else cases.ANCHOR_POOL
            values = tuple(rng.randrange(pool) for _ in range(shape.values))
            engines = [index % 3] if self.mixed else range(len(cases.ENGINES))
            # The sweep over more shapes than the statement cache holds
            # evicts what was prepared, so there it asks by rule text.
            request = Request("query" if self.mixed else "execute", shape, values)
            requests.extend((request, engine) for engine in engines)
        return requests

    def verify(self, outcome: Outcome) -> None:
        """Every shape, served, equals ``evaluate()`` on a fresh catalog
        (and the chain reference agrees with both)."""
        client = self.clients[0]
        for request, engine in self.warm_requests():
            reply = client.wire.exchange(
                encode_message(client.message(request, engine))
            )
            expected = self.answers.evaluate(request.shape, request.values)
            served = (
                {tuple(row) for row in reply["rows"]} if reply.get("ok") else None
            )
            outcome.check(
                served == expected,
                f"{request.shape.name}{request.values} on "
                f"{cases.ENGINES[engine]}: served rows differ from evaluate()",
            )
            if request.shape.kind != "fig":
                outcome.check(
                    self.answers.rows(request.shape, request.values) == expected,
                    f"{request.shape.name}{request.values}: the chain reference "
                    "differs from evaluate()",
                )
        for client in self.clients:
            client.prepare()

    def control(self, reset: bool = False) -> dict:
        wire = Wire(self.server.port)
        try:
            return wire.call("stats", reset=reset)["stats"]
        finally:
            wire.close()

    def finish(self, outcome: Outcome) -> None:
        """After the last window: for the mixed workload, the server's
        ``feed`` against the reference model."""
        if not self.mixed:
            return
        done = [stream[:offset] for stream, offset in zip(self.streams, self.offsets)]
        client = self.clients[0]
        reply = client.wire.call(
            "query", session=client.sessions[0], rule="q(U, W) :- feed(U, W)."
        )
        outcome.check(
            {tuple(row) for row in reply["rows"]} == final_feed(self.answers, done),
            "feed on the server differs from the reference model after the run",
        )

    # -- metrics ------------------------------------------------------------
    def end_to_end(self, window: Window) -> dict[str, float]:
        metrics = {}
        for index, engine in enumerate(cases.ENGINES):
            metrics[f"op_ms.{engine}"] = 1e3 * quartile(window.phase_medians(index))
        reads = window.latencies(is_read)
        metrics["call_p95_ms"] = 1e3 * tail(window.cycles(is_read), 95, self.smoke)
        metrics["throughput_ops"] = window.throughput()
        metrics["peak_rss_mb"] = self.server.peak_rss_mb()
        self.notes["reads"] = len(reads)
        self.notes["read_p99_ms"] = 1e3 * percentile(reads, 99) if reads else 0.0
        return metrics

    def replay(self, earlier: list[Window], traced: Window) -> Replay:
        """Replay what the connections sent, in the order they sent it.
        The ``earlier`` windows only bring the caches to the state the
        traced window started from; the traced one is recorded."""
        replay = Replay(self.seed, self.prepared, pool=self.workers > 0)
        try:
            for request, engine in self.warm_requests():
                replay.serve(request, engine, -1, record=False)
            replay.prepare()
            for window in earlier:
                for request, engine, *_ in window.samples:
                    replay.serve(request, engine, -1, record=False)
            limit = traced.begin + REPLAY_CYCLES * CYCLE_SECONDS
            for identifier, (request, engine, sent, *_) in enumerate(traced.samples):
                if sent < limit or self.smoke:
                    replay.serve(request, engine, identifier, record=True)
        finally:
            replay.close()
        return replay

    def layers(self, window: Window, replay: Replay, before: dict,
               after: dict) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics, and the self time per layer the shares are
        taken from (the server's residual included)."""
        requests = len(replay.all_totals)
        reads = len(replay.read_totals)
        per = replay.per_request
        read_latency = mean(window.latencies(is_read))
        engine_seconds = mean(
            [sample[4] for sample in window.samples if sample[0].read]
        )
        metrics = {
            "service.engine_us": 1e6 * engine_seconds,
            "service.engine_share": engine_seconds / read_latency,
            "service.server.residual_us": 1e6 * (
                read_latency - mean(replay.read_totals)
            ),
            "service.update_p50_ms": 1e3 * median(
                window.latencies(lambda r, e: not r.read)
            ),
        }
        for metric, sample in REPLAYED_MEANS.items():
            metrics[metric] = 1e6 * mean(replay.samples.get(sample, ()))
        for method in cases.METHODS:
            metrics[f"core.plan_us.{method}"] = 1e6 * mean(
                replay.samples.get(f"plan.{method}", ())
            )
        for engine in cases.ENGINES:
            metrics[f"relalg.hit_us.{engine}"] = 1e6 * mean(
                replay.samples.get(f"hit.{engine}", ())
            )
            metrics[f"relalg.recompute_ms.{engine}"] = 1e3 * mean(
                replay.samples.get(f"recompute.{engine}", ())
            )
        # Counters the server keeps, over the timed windows only.
        host_before = before["databases"][DATABASE]
        host_after = after["databases"][DATABASE]
        prepared = {
            key: host_after["prepared"][key] - host_before["prepared"][key]
            for key in ("hits", "misses", "evictions")
        }
        lookups = prepared["hits"] + prepared["misses"]
        metrics["service.prepared.hit_rate"] = (
            prepared["hits"] / lookups if lookups else 0.0
        )
        metrics["service.prepared.evictions"] = float(prepared["evictions"])
        for engine in cases.ENGINES:
            # With a worker pool the engines live in the workers and the
            # front end has none to report.
            old = host_before["engines"].get(engine)
            new = host_after["engines"].get(engine)
            if old is None or new is None:
                continue
            hits, misses = new["hits"] - old["hits"], new["misses"] - old["misses"]
            metrics[f"relalg.cache.hit_rate.{engine}"] = (
                hits / (hits + misses) if hits + misses else 0.0
            )
            metrics[f"relalg.cache.evictions.{engine}"] = float(
                new["evictions"] - old["evictions"]
            )
        service = after["service"]
        metrics["service.server.queue_peak"] = float(service["queue_peak"])
        metrics["service.server.batch_mean"] = float(service["mean_batch_size"])
        if self.workers:
            pickled = per("service.pool.pickle", reads)
            crossing = per("service.pool.socket", reads) - pickled
            handled = per("service.worker", reads)
            inside = sum(
                per(f"worker.elapsed.{engine}", reads) for engine in cases.ENGINES
            )
            metrics["service.pool.pickle_us"] = 1e6 * pickled
            metrics["service.pool.socket_us"] = 1e6 * crossing
            metrics["service.pool.frame_bytes"] = mean(replay.samples["frame_bytes"])
            metrics["service.worker.handle_us"] = 1e6 * handled
            self.notes["pool.worker_beyond_engine_us"] = 1e6 * (handled - inside)
        self_times = replay.spans.self_times()
        self_times.pop("replay", None)
        if self.workers:
            # send_frame pickles too; what is left of the crossing is the
            # socket.  The worker reports how long its engine ran.
            moved = sum(replay.samples.get("service.pool.pickle", ()))
            self_times["service.pool.socket"] -= moved
            self_times["service.pool.pickle"] = moved
            for engine in cases.ENGINES:
                inside = sum(replay.samples.get(f"worker.elapsed.{engine}", ()))
                self_times["service.worker"] -= inside
                self_times[KERNEL_LAYER[engine]] = inside
        all_latency = mean(window.latencies(lambda r, e: True))
        self_times["service.server"] = max(
            0.0, all_latency * requests - sum(replay.all_totals)
        )
        return metrics, self_times


class ServeWarm(Serve):
    name = "serve_warm"


class ServeMixed(Serve):
    name = "serve_mixed"
    mixed = True


class ServePool(Serve):
    name = "serve_pool"
    workers = 1


WORKLOADS = {cls.name: cls for cls in (ServeWarm, ServeMixed, ServePool)}
