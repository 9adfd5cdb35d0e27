"""Multi-process engine worker pool: sharding, routing, replication.

This is the parent-side half of the pool backend (the child side is
``repro.service.worker``).  A :class:`WorkerPool` owns N worker
processes connected over loopback TCP with length-prefixed pickle
frames, and gives the front end three things:

**Database-affinity sharding.**  Databases are assigned to workers by
sorted name: database *i* gets worker ``i % N`` as its *primary* and the
next ``K`` workers (mod N) as read *replicas*.  Every write for a
database — ``update`` deltas and the catalog version bumps they imply —
runs on its primary, so per-database write order is simply the
primary's FIFO queue order.  Reads fan out across primary + replicas.

**Replica sync with read-your-writes.**  The pool stamps each write
with a per-database monotonic sequence number.  After the primary acks
a write, the front end mirrors the delta into its own authoritative
catalog copy and the pool forwards an ``apply`` frame to each replica;
a replica's ack advances its ``applied_seq`` for that database.  A read
that must observe a session's writes carries the highest sequence
number that session wrote to any scanned relation, and only workers
whose ``applied_seq`` has reached it are eligible — the primary always
is, because its queue already ordered the write before the read.  Other
sessions' reads are free to hit any replica (monotonic, possibly
slightly stale — the same contract a read replica gives you anywhere).

**Failure semantics.**  The pump detects a worker crash as EOF (or an
IPC error) on its socket.  The in-flight request fails with the
retryable ``worker_failed`` error code — for a write this means *not
durable*: the front-end mirror is only updated after the primary acks,
so a failed write is absent from every copy.  Queued requests stay
queued; the worker is respawned from a snapshot of the front end's
catalog copies (which, being mirror-on-ack, already contain every
forwarded delta — replaying still-queued ``apply`` frames afterwards is
an idempotent no-op because deltas are set-semantic row operations).

**One pump per executor.**  Each worker's queue is drained by one
pump coroutine: it owns the admission count, the deadline check at
dequeue, the in-flight and shutdown failures and the queue-depth stats.
:class:`LocalPool` runs the same pump in front of one
:class:`~repro.service.worker.WorkerState` on a thread of this process
(``--workers 0``); only the transport differs.

Everything here runs on the service's single asyncio loop; state reads
like routing tables and sequence counters never race with mutation.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import secrets
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from repro.service.stats import ServiceStats
from repro.service.worker import FRAME_HEADER, MAX_FRAME_BYTES, WorkerState

#: Seconds a worker may stay idle before the pump sends a health ping.
HEALTH_INTERVAL = 15.0

#: Hard ceiling on one request's time *inside* a worker.  This is a
#: backstop against a wedged child (the per-request queue-wait deadline
#: is enforced separately, at dequeue); hitting it is treated exactly
#: like a crash.
HARD_REQUEST_TIMEOUT = 300.0

#: Handshake budget for a freshly spawned process (it imports the whole
#: package from scratch).
SPAWN_TIMEOUT = 60.0

#: Seconds a terminated worker gets to exit before it is killed.
REAP_TIMEOUT = 5.0

#: What a worker process runs; port and worker id follow on argv, the
#: handshake secret arrives on stdin.  ``-c`` rather than ``-m
#: repro.service.worker``: the package already imports that module, and
#: running it again as ``__main__`` would execute it twice.
WORKER_ENTRY = "from repro.service.worker import main; main()"


@dataclass
class PoolRequest:
    """One unit of work queued for a worker.

    ``future`` is resolved with the worker's raw response dict (the
    front end translates it onto the wire protocol); internal replica
    ``apply`` frames carry ``future=None``.  ``db``/``seq`` are set on
    write traffic so the pump can advance replication watermarks.
    """

    frame: dict
    future: asyncio.Future | None
    deadline: float | None = None
    db: str | None = None
    seq: int = 0


def _refuse(item: PoolRequest, code: str, message: str) -> None:
    """Fail a client request with an error reply (replica ``apply``
    frames have no client and are skipped)."""
    if item.future is not None and not item.future.done():
        item.future.set_result({"ok": False, "code": code, "message": message})


@dataclass
class WorkerHandle:
    """Parent-side view of one worker process."""

    worker_id: int
    process: subprocess.Popen | None = None
    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None
    queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    #: Replication watermark: highest write sequence applied, per db.
    applied_seq: dict[str, int] = field(default_factory=dict)
    inflight: PoolRequest | None = None
    dispatched: int = 0
    completed: int = 0
    errors: int = 0
    respawns: int = 0
    pid: int | None = None

    @property
    def outstanding(self) -> int:
        return self.queue.qsize() + (1 if self.inflight is not None else 0)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


def plan_assignments(
    databases: list[str], workers: int, replicas: int
) -> dict[str, tuple[int, tuple[int, ...]]]:
    """Map each database to ``(primary, replicas)`` worker ids.

    Databases are taken in sorted order so the layout is a pure function
    of the catalog set; replicas are the next ``replicas`` workers after
    the primary (mod N), clamped so a worker never replicates itself.

    >>> plan_assignments(["a", "b", "c"], 2, 1)
    {'a': (0, (1,)), 'b': (1, (0,)), 'c': (0, (1,))}
    >>> plan_assignments(["a"], 1, 3)
    {'a': (0, ())}
    """
    effective = max(0, min(replicas, workers - 1))
    out: dict[str, tuple[int, tuple[int, ...]]] = {}
    for index, name in enumerate(sorted(databases)):
        primary = index % workers
        out[name] = (
            primary,
            tuple((primary + 1 + r) % workers for r in range(effective)),
        )
    return out


def choose_reader(
    candidates: list[WorkerHandle],
    db: str,
    need_seq: int,
    primary_id: int,
    rotation: int,
) -> tuple[WorkerHandle, bool]:
    """Pick the least-loaded worker allowed to serve this read.

    A candidate is *eligible* when it has applied every write the
    session needs to observe (``applied_seq[db] >= need_seq``); the
    primary is always eligible because its FIFO queue ordered those
    writes ahead of this read.  Among eligible workers the one with the
    fewest outstanding requests wins, with ``rotation`` breaking ties so
    equally-idle replicas share the load.  Returns ``(handle, gated)``
    where ``gated`` records that staleness excluded at least one
    replica (a telemetry signal for replica lag).
    """
    eligible = [
        h
        for h in candidates
        if h.worker_id == primary_id or h.applied_seq.get(db, 0) >= need_seq
    ]
    gated = len(eligible) < len(candidates)
    order = len(candidates)
    return (
        min(
            eligible,
            key=lambda h: (h.outstanding, (h.worker_id - rotation) % order),
        ),
        gated,
    )


class WorkerPool:
    """N worker processes plus the router/replication state over them.

    The pool does not speak the client protocol and knows nothing about
    sessions; the front end (``QueryService``) computes each read's
    required sequence number and calls :meth:`route_read` /
    :meth:`call` / :meth:`forward_apply`.  ``snapshot_databases`` is
    the front end's callback returning its current authoritative
    catalog copies, used to bootstrap spawns and respawns.  ``stats``
    receives the queue-depth and dispatch counts.
    """

    def __init__(
        self,
        databases: list[str],
        workers: int,
        replicas: int,
        snapshot_databases: Callable[[int], dict],
        *,
        queue_limit: int = 256,
        prepared_cache_size: int = 256,
        plan_cache_size: int = 256,
        health_interval: float | None = HEALTH_INTERVAL,
        hard_timeout: float = HARD_REQUEST_TIMEOUT,
        stats: ServiceStats | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        self.workers = workers
        self.replicas = max(0, min(replicas, workers - 1))
        self.assignments = plan_assignments(databases, workers, self.replicas)
        self._snapshot_databases = snapshot_databases
        self._queue_limit = queue_limit
        self._config = {
            "prepared_cache_size": prepared_cache_size,
            "plan_cache_size": plan_cache_size,
        }
        self._health_interval = health_interval
        self._hard_timeout = hard_timeout
        self.stats = stats or ServiceStats()
        self.handles = [WorkerHandle(i) for i in range(workers)]
        self.write_seq: dict[str, int] = {name: 0 for name in databases}
        self._queued = 0  # client requests across all queues (applies exempt)
        self._rotation: dict[str, int] = {name: 0 for name in databases}
        self.reads_primary = 0
        self.reads_replica = 0
        self.read_gate_fallbacks = 0
        self.worker_failures = 0
        self._secret = secrets.token_hex(16)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._port: int | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._pumps: list[asyncio.Task] = []
        self._stopping = False

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Open the transport, then start one pump per worker."""
        self._loop = asyncio.get_running_loop()
        await self._open()
        self._pumps = [
            self._loop.create_task(self._pump(h), name=f"pool-pump-{h.worker_id}")
            for h in self.handles
        ]

    async def _open(self) -> None:
        """Bind the internal listener and spawn every worker."""
        self._server = await asyncio.start_server(
            self._on_connect, host="127.0.0.1", port=0
        )
        self._port = self._server.sockets[0].getsockname()[1]
        await asyncio.gather(*(self._spawn(h) for h in self.handles))

    async def stop(self) -> None:
        """Cancel pumps, fail in-flight and queued work with ``shutdown``,
        terminate and wait for every worker process, close the transport."""
        self._stopping = True
        for task in self._pumps:
            task.cancel()
        for task in self._pumps:
            # Python 3.11's wait_for can swallow a cancellation that
            # races with the inner future completing (bpo-37658); the
            # pump re-checks _stopping for that case, and the bound
            # here keeps stop() finite even if a pump wedges anyway.
            try:
                await asyncio.wait_for(task, timeout=10.0)
            except (asyncio.CancelledError, Exception):
                pass
        for handle in self.handles:
            self._fail_inflight(handle, "shutdown", "server is stopping")
            self._drain_queue(handle, "shutdown", "server is stopping")
            await self._close_transport(handle)
            self._reap(handle)
        await self._close()

    async def _close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Accept a worker's connect-back and hand it to the waiting spawn."""
        try:
            hello = await asyncio.wait_for(self._read_frame(reader), timeout=10.0)
        except Exception:
            writer.close()
            return
        if (
            not isinstance(hello, dict)
            or hello.get("kind") != "hello"
            or hello.get("secret") != self._secret
        ):
            writer.close()
            return
        pending = self._pending.pop(hello.get("worker"), None)
        if pending is None or pending.done():
            writer.close()
            return
        pending.set_result((reader, writer, hello.get("pid")))

    async def _spawn(self, handle: WorkerHandle) -> None:
        """Start one worker process and bootstrap it from the front end's
        current catalog state."""
        assert self._loop is not None and self._port is not None
        ready: asyncio.Future = self._loop.create_future()
        self._pending[handle.worker_id] = ready
        # The child gets this process's import path (a script may have
        # extended it) and the secret on stdin, which ``ps`` cannot see.
        handle.process = subprocess.Popen(
            [
                sys.executable, "-c", WORKER_ENTRY,
                str(self._port), str(handle.worker_id),
            ],
            stdin=subprocess.PIPE,
            env=dict(
                os.environ,
                PYTHONPATH=os.pathsep.join(p or os.getcwd() for p in sys.path),
            ),
        )
        try:
            with handle.process.stdin as pipe:
                pipe.write(self._secret.encode() + b"\n")
            reader, writer, pid = await asyncio.wait_for(
                ready, timeout=SPAWN_TIMEOUT
            )
        except (OSError, asyncio.TimeoutError, asyncio.CancelledError):
            self._pending.pop(handle.worker_id, None)
            self._reap(handle)
            raise
        handle.reader, handle.writer, handle.pid = reader, writer, pid
        # Snapshot and watermark capture happen back-to-back with no
        # await between them, so the sequence numbers describe exactly
        # the state being pickled (the loop cannot interleave a write).
        hosted = self._hosted(handle.worker_id)
        databases = self._snapshot_databases(handle.worker_id)
        handle.applied_seq = {name: self.write_seq[name] for name in hosted}
        await self._send_frame(
            handle,
            {"kind": "bootstrap", "databases": databases, "config": self._config},
        )

    def _reap(self, handle: WorkerHandle) -> None:
        """Terminate the worker's process if it still runs and wait for
        it (kill at the bound), so a dead worker is never left a zombie
        and a live one never an orphan."""
        process, handle.process = handle.process, None
        if process is None:
            return
        if process.poll() is None:
            process.terminate()
        try:
            process.wait(timeout=REAP_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    def _hosted(self, worker_id: int) -> list[str]:
        """Database names this worker serves (as primary or replica)."""
        return [
            name
            for name, (primary, reps) in self.assignments.items()
            if worker_id == primary or worker_id in reps
        ]

    # -- framing ------------------------------------------------------

    async def _exchange(self, handle: WorkerHandle, frame: dict) -> dict:
        """Run one frame on the worker and return its reply."""
        await self._send_frame(handle, frame)
        return await asyncio.wait_for(
            self._read_frame(handle.reader), timeout=self._hard_timeout
        )

    async def _send_frame(self, handle: WorkerHandle, frame: dict) -> None:
        data = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
        handle.writer.write(FRAME_HEADER.pack(len(data)) + data)
        await handle.writer.drain()

    async def _read_frame(self, reader: asyncio.StreamReader):
        header = await reader.readexactly(FRAME_HEADER.size)
        (length,) = FRAME_HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise EOFError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
        return pickle.loads(await reader.readexactly(length))

    async def _close_transport(self, handle: WorkerHandle) -> None:
        if handle.writer is not None:
            handle.writer.close()
            try:
                await handle.writer.wait_closed()
            except Exception:
                pass
        handle.reader = handle.writer = None

    # -- routing and submission ---------------------------------------

    def primary(self, db: str) -> WorkerHandle:
        return self.handles[self.assignments[db][0]]

    def next_seq(self, db: str) -> int:
        self.write_seq[db] += 1
        return self.write_seq[db]

    def route_read(self, db: str, need_seq: int) -> WorkerHandle:
        """Pick a worker for a read that must observe ``need_seq``."""
        primary_id, replica_ids = self.assignments[db]
        candidates = [self.handles[primary_id]] + [
            self.handles[r] for r in replica_ids
        ]
        self._rotation[db] = (self._rotation[db] + 1) % max(1, len(candidates))
        handle, gated = choose_reader(
            candidates, db, need_seq, primary_id, self._rotation[db]
        )
        if gated:
            self.read_gate_fallbacks += 1
        if handle.worker_id == primary_id:
            self.reads_primary += 1
        else:
            self.reads_replica += 1
        return handle

    async def call(
        self, handle: WorkerHandle, frame: dict, deadline: float
    ) -> dict:
        """Queue one client frame on ``handle`` and return the reply: the
        worker's, or a refusal (``overloaded`` at the admission limit,
        ``timeout`` past ``deadline`` at dequeue, ``worker_failed``,
        ``shutdown``) in the same ``ok`` / ``code`` / ``message`` form."""
        assert self._loop is not None
        if self._queued >= self._queue_limit:
            return {
                "ok": False,
                "code": "overloaded",
                "message": f"admission queue full ({self._queue_limit})",
            }
        item = PoolRequest(frame, self._loop.create_future(), deadline)
        self._queued += 1
        self.stats.set_queue_depth(self._queued)
        handle.queue.put_nowait(item)
        return await item.future

    def forward_apply(self, frame: dict) -> None:
        """Fan a committed ``apply`` frame out to its database's replicas.

        Internal traffic: exempt from the admission limit (dropping an
        apply would wedge the replica's watermark forever) and carries
        no future — the pump advances ``applied_seq`` on ack.
        """
        db = frame["db"]
        for replica_id in self.assignments[db][1]:
            self.handles[replica_id].queue.put_nowait(
                PoolRequest(frame=frame, future=None, db=db, seq=frame["seq"])
            )

    def record_commit(self, db: str, seq: int, handle: WorkerHandle) -> None:
        """Note that ``handle`` (the primary) has applied write ``seq``
        and the front-end mirror is updated."""
        if seq > handle.applied_seq.get(db, 0):
            handle.applied_seq[db] = seq

    # -- the per-worker pump ------------------------------------------

    async def _pump(self, handle: WorkerHandle) -> None:
        """Drain one worker's queue: strictly one frame in flight.

        Deadlines are enforced at dequeue — a request that waited out
        its budget in the queue fails with ``timeout`` *without ever
        executing*.  Any transport or worker failure fails the in-flight
        request with ``worker_failed`` and respawns the process from the
        front end's current catalog state; queued work survives.  A
        cancelled pump leaves its in-flight request to :meth:`stop`.
        """
        assert self._loop is not None
        while not self._stopping:
            try:
                item = await asyncio.wait_for(
                    handle.queue.get(), timeout=self._health_interval
                )
            except asyncio.TimeoutError:
                if not await self._health_check(handle):
                    await self._recover(handle)
                continue
            if self._stopping:
                # stop() cancelled us but wait_for raced the dequeue and
                # swallowed the CancelledError (3.11 bpo-37658): leave
                # the item to stop()'s drain and bail out.
                handle.queue.put_nowait(item)
                break
            if item.future is not None:
                self._queued -= 1
                self.stats.set_queue_depth(self._queued)
                if item.future.done():  # client gave up (connection dropped)
                    continue
                if self._loop.time() > item.deadline:
                    _refuse(
                        item, "timeout", "request exceeded its queue-wait deadline"
                    )
                    continue
                self.stats.record_batch(1)
            handle.inflight = item
            handle.dispatched += 1
            try:
                response = await self._exchange(handle, item.frame)
            except Exception:
                self._fail_inflight(
                    handle,
                    "worker_failed",
                    f"worker {handle.worker_id} failed mid-request; "
                    "the request may not have run",
                )
                await self._recover(handle)
                continue
            handle.inflight = None
            handle.completed += 1
            if not response.get("ok", False):
                handle.errors += 1
            if item.db is not None and response.get("ok", False):
                if item.seq > handle.applied_seq.get(item.db, 0):
                    handle.applied_seq[item.db] = item.seq
            if item.future is not None and not item.future.done():
                item.future.set_result(response)

    async def _health_check(self, handle: WorkerHandle) -> bool:
        try:
            response = await asyncio.wait_for(
                self._exchange(handle, {"kind": "ping"}), timeout=10.0
            )
            return bool(response.get("pong"))
        except Exception:
            return False

    def _fail_inflight(self, handle: WorkerHandle, code: str, message: str) -> None:
        item, handle.inflight = handle.inflight, None
        if item is not None:
            handle.errors += 1
            _refuse(item, code, message)

    def _drain_queue(self, handle: WorkerHandle, code: str, message: str) -> None:
        while not handle.queue.empty():
            item = handle.queue.get_nowait()
            if item.future is not None:
                self._queued -= 1
                _refuse(item, code, message)

    async def _recover(self, handle: WorkerHandle) -> None:
        """Replace a dead worker, keeping its queue.

        The bootstrap snapshot is taken from the front end's mirror
        copies, which already include every delta that was ever
        forwarded; still-queued ``apply`` frames re-run as idempotent
        no-ops after the respawn.
        """
        self.worker_failures += 1
        await self._close_transport(handle)
        self._reap(handle)
        delay = 0.2
        while not self._stopping:
            try:
                await self._spawn(handle)
            except asyncio.CancelledError:
                raise
            except Exception:
                await asyncio.sleep(delay)
                delay = min(delay * 2, 5.0)
                continue
            handle.respawns += 1
            return

    # -- introspection ------------------------------------------------

    def replica_lag(self) -> dict[str, int]:
        """Worst-case applied-sequence lag per database across replicas."""
        out: dict[str, int] = {}
        for name, (_, replica_ids) in self.assignments.items():
            head = self.write_seq[name]
            out[name] = max(
                (head - self.handles[r].applied_seq.get(name, 0) for r in replica_ids),
                default=0,
            )
        return out

    def snapshot(self) -> dict:
        """JSON-ready pool block for the ``stats`` op."""
        return {
            "workers": {
                str(h.worker_id): {
                    "pid": h.pid,
                    "alive": h.alive,
                    "queue_depth": h.queue.qsize(),
                    "inflight": h.inflight is not None,
                    "dispatched": h.dispatched,
                    "completed": h.completed,
                    "errors": h.errors,
                    "respawns": h.respawns,
                    "applied_seq": dict(h.applied_seq),
                }
                for h in self.handles
            },
            "assignments": {
                name: {"primary": primary, "replicas": list(reps)}
                for name, (primary, reps) in sorted(self.assignments.items())
            },
            "write_seq": dict(self.write_seq),
            "replica_lag": self.replica_lag(),
            "queued": self._queued,
            "reads_primary": self.reads_primary,
            "reads_replica": self.reads_replica,
            "read_gate_fallbacks": self.read_gate_fallbacks,
            "worker_failures": self.worker_failures,
        }

    def reset_counters(self) -> None:
        """Zero the dispatch/routing counters (gauges and replication
        watermarks are state, not traffic, and are kept)."""
        self.reads_primary = 0
        self.reads_replica = 0
        self.read_gate_fallbacks = 0
        self.worker_failures = 0
        for handle in self.handles:
            handle.dispatched = 0
            handle.completed = 0
            handle.errors = 0


class LocalPool(WorkerPool):
    """The ``--workers 0`` executor: ``state`` driven on one thread of
    this process, behind the same queue, pump and deadlines as a worker.

    Given the front end's own :class:`WorkerState`, it executes on the
    very hosts the ``stats`` op reports, so nothing is copied.  The one
    thread serializes all engine and catalog access: the engines and the
    ``Database`` need no locks.  There is no process to health-check,
    time out or respawn.
    """

    def __init__(self, state: WorkerState, **options) -> None:
        super().__init__(
            list(state.hosts), 1, 0, None, health_interval=None, **options
        )
        self._state = state
        self._thread: ThreadPoolExecutor | None = None

    async def _open(self) -> None:
        self._thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service"
        )

    async def _exchange(self, handle: WorkerHandle, frame: dict) -> dict:
        return await self._loop.run_in_executor(
            self._thread, self._state.handle, frame
        )

    async def _recover(self, handle: WorkerHandle) -> None:
        self.worker_failures += 1

    async def _close(self) -> None:
        if self._thread is not None:
            self._thread.shutdown(wait=True)
            self._thread = None


__all__ = [
    "HARD_REQUEST_TIMEOUT",
    "HEALTH_INTERVAL",
    "LocalPool",
    "PoolRequest",
    "WorkerHandle",
    "WorkerPool",
    "choose_reader",
    "plan_assignments",
]
