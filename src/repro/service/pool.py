"""Multi-process engine worker pool: sharding and crash recovery.

This is the parent-side half of the pool backend (the child side is
``repro.service.worker``).  A :class:`WorkerPool` owns N worker
processes connected over loopback TCP with length-prefixed pickle
frames, and gives the front end two things:

**Database-affinity sharding.**  Databases are assigned to workers by
sorted name: database *i* lives on worker ``i % N``, its *owner*, which
runs every read and every write of that database.  Per-database order
is simply the owner's FIFO queue order, so a read issued after a write
was acknowledged observes it, whichever session issued either.  After
the owner acks a write, the front end mirrors the delta into its own
catalog copy, which is what a respawn bootstraps from.

**Failure semantics.**  The pump detects a worker crash as EOF (or an
IPC error) on its socket.  The in-flight request fails with the
retryable ``worker_failed`` error code — for a write this means *not
durable*: the front-end mirror is only updated after the owner acks,
so a failed write is absent from every copy.  Queued requests stay
queued; the worker is respawned from a snapshot of the front end's
catalog copies, which hold every acknowledged delta.

**One pump per executor.**  Each worker's queue is drained by one
pump coroutine: it owns the admission count, the deadline check at
dequeue, the in-flight and shutdown failures and the queue-depth stats.
:class:`LocalPool` runs the same pump in front of one
:class:`~repro.service.worker.WorkerState` on a thread of this process
(``--workers 0``); only the transport differs.

Everything here runs on the service's single asyncio loop; state reads
like the assignment table and the counters never race with mutation.
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

#: Handshake budget for a freshly spawned process (it imports what it
#: runs from scratch).
SPAWN_TIMEOUT = 60.0

#: Seconds a terminated worker gets to exit before it is killed.
REAP_TIMEOUT = 5.0

#: What a worker process runs; port and worker id follow on argv, the
#: handshake secret arrives on stdin.  ``-c`` rather than ``-m
#: repro.service.worker``: the module then runs under its own name, so
#: nothing that imports it later gets a second copy of it as ``__main__``.
WORKER_ENTRY = "from repro.service.worker import main; main()"


@dataclass
class PoolRequest:
    """One unit of work queued for a worker.

    ``future`` is resolved with the worker's raw response dict (the
    front end translates it onto the wire protocol); ``deadline`` is
    the loop time past which the request fails at dequeue.
    """

    frame: dict
    future: asyncio.Future
    deadline: float


def _refuse(item: PoolRequest, code: str, message: str) -> None:
    """Fail a request with an error reply."""
    if not item.future.done():
        item.future.set_result({"ok": False, "code": code, "message": message})


@dataclass
class WorkerHandle:
    """Parent-side view of one worker process."""

    worker_id: int
    process: subprocess.Popen | None = None
    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None
    queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    inflight: PoolRequest | None = None
    dispatched: int = 0
    completed: int = 0
    errors: int = 0
    respawns: int = 0
    pid: int | None = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


def plan_assignments(databases: list[str], workers: int) -> dict[str, int]:
    """Map each database to the id of the one worker that owns it.

    Databases are taken in sorted order so the layout is a pure function
    of the catalog set.

    >>> plan_assignments(["c", "a", "b"], 2)
    {'a': 0, 'b': 1, 'c': 0}
    """
    return {name: index % workers for index, name in enumerate(sorted(databases))}


class WorkerPool:
    """N worker processes plus the assignment of databases to them.

    The pool does not speak the client protocol and knows nothing about
    sessions; the front end (``QueryService``) sends each engine op to
    :meth:`owner` through :meth:`call`.  ``snapshot_databases`` is the
    front end's callback returning its current authoritative catalog
    copies, used to bootstrap spawns and respawns.  ``stats`` receives
    the queue-depth and dispatch counts.
    """

    def __init__(
        self,
        databases: list[str],
        workers: int,
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
        self.assignments = plan_assignments(databases, workers)
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
        self._queued = 0  # requests across all queues
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
        databases = self._snapshot_databases(handle.worker_id)
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
        """Names of the databases this worker owns."""
        return [name for name, owner in self.assignments.items() if owner == worker_id]

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

    # -- submission ---------------------------------------------------

    def owner(self, db: str) -> WorkerHandle:
        """The worker that runs every read and write of ``db``."""
        return self.handles[self.assignments[db]]

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
            self._queued -= 1
            self.stats.set_queue_depth(self._queued)
            if item.future.done():  # client gave up (connection dropped)
                continue
            if self._loop.time() > item.deadline:
                _refuse(item, "timeout", "request exceeded its queue-wait deadline")
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
            if not item.future.done():
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
            self._queued -= 1
            _refuse(handle.queue.get_nowait(), code, message)

    async def _recover(self, handle: WorkerHandle) -> None:
        """Replace a dead worker, keeping its queue.

        The bootstrap snapshot is taken from the front end's mirror
        copies, which already include every acknowledged delta.
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
                }
                for h in self.handles
            },
            "assignments": dict(sorted(self.assignments.items())),
            "queued": self._queued,
            "worker_failures": self.worker_failures,
        }

    def reset_counters(self) -> None:
        """Zero the dispatch counters (gauges are state, not traffic, and
        are kept)."""
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
            list(state.hosts), 1, None, health_interval=None, **options
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
    "plan_assignments",
]
