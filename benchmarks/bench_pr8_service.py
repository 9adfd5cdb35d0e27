#!/usr/bin/env python
"""Concurrent traffic against the query service: prepared-statement reuse.

This is the artifact driver behind ``BENCH_PR8.json``: a dbworkload-style
closed-loop load generator against a live ``repro.service`` instance over
real TCP.  The workload mixes

- *anchored chain* queries over a random ``graph`` relation — the same
  query shape re-requested with different constant anchors, which is
  exactly what the prepared-statement shape cache exists for;
- the paper's fig6-9 coloring queries (no constants: pure shape reuse);
- a row-level update stream on a separate ``feed`` relation (plus a few
  chain shapes that scan it) exercising PR 7's *selective* invalidation
  mid-traffic: updates evict only the feed-scanning caches while the
  graph-scanning majority stays warm.

Honesty checks come first: before any timing, every case is served on
every engine (interpreted / compiled / vectorized) through the wire and
the rows must equal a direct ``evaluate()`` of the same rule on a fresh
catalog — a mismatch aborts the run.  Timing then uses a *fresh* service
instance: a cold phase requests each distinct query shape exactly once
(every response must report ``cached: false`` — plan + compile on the
request path), and a warm phase in which every client prepares each
anchored shape once and then drives the concurrent mix by *statement
id* with varying constant params (prepare-once/execute-many, as a
dbworkload client would; responses must report ``cached: true``).  The
headline number is

    cold-shape p50 / warm-shape p50   (anchored query class)

i.e. how much latency the shape cache removes when only constants
change.  Client count, per-client request count, think time, and the
workload mix are configurable.  Latencies are measured client-side
(wall clock around request/response, queue wait included).

Usage::

    python benchmarks/bench_pr8_service.py --output BENCH_PR8.json
    python benchmarks/bench_pr8_service.py --smoke   # CI: verify + 50 reqs
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import SCHEMA, BenchmarkDivergence  # noqa: E402

from repro.core.planner import plan_query  # noqa: E402
from repro.datalog import parse_rule, render_datalog  # noqa: E402
from repro.relalg.database import Database, edge_database  # noqa: E402
from repro.relalg.engine import evaluate  # noqa: E402
from repro.relalg.relation import Relation  # noqa: E402
from repro.service import QueryService, ServiceConfig  # noqa: E402
from repro.service.protocol import decode_line, encode_message  # noqa: E402

ENGINE_CHOICES = ("interpreted", "compiled", "vectorized")

#: Random ``graph`` relation: ~GRAPH_ROWS directed edges over GRAPH_DOMAIN
#: nodes (mean out-degree ~7), small enough that execution is cheap and
#: planning cost dominates a cold request.
GRAPH_DOMAIN = 80
GRAPH_ROWS = 600

#: Constant anchors are drawn from this many pinned node ids, so warm
#: requests rebind to a previously-seen value often enough to exercise
#: both the version-neutral and the rebind path of ``Database.put``.
ANCHOR_POOL = 10

FIG_CASES = (
    ("fig6_augpath6", "augmented_path", 6, "bucket"),
    ("fig6_augpath6_early", "augmented_path", 6, "early"),
    ("fig7_ladder5", "ladder", 5, "bucket"),
    ("fig7_ladder5_reord", "ladder", 5, "reordering"),
    ("fig8_augladder4", "augmented_ladder", 4, "bucket"),
    ("fig9_augcircladder4", "augmented_circular_ladder", 4, "bucket"),
)


# ----------------------------------------------------------------------
# Workload construction
# ----------------------------------------------------------------------
def build_graph_rows(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed * 9176 + 11)
    rows = {
        (rng.randrange(GRAPH_DOMAIN), rng.randrange(GRAPH_DOMAIN))
        for _ in range(GRAPH_ROWS)
    }
    return sorted(rows)


def build_database(seed: int) -> Database:
    """The service's catalog: the paper's 3-COLOR ``edge`` relation, the
    random ``graph`` relation most anchored chains scan, and a ``feed``
    relation of the same shape that takes the update stream.

    Separating ``feed`` from ``graph`` is what makes the mixed workload
    exercise PR 7's *selective* invalidation: every update bumps only
    ``feed``'s version, so the feed-scanning shapes recompute while the
    graph-scanning shapes keep their cached results and compiled units
    warm mid-traffic.
    """
    db = edge_database()
    db.add("graph", Relation(("u", "w"), build_graph_rows(seed)))
    db.add("feed", Relation(("u", "w"), build_graph_rows(seed + 1)))
    return db


def anchored_rule(
    length: int,
    pattern: str,
    anchors: tuple[int, ...],
    relation: str = "graph",
) -> str:
    """An anchored chain: the same shape for any anchor values.

    ``single``:  q(X1) :- R(c, X1), R(X1, X2), ...
    ``double``:  ... , R(X<k>, c2)   (both endpoints pinned)
    ``mid``:     the constant sits in the middle of the chain instead
    """
    r = relation
    atoms = []
    if pattern == "single":
        atoms.append(f"{r}({anchors[0]}, X1)")
        for i in range(1, length):
            atoms.append(f"{r}(X{i}, X{i + 1})")
    elif pattern == "double":
        atoms.append(f"{r}({anchors[0]}, X1)")
        for i in range(1, length):
            atoms.append(f"{r}(X{i}, X{i + 1})")
        atoms.append(f"{r}(X{length}, {anchors[1]})")
    elif pattern == "mid":
        mid = max(1, length // 2)
        for i in range(length):
            if i == mid:
                atoms.append(f"{r}(X{i}, {anchors[0]})")
            elif i == 0:
                atoms.append(f"{r}(X0, X1)")
            else:
                atoms.append(f"{r}(X{i}, X{i + 1})")
    else:  # pragma: no cover
        raise ValueError(pattern)
    return f"q(X1) :- {', '.join(atoms)}."


class BenchCase:
    """One distinct query shape the driver exercises."""

    def __init__(self, name, kind, method, make_rule, param_count, weight=1):
        self.name = name
        self.kind = kind  # "anchored" | "fig"
        self.method = method
        self.make_rule = make_rule  # (rng) -> rule text
        self.param_count = param_count
        self.weight = weight  # relative share of warm-phase traffic

    def rule(self, rng: random.Random) -> str:
        return self.make_rule(rng)


def build_cases(smoke: bool) -> list[BenchCase]:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import structured_workload

    cases: list[BenchCase] = []
    # The population is OLTP-ish: short anchored "point" chains — the
    # case parameterized statements exist for.  Short matters: a source
    # rebind invalidates the whole downstream chain, so warm execution
    # cost grows with chain length while the plan+compile cost a warm
    # request *avoids* stays flat — point lookups are where the shape
    # cache pays, and the by_family blocks keep the per-length
    # contrast visible.
    if smoke:
        families = (
            ("single", (2, 3, 4)),
            ("double", (2, 4)),
        )
    else:
        families = (
            ("single", tuple(range(2, 21))),
            ("double", tuple(range(2, 11))),
        )
    for pattern, lengths in families:
        for length in lengths:
            count = 2 if pattern == "double" else 1

            def make_rule(rng, length=length, pattern=pattern, count=count):
                anchors = tuple(
                    rng.randrange(ANCHOR_POOL) for _ in range(count)
                )
                return anchored_rule(length, pattern, anchors)

            cases.append(
                BenchCase(
                    f"anchored_{pattern}_{length}",
                    "anchored",
                    "bucket",
                    make_rule,
                    count,
                    # Point lookups dominate the anchored traffic 3:1
                    # over the double-anchored analytic shapes, as in
                    # an OLTP-weighted mix.
                    weight=3 if pattern == "single" else 1,
                )
            )
    # A few shapes scan the update-stream relation: these are the ones
    # whose caches the updates invalidate (the graph-scanning majority
    # above must stay warm — that contrast is PR 7's selective
    # retention under live traffic).
    for length in (3, 4) if smoke else (2, 3, 4, 5):

        def make_feed_rule(rng, length=length):
            anchors = (rng.randrange(ANCHOR_POOL),)
            return anchored_rule(length, "single", anchors, relation="feed")

        cases.append(
            BenchCase(
                f"feed_single_{length}", "anchored", "bucket", make_feed_rule, 1
            )
        )
    fig_cases = FIG_CASES[:2] if smoke else FIG_CASES
    for name, family, order, method in fig_cases:
        query, _ = structured_workload(family, order, free_fraction=0.25)
        text = render_datalog(query)
        cases.append(
            BenchCase(name, "fig", method, lambda rng, text=text: text, 0)
        )
    return cases


# ----------------------------------------------------------------------
# Wire helpers (raw asyncio streams; the blocking ServiceClient would
# serialize the concurrent phases through threads)
# ----------------------------------------------------------------------
class Connection:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self._next_id = 1

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, op: str, **fields) -> dict:
        message = {"op": op, "id": self._next_id}
        self._next_id += 1
        message.update(fields)
        self.writer.write(encode_message(message))
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_line(line)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except Exception:
            pass


def percentile(samples: list[float], pct: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(pct / 100 * (len(ordered) - 1))))
    return ordered[rank]


def latency_block(samples: list[float]) -> dict:
    return {
        "count": len(samples),
        "p50_s": percentile(samples, 50),
        "p95_s": percentile(samples, 95),
        "p99_s": percentile(samples, 99),
        "mean_s": (sum(samples) / len(samples)) if samples else 0.0,
    }


# ----------------------------------------------------------------------
# Phase 1: cross-engine answer verification through the wire
# ----------------------------------------------------------------------
async def verify_cases(cases, seed: int, log) -> dict:
    service = QueryService(
        {"bench": build_database(seed)}, ServiceConfig(port=0)
    )
    await service.start()
    checked = 0
    try:
        conn = await Connection.open(service.port)
        for engine in ENGINE_CHOICES:
            opened = await conn.request(
                "open_session", database="bench", engine=engine
            )
            session = opened["session"]
            for case in cases:
                rule = case.rule(random.Random(seed))
                served = await conn.request(
                    "query", session=session, rule=rule, method=case.method
                )
                if not served.get("ok"):
                    raise BenchmarkDivergence(
                        f"{case.name} on {engine}: {served['error']}"
                    )
                expected, _ = evaluate(
                    plan_query(
                        parse_rule(rule), case.method, rng=random.Random(0)
                    ),
                    build_database(seed),
                    engine=engine,
                )
                got = {tuple(row) for row in served["rows"]}
                if got != expected.rows:
                    raise BenchmarkDivergence(
                        f"{case.name} on {engine}: served {len(got)} rows, "
                        f"direct evaluate() produced {expected.cardinality}"
                    )
                checked += 1
            await conn.request("close_session", session=session)
        await conn.close()
    finally:
        await service.stop()
    log(f"verified {checked} case x engine pairs: served == evaluate()")
    return {
        "cases": len(cases),
        "engines": list(ENGINE_CHOICES),
        "checked": checked,
        "status": "identical",
    }


# ----------------------------------------------------------------------
# Phase 2 + 3: cold then warm traffic against one fresh service
# ----------------------------------------------------------------------
async def cold_phase(
    port: int, cases, clients: int, think: float, seed: int
) -> dict:
    """Each distinct shape requested exactly once, spread over
    concurrent clients; every response must be a shape-cache miss.

    The same think-time pacing as the warm phase applies, so both
    phases measure latency under comparable arrival pressure.  After
    the recorded cold request, the shape is also requested once on each
    *other* engine: every engine compiles its own units, so those are
    cache-warming requests (standard practice, not recorded) — without
    them the warm phase would silently absorb two-thirds of the
    per-engine cold compiles.
    """
    shards: list[list[BenchCase]] = [[] for _ in range(clients)]
    for i, case in enumerate(cases):
        shards[i % clients].append(case)
    samples: dict[str, list[float]] = {"anchored": [], "fig": []}
    families: dict[str, list[float]] = {}
    errors: list[str] = []

    async def run_client(index: int, shard) -> None:
        rng = random.Random(seed * 1009 + index)
        conn = await Connection.open(port)
        sessions = {}
        for engine in ENGINE_CHOICES:
            opened = await conn.request(
                "open_session", database="bench", engine=engine
            )
            sessions[engine] = opened["session"]
        primary = ENGINE_CHOICES[index % len(ENGINE_CHOICES)]
        for case in shard:
            if think > 0:
                await asyncio.sleep(rng.expovariate(1.0 / think))
            rule = case.rule(rng)
            started = time.perf_counter()
            response = await conn.request(
                "query",
                session=sessions[primary],
                rule=rule,
                method=case.method,
            )
            elapsed = time.perf_counter() - started
            if not response.get("ok"):
                errors.append(f"{case.name}: {response['error']}")
            elif response["cached"]:
                errors.append(f"{case.name}: expected a cold shape-cache miss")
            else:
                samples[case.kind].append(elapsed)
                families.setdefault(
                    case.name.rsplit("_", 1)[0], []
                ).append(elapsed)
            for engine in ENGINE_CHOICES:
                if engine == primary:
                    continue
                if think > 0:
                    # Warmups are paced like every other request so the
                    # cold phase's arrival pressure matches the warm
                    # phase's instead of bursting 3 requests at once.
                    await asyncio.sleep(rng.expovariate(1.0 / think))
                warmup = await conn.request(
                    "query",
                    session=sessions[engine],
                    rule=rule,
                    method=case.method,
                )
                if not warmup.get("ok"):
                    errors.append(
                        f"{case.name} warmup on {engine}: {warmup['error']}"
                    )
        await conn.close()

    await asyncio.gather(*(run_client(i, s) for i, s in enumerate(shards)))
    if errors:
        raise BenchmarkDivergence("; ".join(errors[:5]))
    blocks = {kind: latency_block(vals) for kind, vals in samples.items()}
    blocks["by_family"] = {
        family: latency_block(vals) for family, vals in sorted(families.items())
    }
    return blocks


async def warm_phase(
    port: int,
    cases,
    clients: int,
    requests_per_client: int,
    mix: tuple[float, float, float],
    think: float,
    seed: int,
) -> tuple[dict, float, list[str]]:
    """The concurrent mixed workload over already-prepared shapes."""
    anchored = [c for c in cases if c.kind == "anchored"]
    figs = [c for c in cases if c.kind == "fig"]
    # Traffic weighting: rng.choice over this pool realizes each case's
    # relative weight (point lookups over analytic shapes).
    anchored_pool = [c for c in anchored for _ in range(c.weight)]
    samples: dict[str, list[float]] = {"anchored": [], "fig": [], "update": []}
    families: dict[str, list[float]] = {}
    errors: list[str] = []
    anchored_cut = mix[0]
    fig_cut = mix[0] + mix[1]

    async def run_client(index: int) -> None:
        rng = random.Random(seed * 7127 + index * 13 + 1)
        conn = await Connection.open(port)
        opened = await conn.request(
            "open_session",
            database="bench",
            engine=ENGINE_CHOICES[index % len(ENGINE_CHOICES)],
        )
        session = opened["session"]
        # Prepare once per shape, execute many: the dbworkload pattern
        # the statement cache exists for.  Every shape was planned in
        # the cold phase, so these are shape-cache hits (not recorded);
        # the hot loop below sends only statement ids + params.
        statements: dict[str, int] = {}
        for case in anchored + figs:
            prepared = await conn.request(
                "prepare",
                session=session,
                rule=case.rule(rng),
                method=case.method,
            )
            if not prepared.get("ok"):
                errors.append(f"prepare {case.name}: {prepared['error']}")
                await conn.close()
                return
            statements[case.name] = prepared["statement"]
        for _ in range(requests_per_client):
            if think > 0:
                await asyncio.sleep(rng.expovariate(1.0 / think))
            roll = rng.random()
            started = time.perf_counter()
            if roll < anchored_cut or not figs:
                case = rng.choice(anchored_pool)
                params = [
                    rng.randrange(ANCHOR_POOL)
                    for _ in range(case.param_count)
                ]
                response = await conn.request(
                    "execute",
                    session=session,
                    statement=statements[case.name],
                    params=params,
                )
                kind = "anchored"
                family = case.name.rsplit("_", 1)[0]
                expect_cached = True
            elif roll < fig_cut:
                case = rng.choice(figs)
                response = await conn.request(
                    "execute",
                    session=session,
                    statement=statements[case.name],
                    params=[],
                )
                kind = "fig"
                family = None
                expect_cached = True
            else:
                insert = [
                    [rng.randrange(GRAPH_DOMAIN), rng.randrange(GRAPH_DOMAIN)]
                    for _ in range(2)
                ]
                delete = [
                    [rng.randrange(GRAPH_DOMAIN), rng.randrange(GRAPH_DOMAIN)]
                ]
                response = await conn.request(
                    "update",
                    session=session,
                    relation="feed",
                    insert=insert,
                    delete=delete,
                )
                kind = "update"
                family = None
                expect_cached = False
            elapsed = time.perf_counter() - started
            if not response.get("ok"):
                errors.append(f"{kind}: {response['error']}")
            elif expect_cached and not response.get("cached"):
                errors.append(f"{kind}: warm request missed the shape cache")
            else:
                samples[kind].append(elapsed)
                if family is not None:
                    families.setdefault(family, []).append(elapsed)
        await conn.close()

    started = time.perf_counter()
    await asyncio.gather(*(run_client(i) for i in range(clients)))
    wall = time.perf_counter() - started
    blocks = {kind: latency_block(vals) for kind, vals in samples.items()}
    blocks["by_family"] = {
        family: latency_block(vals) for family, vals in sorted(families.items())
    }
    total = sum(len(vals) for vals in samples.values())
    throughput = total / wall if wall > 0 else 0.0
    blocks["wall_s"] = wall
    return blocks, throughput, errors


async def run_benchmark(args) -> dict:
    def log(line: str) -> None:
        print(line, file=sys.stderr)

    cases = build_cases(args.smoke)
    log(
        f"{len(cases)} distinct query shapes "
        f"({sum(1 for c in cases if c.kind == 'anchored')} anchored, "
        f"{sum(1 for c in cases if c.kind == 'fig')} fig)"
    )
    verification = await verify_cases(cases, args.seed, log)

    service = QueryService(
        {"bench": build_database(args.seed)},
        ServiceConfig(port=0, queue_limit=args.queue_limit),
    )
    await service.start()
    try:
        cold = await cold_phase(
            service.port, cases, args.clients, args.think, args.seed
        )
        log(
            f"cold: anchored p50 {cold['anchored']['p50_s'] * 1e3:.2f} ms "
            f"over {cold['anchored']['count']} shapes"
        )
        warm, _, errors = await warm_phase(
            service.port,
            cases,
            args.clients,
            args.requests,
            (args.mix_anchored, args.mix_fig, args.mix_update),
            args.think,
            args.seed,
        )
        log(f"warm: anchored p50 {warm['anchored']['p50_s'] * 1e3:.2f} ms")
        # Saturation throughput is a separate closed-loop burst: with
        # think-time pacing the paced rate would just measure the pacing.
        saturation, throughput, sat_errors = await warm_phase(
            service.port,
            cases,
            args.clients,
            args.requests,
            (args.mix_anchored, args.mix_fig, args.mix_update),
            0.0,
            args.seed + 1,
        )
        errors = errors + sat_errors
        log(f"saturation: {throughput:.0f} req/s over {args.clients} clients")
        conn = await Connection.open(service.port)
        stats_response = await conn.request("stats")
        await conn.close()
    finally:
        await service.stop()

    cold_p50 = cold["anchored"]["p50_s"]
    warm_p50 = warm["anchored"]["p50_s"]
    speedup = (cold_p50 / warm_p50) if warm_p50 > 0 else float("inf")
    log(f"prepared-statement reuse: cold/warm anchored p50 = {speedup:.1f}x")
    document = {
        "schema": SCHEMA,
        "suite": "pr8_service",
        "methodology": {
            "transport": "newline-delimited JSON over TCP (loopback), "
            "latency measured client-side around request/response "
            "(queue wait included)",
            "verification": "before timing, every case served on every "
            "engine must equal a direct evaluate() on a fresh catalog",
            "cold": "fresh service; each distinct query shape requested "
            "exactly once across concurrent clients (plan + compile on "
            "the request path; responses assert cached=false)",
            "warm": "same service; each client prepares every anchored "
            "shape once (shape-cache hits), then the concurrent mix "
            "executes by statement id with re-randomized constant "
            "params — the prepare-once/execute-many client pattern the "
            "statement cache exists for; the update stream mutates the "
            "feed relation mid-traffic, selectively invalidating only "
            "feed-scanning caches",
            "pacing": "cold and warm latency phases use identical "
            "exponential think-time pacing, so latency reflects "
            "service time rather than closed-loop queue depth; "
            "throughput_rps comes from a separate closed-loop "
            "saturation burst over the same mix",
            "headline": "cold p50 / warm p50 over the anchored query "
            "class (same shape, different constants)",
            "smoke": args.smoke,
        },
        "workload": {
            "shapes": len(cases),
            "clients": args.clients,
            "requests_per_client": args.requests,
            "mix": {
                "anchored": args.mix_anchored,
                "fig": args.mix_fig,
                "update": args.mix_update,
            },
            "think_s": args.think,
            "graph_rows": GRAPH_ROWS,
            "graph_domain": GRAPH_DOMAIN,
            "anchor_pool": ANCHOR_POOL,
            "engines": "sessions round-robin over "
            + "/".join(ENGINE_CHOICES),
            "seed": args.seed,
        },
        "verification": verification,
        "cold": cold,
        "warm": warm,
        "saturation": saturation,
        "throughput_rps": throughput,
        "prepared_reuse": {
            "cold_p50_s": cold_p50,
            "warm_p50_s": warm_p50,
            "speedup": speedup,
            "target": 3.0,
            "met": speedup >= 3.0,
        },
        "client_errors": errors,
        "server_stats": stats_response.get("stats", {}),
        "python": platform.python_version(),
    }
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Concurrent service benchmark (PR 8)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: small case set, 10 clients x 5 requests, assert "
        "zero errors (numbers not stable)",
    )
    parser.add_argument("--clients", type=int, default=12, help="concurrent clients")
    parser.add_argument(
        "--requests", type=int, default=60, help="warm requests per client"
    )
    parser.add_argument(
        "--think",
        type=float,
        default=0.04,
        help="mean think time between a client's requests (seconds, "
        "exponential; 0 = closed loop at full speed); applies to the "
        "latency phases, the saturation burst always runs closed-loop",
    )
    parser.add_argument("--mix-anchored", type=float, default=0.65)
    parser.add_argument("--mix-fig", type=float, default=0.25)
    parser.add_argument("--mix-update", type=float, default=0.10)
    parser.add_argument("--queue-limit", type=int, default=512)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--output", help="write the JSON document here (default: stdout)"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.clients = 10
        args.requests = 5  # 10 x 5 = 50 concurrent warm requests
        args.think = 0.0  # closed loop: CI cares about errors, not numbers
    # Server and clients share this process, so the loop thread and the
    # service's executor thread trade the GIL on every request; the
    # default 5 ms switch interval would put a millisecond-scale floor
    # under every measured latency.
    sys.setswitchinterval(0.0005)
    try:
        document = asyncio.run(run_benchmark(args))
    except BenchmarkDivergence as exc:
        print(f"DIVERGENCE: {exc}", file=sys.stderr)
        return 1
    if document["client_errors"]:
        print(
            f"FAILED: {len(document['client_errors'])} client errors, "
            f"first: {document['client_errors'][0]}",
            file=sys.stderr,
        )
        return 1
    if args.smoke:
        print(
            "smoke ok: verification passed, "
            f"{document['server_stats']['service']['requests']} requests, "
            "zero errors",
            file=sys.stderr,
        )
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}", file=sys.stderr)
    elif not args.smoke:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
