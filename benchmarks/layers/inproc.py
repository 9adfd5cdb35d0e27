"""The three workloads that run inside the benchmark process.

Each is timed from outside: the clock is read around calls into public
``repro`` functions and nothing in ``src/`` is instrumented.  An
operation here is one *pass* (defined per workload) and a *call* is one
answer-returning call inside it.  With ``spans`` given, the same loop
also records a span around every call into a layer.
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass, field

from repro.core.planner import plan_query
from repro.datalog import parse_rule
from repro.plans import plan_width
from repro.relalg.columnar import interning_info
from repro.relalg.compiled import make_engine
from repro.sql.executor import execute as sql_execute
from repro.sql.generator import generate_sql
from repro.sql.parser import parse as sql_parse

import cases
from measure import Outcome, Spans, mean, median, quartile

#: The layer a plan execution is billed to, by engine.
KERNEL_LAYER = {
    "interpreted": "relalg.engine",
    "compiled": "relalg.compiled",
    "vectorized": "relalg.vectorized",
}

#: ExecutionStats fields every engine must agree on.
LOGICAL_COUNTERS = (
    "joins",
    "semijoins",
    "projections",
    "scans",
    "total_intermediate_tuples",
    "max_intermediate_cardinality",
    "max_intermediate_arity",
    "peak_live_tuples",
)

now = time.perf_counter


def logical(stats) -> tuple:
    return tuple(getattr(stats, name) for name in LOGICAL_COUNTERS) + (
        tuple(stats.arity_trace),
    )


@dataclass
class Timed:
    """Samples of one measured window."""

    #: Operation time per segment and engine (a segment is one pass, or
    #: the median round of one update_stream segment).
    passes: dict[str, list[float]] = field(
        default_factory=lambda: {engine: [] for engine in cases.ENGINES}
    )
    #: One entry per cycle (a trip through all engines): calls per second,
    #: and the seconds every call took.
    rates: list[float] = field(default_factory=list)
    cycles: list[list[float]] = field(default_factory=list)
    #: Workload-specific samples, by name.
    extra: dict = field(default_factory=dict)


def end_to_end(timed: Timed) -> dict[str, float]:
    """The metrics every in-process workload reports (``call_p95_ms`` and
    the process-wide ones are added by the caller)."""
    metrics = {
        f"op_ms.{engine}": quartile(samples) * 1e3
        for engine, samples in timed.passes.items()
    }
    metrics["throughput_ops"] = quartile(timed.rates, upper=True)
    return metrics


class Workload:
    """What the three workloads share.  Each has ``setup()``,
    ``verify(outcome)``, ``measure(seconds, outcome, spans) -> Timed`` and
    ``layers(timed, spans) -> per-layer metrics``, called in that order."""

    name = ""

    def __init__(self, seed: int, smoke: bool, corrupt: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.corrupt = corrupt
        #: Unbounded diagnostics a workload wants printed with its metrics.
        self.notes: dict = {}


# ----------------------------------------------------------------------
# engine_grid
# ----------------------------------------------------------------------
class EngineGrid(Workload):
    """All 62 plans once per pass, one long-lived engine per (point,
    engine), result caching off: nothing but kernels runs."""

    name = "engine_grid"

    def setup(self) -> None:
        self.cases = cases.grid_cases()
        self.plan_seconds: dict[str, list[float]] = {m: [] for m in cases.METHODS}
        self.plans = []
        for case in self.cases:
            start = now()
            self.plans.append(
                plan_query(case.query, case.method, rng=random.Random(0))
            )
            self.plan_seconds[case.method].append(now() - start)
        self.engines = {
            engine: [
                make_engine(engine, cases.coloring_database(), plan_cache_size=0)
                for _ in self.cases
            ]
            for engine in cases.ENGINES
        }

    def verify(self, outcome: Outcome) -> None:
        self.expected = []
        self.tuples = []
        for index, (case, plan) in enumerate(zip(self.cases, self.plans)):
            reference = None
            for engine in cases.ENGINES:
                result, stats = self.engines[engine][index].execute_with_stats(plan)
                if reference is None:
                    reference = (result, logical(stats))
                    self.expected.append(result.cardinality)
                    self.tuples.append(stats.total_intermediate_tuples)
                outcome.check(
                    (result, logical(stats)) == reference,
                    f"{case.name}: {engine} disagrees with {cases.ENGINES[0]}",
                )
        if self.corrupt:
            self.expected[0] += 1
        # Compiled units exist now; what is allocated so far is long-lived.
        gc.collect()
        gc.freeze()

    def measure(self, seconds, outcome, spans):
        timed = Timed()
        points = {
            engine: [[] for _ in self.plans] for engine in cases.ENGINES
        }
        timed.extra["points"] = points
        expected = self.expected
        deadline = now() + seconds
        rounds = 0
        while True:
            round_start = now()
            timed.cycles.append([])
            for engine in cases.ENGINES:
                layer = KERNEL_LAYER[engine]
                engines = self.engines[engine]
                samples = points[engine]
                failed = 0
                start = now()
                parent = spans.open("pass", start, rounds) if spans else -1
                for index, plan in enumerate(self.plans):
                    t0 = now()
                    result = engines[index].execute(plan)
                    t1 = now()
                    samples[index].append(t1 - t0)
                    timed.cycles[-1].append(t1 - t0)
                    if result.cardinality != expected[index]:
                        failed += 1
                    if spans:
                        spans.add(layer, t0, t1, parent, rounds)
                end = now()
                if spans:
                    spans.close(parent, end)
                timed.passes[engine].append(end - start)
                outcome.tally(
                    len(self.plans), failed,
                    f"{engine}: {failed} answers differ from the verified ones",
                )
            rounds += 1
            timed.rates.append(
                len(cases.ENGINES) * len(self.plans) / (now() - round_start)
            )
            if self.smoke or (now() >= deadline and rounds >= 3):
                break
        return timed

    def layers(self, timed, spans):
        metrics = {
            f"core.plan_us.{method}": mean(samples) * 1e6
            for method, samples in self.plan_seconds.items()
        }
        metrics["relalg.intermediate_tuples"] = float(sum(self.tuples))
        medians = {
            engine: [median(samples) for samples in per_point]
            for engine, per_point in timed.extra["points"].items()
        }
        for engine, per_point in medians.items():
            for figure in cases.FIGURES:
                metrics[f"relalg.exec_ms.{engine}.{figure}"] = 1e3 * sum(
                    value
                    for value, case in zip(per_point, self.cases)
                    if case.figure == figure
                )
            metrics[f"relalg.exec_geomean_us.{engine}"] = 1e6 * math.exp(
                mean([math.log(value) for value in per_point])
            )
            metrics[f"relalg.tuples_per_s.{engine}"] = sum(self.tuples) / median(
                timed.passes[engine]
            )
        ratios = [
            compiled / vectorized
            for compiled, vectorized in zip(
                medians["compiled"], medians["vectorized"]
            )
        ]
        worst = min(range(len(ratios)), key=ratios.__getitem__)
        metrics["relalg.vec_vs_compiled_min"] = ratios[worst]
        self.notes = {"relalg.vec_vs_compiled_min.point": self.cases[worst].name}
        return metrics


# ----------------------------------------------------------------------
# cold_pipeline
# ----------------------------------------------------------------------
class ColdPipeline(Workload):
    """The first query of a shape: fresh catalog, parse, plan, a new
    engine and its first execution; the paper's SQL route beside it."""

    name = "cold_pipeline"

    def setup(self) -> None:
        self.cases = cases.cold_cases(self.seed)

    def verify(self, outcome: Outcome) -> None:
        self.expected = []
        self.width_sum = 0
        for case in self.cases:
            plan = plan_query(
                parse_rule(case.text), case.method, rng=random.Random(0)
            )
            self.width_sum += plan_width(plan)
            reference = None
            for engine in cases.ENGINES:
                result, stats = make_engine(
                    engine, cases.coloring_database()
                ).execute_with_stats(plan)
                if reference is None:
                    reference = (result, logical(stats))
                    self.expected.append(result.cardinality)
                outcome.check(
                    (result, logical(stats)) == reference,
                    f"{case.name}: {engine} disagrees with {cases.ENGINES[0]}",
                )
            served = self._sql_route(case, parse_rule(case.text))[-1]
            outcome.check(
                served.rows == reference[0].rows,
                f"{case.name}: the SQL route disagrees with {cases.ENGINES[0]}",
            )
        if self.corrupt:
            self.expected[0] += 1

    @staticmethod
    def _sql_route(case, query):
        """``(t0, t1, t2, t3, result)`` around generate, parse, execute."""
        database = cases.coloring_database()
        t0 = now()
        text = generate_sql(query, case.method, rng=random.Random(0))
        t1 = now()
        tree = sql_parse(text)
        t2 = now()
        result = sql_execute(tree, database)
        return t0, t1, t2, now(), result

    def measure(self, seconds, outcome, spans):
        timed = Timed()
        extra = timed.extra
        for key in ("parse", "sql_generate", "sql_parse", "sql_execute", "sql_route"):
            extra[key] = []
        extra["plan"] = {method: [] for method in cases.METHODS}
        extra["lower"] = {engine: [] for engine in cases.ENGINES}
        deadline = now() + seconds
        passes = 0
        while True:
            totals = dict.fromkeys(cases.ENGINES, 0.0)
            route_total = 0.0
            timed.cycles.append([])
            for index, case in enumerate(self.cases):
                for engine in cases.ENGINES:
                    database = cases.coloring_database()
                    t0 = now()
                    query = parse_rule(case.text)
                    t1 = now()
                    plan = plan_query(query, case.method, rng=random.Random(0))
                    t2 = now()
                    backend = make_engine(engine, database)
                    result = backend.execute(plan)
                    t3 = now()
                    outcome.check(
                        result.cardinality == self.expected[index],
                        f"{case.name}: {engine} answered {result.cardinality} rows",
                    )
                    totals[engine] += t3 - t0
                    timed.cycles[-1].append(t3 - t0)
                    extra["parse"].append(t1 - t0)
                    extra["plan"][case.method].append(t2 - t1)
                    if spans:
                        # What the first execution cost beyond a warm one
                        # is lowering; the engine keeps its compiled units
                        # when only the result cache is dropped.
                        backend.clear_plan_cache()
                        t4 = now()
                        backend.execute(plan)
                        lowering = max(0.0, (t3 - t2) - (now() - t4))
                        if engine == "interpreted":
                            lowering = 0.0
                        extra["lower"][engine].append(lowering)
                        parent = spans.open("pipeline", t0, passes)
                        spans.close(parent, t3)
                        spans.add("datalog", t0, t1, parent, passes)
                        spans.add("core", t1, t2, parent, passes)
                        spans.add(f"relalg.lower.{engine}", t2, t2 + lowering,
                                  parent, passes)
                        spans.add(KERNEL_LAYER[engine], t2 + lowering, t3,
                                  parent, passes)
                t0, t1, t2, t3, result = self._sql_route(case, query)
                outcome.check(
                    result.cardinality == self.expected[index],
                    f"{case.name}: the SQL route answered {result.cardinality} rows",
                )
                route_total += t3 - t0
                timed.cycles[-1].append(t3 - t0)
                extra["sql_generate"].append(t1 - t0)
                extra["sql_parse"].append(t2 - t1)
                extra["sql_execute"].append(t3 - t2)
                if spans:
                    spans.add("sql", t0, t3, -1, passes)
            for engine, total in totals.items():
                timed.passes[engine].append(total)
            extra["sql_route"].append(route_total)
            passes += 1
            timed.rates.append(
                (len(cases.ENGINES) + 1) * len(self.cases)
                / (sum(totals.values()) + route_total)
            )
            if self.smoke or (now() >= deadline and passes >= 3):
                break
        return timed

    def layers(self, timed, spans):
        extra = timed.extra
        metrics = {
            "datalog.parse_us": mean(extra["parse"]) * 1e6,
            "sql.generate_us": mean(extra["sql_generate"]) * 1e6,
            "sql.parse_us": mean(extra["sql_parse"]) * 1e6,
            "sql.execute_ms": mean(extra["sql_execute"]) * 1e3,
            "sql.route_ms": median(extra["sql_route"]) * 1e3,
            "core.plan_width_sum": float(self.width_sum),
        }
        for method, samples in extra["plan"].items():
            metrics[f"core.plan_us.{method}"] = mean(samples) * 1e6
        for engine in ("compiled", "vectorized"):
            metrics[f"relalg.compile_ms.{engine}"] = (
                mean(extra["lower"][engine]) * 1e3
            )
        return metrics


# ----------------------------------------------------------------------
# update_stream
# ----------------------------------------------------------------------
class UpdateStream(Workload):
    """Writes beside reads: each round mutates one relation and then
    re-executes all eight plans against a warm result cache.  Rounds come
    in segments, each on a fresh catalog and engine; a segment's operation
    time is its median round."""

    name = "update_stream"

    def setup(self) -> None:
        rounds = 8 if self.smoke else cases.STREAM_ROUNDS
        self.stream = cases.update_stream(self.seed, rounds)

    def _segment(self, engine: str):
        database = self.stream.fresh_database()
        backend = make_engine(
            engine, database, plan_cache_size=cases.STREAM_PLAN_CACHE
        )
        return database, backend

    def verify(self, outcome: Outcome) -> None:
        stream = self.stream
        # The queries scan disjoint relations, so a round changes the
        # answer of one of them: the reference recomputes only that one,
        # uncached, on a catalog of its own.
        database = stream.fresh_database()
        reference = make_engine("interpreted", database, plan_cache_size=0)
        current = [reference.execute_with_stats(plan) for plan in stream.plans]
        self.expected = []
        reference_rounds = []
        for k, (name, insert, delete) in enumerate(stream.mutations):
            database.insert_rows(name, insert)
            database.delete_rows(name, delete)
            touched = k % cases.STREAM_QUERIES
            current[touched] = reference.execute_with_stats(stream.plans[touched])
            reference_rounds.append(
                [(result.rows, logical(stats)) for result, stats in current]
            )
            self.expected.append([result.cardinality for result, _ in current])
        for engine in cases.ENGINES:
            database, backend = self._segment(engine)
            for plan in stream.plans:
                backend.execute(plan)
            for k, (name, insert, delete) in enumerate(stream.mutations):
                database.insert_rows(name, insert)
                database.delete_rows(name, delete)
                for j, plan in enumerate(stream.plans):
                    result, stats = backend.execute_with_stats(plan)
                    outcome.check(
                        (result.rows, logical(stats)) == reference_rounds[k][j],
                        f"round {k} query {j}: {engine} disagrees with the "
                        "uncached reference",
                    )
        if self.corrupt:
            self.expected[0][0] += 1

    def measure(self, seconds, outcome, spans):
        stream = self.stream
        timed = Timed()
        extra = timed.extra
        extra["delta"] = []
        extra["hit"] = {engine: [] for engine in cases.ENGINES}
        extra["recompute"] = {engine: [] for engine in cases.ENGINES}
        extra["traffic"] = {}
        deadline = now() + seconds
        cycles = 0
        while True:
            busy = 0.0
            timed.cycles.append([])
            for engine in cases.ENGINES:
                layer = KERNEL_LAYER[engine]
                database, backend = self._segment(engine)
                for plan in stream.plans:  # fill the cache outside the rounds
                    backend.execute(plan)
                before = backend.cache_info()
                failed = 0
                rounds = []
                for k, (name, insert, delete) in enumerate(stream.mutations):
                    expected = self.expected[k]
                    t0 = now()
                    database.insert_rows(name, insert)
                    database.delete_rows(name, delete)
                    t1 = now()
                    request = cycles * len(stream.mutations) + k
                    parent = spans.open("round", t0, request) if spans else -1
                    for j, plan in enumerate(stream.plans):
                        if spans:
                            misses = backend.cache_info().misses
                        ta = now()
                        result = backend.execute(plan)
                        tb = now()
                        if result.cardinality != expected[j]:
                            failed += 1
                        if spans:
                            # Counted at the same boundary as the span: a
                            # call that missed nowhere was served whole
                            # from the result cache.
                            hit = backend.cache_info().misses == misses
                            kind = "hit" if hit else "recompute"
                            extra[kind][engine].append(tb - ta)
                            spans.add("relalg.cache" if hit else layer,
                                      ta, tb, parent, request)
                    t2 = now()
                    rounds.append(t2 - t0)
                    # Seven of a round's eight executions are cache hits, so
                    # a tail over single executions would sit on the edge
                    # between two engines' recomputes; the round is the call.
                    timed.cycles[-1].append(t2 - t0)
                    extra["delta"].append(t1 - t0)
                    if spans:
                        spans.close(parent, t2)
                        spans.add("relalg.database", t0, t1, parent, request)
                timed.passes[engine].append(median(rounds))
                busy += sum(rounds)
                after = backend.cache_info()
                traffic = (
                    after.hits - before.hits,
                    after.misses - before.misses,
                    after.evictions - before.evictions,
                )
                # Every segment replays the same rounds on a fresh engine.
                if extra["traffic"].setdefault(engine, traffic) != traffic:
                    outcome.fail(
                        f"{engine}: cache traffic {traffic} differs from the "
                        f"first segment's {extra['traffic'][engine]}"
                    )
                outcome.tally(
                    len(stream.mutations) * len(stream.plans), failed,
                    f"{engine}: {failed} answers differ from the reference",
                )
            cycles += 1
            timed.rates.append(len(cases.ENGINES) * len(stream.mutations) / busy)
            if self.smoke or now() >= deadline:
                break
        return timed

    def layers(self, timed, spans):
        extra = timed.extra
        metrics = {
            "relalg.database.delta_us": mean(extra["delta"]) * 1e6,
            "relalg.columnar.interned_codes": float(interning_info()["values"]),
        }
        for engine in cases.ENGINES:
            hits, misses, evictions = extra["traffic"][engine]
            metrics[f"relalg.cache.hit_rate.{engine}"] = hits / (hits + misses)
            metrics[f"relalg.cache.evictions.{engine}"] = float(evictions)
            metrics[f"relalg.hit_us.{engine}"] = mean(extra["hit"][engine]) * 1e6
            metrics[f"relalg.recompute_ms.{engine}"] = (
                mean(extra["recompute"][engine]) * 1e3
            )
        return metrics


WORKLOADS = {cls.name: cls for cls in (EngineGrid, ColdPipeline, UpdateStream)}
