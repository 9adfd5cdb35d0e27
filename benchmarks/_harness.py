"""Shared benchmark harness: timing loop, JSON schema, engine checks.

Everything in the benchmark suite funnels through this module so the
methodology stays consistent (and honest) in one place:

- **Engine construction** (:func:`make_execution_engine`) disables the
  plan-level CSE cache: benchmarks reuse one engine across rounds, and
  with the cache on every round after the first would be a single LRU
  lookup — the artifact would measure memoization, not execution.
  Warm-cache behaviour is benchmarked separately and labeled as such.
- **Timing** (:func:`measure`) is warmup-then-repeat with the *median*
  reported, the same aggregation the paper (and pytest-benchmark) uses.
  Planning happens once, outside the timed region — the paper's figures
  chart execution, not compile time.
- **Cross-engine verification** (:func:`run_suite`) executes every case
  on every requested engine and requires identical answer relations and
  identical logical work counters before any timing is recorded, so a
  compiler bug can never produce a fast-but-wrong artifact.
- **Smoke mode** (``--smoke``) runs the verification and exactly one
  timed repeat per case — CI uses it to catch crashes and divergence
  without inheriting timing flakiness.

The JSON documents written by :func:`run_main` carry
``"schema": "repro-bench/1"`` and per-case per-engine medians plus, when
two or more engines ran, per-case and summary speedups (first requested
engine as baseline, last as subject).
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

SCHEMA = "repro-bench/1"
DEFAULT_ENGINES = ("interpreted", "compiled")
ENGINE_CHOICES = ("interpreted", "compiled", "vectorized")
DEFAULT_WARMUP = 1
DEFAULT_REPEAT = 5

#: Stats fields that must match across engines (cache-state and physical
#: materialization counters are engine-specific and excluded).
LOGICAL_COUNTER_FIELDS = (
    "joins",
    "semijoins",
    "projections",
    "scans",
    "total_intermediate_tuples",
    "max_intermediate_cardinality",
    "max_intermediate_arity",
    "peak_live_tuples",
)


class BenchmarkDivergence(AssertionError):
    """Two engines disagreed on a case's answer or logical counters."""


@dataclass(frozen=True)
class Case:
    """One benchmarkable point: a method on a workload instance."""

    group: str
    method: str
    query: object
    database: object

    @property
    def name(self) -> str:
        return f"{self.group} :: {self.method}"


def make_execution_engine(database, engine: str = "interpreted"):
    """An engine configured for honest execution benchmarking (plan
    cache disabled — see the module docstring)."""
    from repro.relalg.compiled import make_engine

    return make_engine(engine, database, plan_cache_size=0)


def measure(
    fn: Callable[[], object],
    warmup: int = DEFAULT_WARMUP,
    repeat: int = DEFAULT_REPEAT,
) -> list[float]:
    """Wall-clock samples of ``fn``: ``warmup`` unrecorded calls, then
    ``repeat`` timed ones."""
    for _ in range(warmup):
        fn()
    samples: list[float] = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def logical_counters(stats) -> dict:
    """The engine-independent slice of an ExecutionStats, as a dict."""
    summary = stats.summary()
    out = {name: summary[name] for name in LOGICAL_COUNTER_FIELDS}
    out["arity_trace"] = list(stats.arity_trace)
    return out


def verify_case(case: Case, plan, engines: Sequence[str]) -> dict:
    """Execute ``case`` once per engine; raise on any divergence.

    Returns the shared logical counters (for the artifact) on success.
    """
    reference = None
    reference_counters = None
    reference_engine = None
    for engine in engines:
        backend = make_execution_engine(case.database, engine)
        result, stats = backend.execute_with_stats(plan)
        counters = logical_counters(stats)
        if reference is None:
            reference, reference_counters = result, counters
            reference_engine = engine
            continue
        if result != reference:
            raise BenchmarkDivergence(
                f"{case.name}: {engine} returned a different relation "
                f"than {reference_engine} "
                f"({result.cardinality} vs {reference.cardinality} rows)"
            )
        if counters != reference_counters:
            raise BenchmarkDivergence(
                f"{case.name}: {engine} logical counters diverge from "
                f"{reference_engine}: {counters} != {reference_counters}"
            )
    return reference_counters


def run_suite(
    cases: Sequence[Case],
    engines: Sequence[str] = DEFAULT_ENGINES,
    warmup: int = DEFAULT_WARMUP,
    repeat: int = DEFAULT_REPEAT,
    smoke: bool = False,
    log: Callable[[str], None] | None = None,
) -> list[dict]:
    """Verify and time every case on every engine.

    Smoke mode verifies and does a single timed repeat (no warmup), so
    the run exercises the full pipeline without pretending its numbers
    are stable.
    """
    from repro.core.planner import plan_query

    if smoke:
        warmup, repeat = 0, 1
    results: list[dict] = []
    for case in cases:
        plan = plan_query(case.query, case.method, rng=random.Random(0))
        counters = verify_case(case, plan, engines)
        per_engine: dict[str, dict] = {}
        for engine in engines:
            backend = make_execution_engine(case.database, engine)
            samples = measure(
                lambda: backend.execute(plan), warmup=warmup, repeat=repeat
            )
            per_engine[engine] = {
                "median_s": statistics.median(samples),
                "min_s": min(samples),
                "repeats": repeat,
            }
        entry: dict = {
            "group": case.group,
            "method": case.method,
            "engines": per_engine,
            "logical": {
                "total_intermediate_tuples": counters[
                    "total_intermediate_tuples"
                ],
                "max_intermediate_arity": counters["max_intermediate_arity"],
            },
        }
        if len(engines) >= 2:
            # Speedup convention: first requested engine is the baseline,
            # last is the subject.
            subject_median = per_engine[engines[-1]]["median_s"]
            entry["speedup"] = (
                per_engine[engines[0]]["median_s"] / subject_median
                if subject_median
                else float("inf")
            )
        results.append(entry)
        if log is not None:
            speedup = entry.get("speedup")
            suffix = f"  speedup {speedup:.2f}x" if speedup else ""
            log(f"{case.name}{suffix}")
    return results


def summarize(results: Sequence[dict]) -> dict:
    """Aggregate per-case speedups (cases where both engines ran)."""
    speedups = [
        entry["speedup"] for entry in results if "speedup" in entry
    ]
    if not speedups:
        return {"points": len(results)}
    return {
        "points": len(results),
        "compared_points": len(speedups),
        "median_speedup": statistics.median(speedups),
        "min_speedup": min(speedups),
        "max_speedup": max(speedups),
    }


def build_document(
    suite: str,
    results: Sequence[dict],
    engines: Sequence[str],
    warmup: int,
    repeat: int,
    smoke: bool,
) -> dict:
    engines = list(engines)
    methodology = {
        "plan_cache": "disabled",
        "planning": "outside the timed region (once per case)",
        "aggregation": "median over repeats",
        "warmup": warmup,
        "repeat": repeat,
        "smoke": smoke,
        "verification": "identical relations and logical work "
        "counters across engines, checked before timing",
    }
    if len(engines) >= 2:
        methodology["speedup"] = (
            f"median({engines[0]}) / median({engines[-1]}) per case"
        )
    return {
        "schema": SCHEMA,
        "suite": suite,
        "methodology": methodology,
        "engines": list(engines),
        "python": platform.python_version(),
        "results": list(results),
        "summary": summarize(results),
    }


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="verify engines agree and run one timed repeat per case "
        "(fast, CI-friendly, numbers not stable)",
    )
    parser.add_argument(
        "--engine",
        dest="engines",
        action="append",
        choices=ENGINE_CHOICES,
        help="engine(s) to run; repeatable (default: interpreted and "
        "compiled; with two or more, the first is the speedup baseline "
        "and the last the subject)",
    )
    parser.add_argument(
        "--warmup", type=int, default=DEFAULT_WARMUP, help="unrecorded calls per case"
    )
    parser.add_argument(
        "--repeat", type=int, default=DEFAULT_REPEAT, help="timed calls per case"
    )
    parser.add_argument(
        "--output",
        help="write the JSON document here (default: print to stdout)",
    )


def run_main(
    suite: str,
    build_cases: Callable[[], Sequence[Case]],
    argv: Sequence[str] | None = None,
) -> int:
    """Standard ``main`` shared by the standalone ``bench_fig*`` scripts."""
    parser = argparse.ArgumentParser(description=f"Benchmark suite: {suite}")
    add_arguments(parser)
    args = parser.parse_args(argv)
    engines = tuple(args.engines) if args.engines else DEFAULT_ENGINES
    results = run_suite(
        build_cases(),
        engines=engines,
        warmup=args.warmup,
        repeat=args.repeat,
        smoke=args.smoke,
        log=lambda line: print(line, file=sys.stderr),
    )
    document = build_document(
        suite, results, engines, args.warmup, args.repeat, args.smoke
    )
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    return 0
