"""Experiment runner: execute one query under one method, with budgets.

The paper reports median running times over random instances, with slow
configurations timing out.  This runner mirrors that: it executes a query
under a named method (either as a plan on the engine, or through the full
SQL generate → parse → execute pipeline for end-to-end fidelity), collects
wall-clock plus the machine-independent work counters, and supports a soft
time budget — a method that exceeds it at some size is marked timed out,
and the series builders stop scaling it further, exactly how the paper's
curves end early.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field

from repro.core.planner import plan_query
from repro.core.query import ConjunctiveQuery
from repro.plans import Plan, plan_width
from repro.relalg.compiled import make_engine
from repro.relalg.database import Database
from repro.relalg.stats import ExecutionStats
from repro.sql.executor import execute as sql_execute
from repro.sql.generator import generate_sql
from repro.sql.parser import parse


@dataclass
class MethodRun:
    """Result of one method on one query instance."""

    method: str
    wall_seconds: float
    generation_seconds: float
    answer_cardinality: int
    nonempty: bool
    plan_width: int | None
    stats: ExecutionStats
    timed_out: bool = False

    @property
    def total_intermediate_tuples(self) -> int:
        """Shortcut to the run's dominant work counter."""
        return self.stats.total_intermediate_tuples

    @property
    def max_intermediate_arity(self) -> int:
        """Shortcut to the run's widest intermediate relation."""
        return self.stats.max_intermediate_arity


def estimate_domain_size(database: Database) -> int:
    """Largest per-column distinct-value count in the catalog — the base
    of the ``domain ** width`` worst-case intermediate-size estimate."""
    domain = 1
    for name in database.names():
        relation = database.get(name)
        for index in range(relation.arity):
            domain = max(domain, len({row[index] for row in relation.rows}))
    return domain


def run_method(
    query: ConjunctiveQuery,
    database: Database,
    method: str,
    rng: random.Random | None = None,
    via_sql: bool = False,
    cap_tuples: int | None = None,
    engine: str = "interpreted",
) -> MethodRun:
    """Run ``method`` on ``query`` and measure it.

    ``via_sql=True`` routes through the full SQL pipeline (generate, parse,
    execute) as the paper's harness did; the default executes the logical
    plan directly on the engine, which measures the same intermediate
    results without the parsing overhead.  ``engine`` names the plan
    path's backend as :func:`~repro.relalg.compiled.make_engine` takes
    it: ``"interpreted"``, or ``"compiled"`` / ``"vectorized"``, two
    names of the compiled engine; the SQL path always runs the SQL
    executor.

    ``cap_tuples`` is a feasibility guard (plan path only): if the plan's
    static worst case — ``domain ** plan_width`` — exceeds the cap, the
    run is refused with :class:`~repro.errors.TimeoutExceeded` instead of
    grinding for hours, which is how the paper's slow methods time out of
    its charts.
    """
    from repro.errors import TimeoutExceeded

    if via_sql:
        stats = ExecutionStats()
        gen_start = time.perf_counter()
        text = generate_sql(query, method, rng=rng)
        ast = parse(text)
        generation_seconds = time.perf_counter() - gen_start
        start = time.perf_counter()
        result = sql_execute(ast, database, stats=stats)
        return MethodRun(
            method=method,
            wall_seconds=time.perf_counter() - start,
            generation_seconds=generation_seconds,
            answer_cardinality=result.cardinality,
            nonempty=not result.is_empty(),
            plan_width=None,
            stats=stats,
        )
    gen_start = time.perf_counter()
    plan = plan_query(query, method, rng=rng)
    generation_seconds = time.perf_counter() - gen_start
    if cap_tuples is not None:
        domain = estimate_domain_size(database)
        # Two static upper bounds on any intermediate's cardinality:
        # domain^width (every column ranges over the domain) and the
        # product of the scanned base cardinalities (a join can never
        # exceed the cross product of its inputs).  Refuse only when
        # the *tighter* one is hopeless.
        from repro.plans import Scan as _Scan
        from repro.plans import iter_nodes as _iter_nodes

        cross_product = 1
        for node in _iter_nodes(plan):
            if isinstance(node, _Scan):
                cross_product *= max(database.get(node.relation).cardinality, 1)
                if cross_product > cap_tuples:
                    break
        bound = min(domain ** plan_width(plan), cross_product)
        if bound > cap_tuples:
            raise TimeoutExceeded(
                f"{method}: static bound {bound} exceeds "
                f"cap of {cap_tuples} tuples"
            )
    return measure_plan(
        method, plan, make_engine(engine, database), generation_seconds
    )


def measure_plan(
    method: str, plan: Plan, backend, generation_seconds: float = 0.0
) -> MethodRun:
    """Execute ``plan`` once on ``backend`` (anything with
    ``execute(plan, stats=...)``) and measure it as a run of ``method``."""
    stats = ExecutionStats()
    start = time.perf_counter()
    result = backend.execute(plan, stats=stats)
    return MethodRun(
        method=method,
        wall_seconds=time.perf_counter() - start,
        generation_seconds=generation_seconds,
        answer_cardinality=result.cardinality,
        nonempty=not result.is_empty(),
        plan_width=plan_width(plan),
        stats=stats,
    )


def run_cell(
    query: ConjunctiveQuery,
    database: Database,
    method: str,
    seed: int,
    via_sql: bool = False,
    cap_tuples: int | None = None,
    engine: str = "interpreted",
) -> MethodRun | None:
    """One grid cell, as dispatched by the parallel experiment driver.

    Module-level (so :class:`concurrent.futures.ProcessPoolExecutor` can
    pickle it) and deterministic: the cell's planner randomness comes
    from ``random.Random(seed)`` built *inside* the call, so a cell's
    result does not depend on which process runs it or in what order.
    The query and database are pickled to the worker; plans never cross
    the process boundary (their canonical keys intern into a
    process-local table).  A feasibility refusal — the serial driver's
    :class:`~repro.errors.TimeoutExceeded` — is returned as ``None``
    rather than raised, so the parent can treat it as data; any other
    exception propagates and fails the series, exactly as it would
    serially.
    """
    from repro.errors import TimeoutExceeded

    try:
        return run_method(
            query,
            database,
            method,
            rng=random.Random(seed),
            via_sql=via_sql,
            cap_tuples=cap_tuples,
            engine=engine,
        )
    except TimeoutExceeded:
        return None


@dataclass
class CellResult:
    """Aggregated (median) measurements of one method at one x-value."""

    method: str
    x: float
    median_seconds: float
    median_tuples: float
    median_width: float | None
    runs: int
    timed_out: bool = False

    def label(self) -> str:
        """Human-readable cell text (median seconds or 'timeout')."""
        if self.timed_out:
            return "timeout"
        return f"{self.median_seconds:.4f}s"


@dataclass
class Series:
    """One experiment's results: per-method curves over an x-axis."""

    name: str
    x_label: str
    x_values: list[float]
    methods: list[str]
    cells: dict[tuple[str, float], CellResult] = field(default_factory=dict)

    def add(self, cell: CellResult) -> None:
        """Record one cell (method at one x-value)."""
        self.cells[(cell.method, cell.x)] = cell

    def get(self, method: str, x: float) -> CellResult | None:
        """The cell for ``method`` at ``x``, or None if never recorded."""
        return self.cells.get((method, x))

    def curve(self, method: str) -> list[tuple[float, CellResult]]:
        """The method's curve, x-sorted, skipping missing cells."""
        out = []
        for x in self.x_values:
            cell = self.get(method, x)
            if cell is not None:
                out.append((x, cell))
        return out


def aggregate_runs(
    method: str, x: float, runs: list[MethodRun]
) -> CellResult:
    """Median-aggregate several runs of one method at one x-value."""
    widths = [run.plan_width for run in runs if run.plan_width is not None]
    return CellResult(
        method=method,
        x=x,
        median_seconds=statistics.median(run.wall_seconds for run in runs),
        median_tuples=statistics.median(
            run.total_intermediate_tuples for run in runs
        ),
        median_width=statistics.median(widths) if widths else None,
        runs=len(runs),
    )


class BudgetTracker:
    """Per-method soft timeout bookkeeping for a scaling series.

    A method whose median at some x-value exceeds ``budget_seconds`` is
    retired: larger x-values get a ``timed_out`` cell instead of running,
    which is how the paper's slow methods drop out of the plots.
    """

    def __init__(self, budget_seconds: float) -> None:
        self.budget_seconds = budget_seconds
        self._retired: set[str] = set()

    def active(self, method: str) -> bool:
        """Whether ``method`` is still being scaled (not retired)."""
        return method not in self._retired

    def observe(self, cell: CellResult) -> None:
        """Retire the cell's method if it exceeded the budget."""
        if cell.median_seconds > self.budget_seconds:
            self._retired.add(cell.method)

    def timeout_cell(self, method: str, x: float) -> CellResult:
        """A placeholder cell marking ``method`` as timed out at ``x``."""
        return CellResult(
            method=method,
            x=x,
            median_seconds=float("inf"),
            median_tuples=float("inf"),
            median_width=None,
            runs=0,
            timed_out=True,
        )
