"""Series builders: one function per table/figure of the paper.

Each ``figN_*`` function regenerates the data behind the corresponding
figure — same workload, same axes, same methods — at sizes that complete
on a laptop-class machine (every size is a keyword argument, so the
paper's exact parameters can be requested).  The paper's absolute numbers
came from PostgreSQL on a 2003 cluster; what these series preserve is the
*shape*: who wins, how slopes compare, where methods drop out.

The execution-time figures (3–9) run the four methods the paper plots —
straightforward, early projection, reordering, bucket elimination — and
report median wall-clock seconds plus the machine-independent
``total_intermediate_tuples``.  Figure 2 is a compile-time experiment and
reports planner work instead.  The Section 7 studies and the ablations
(ordering heuristic, join algorithm, eager vs deferred DISTINCT,
mini-bucket i-bound, rule-based rewriting) are series of the same shape.
"""

from __future__ import annotations

import random
import statistics
from collections.abc import Callable, Sequence
from concurrent.futures import TimeoutError as FuturesTimeout

from repro.core.planner import plan_query
from repro.core.query import ConjunctiveQuery
from repro.experiments.runner import (
    BudgetTracker,
    CellResult,
    MethodRun,
    Series,
    aggregate_runs,
    measure_plan,
    run_cell,
    run_method,
)
from repro.relalg.compiled import make_engine
from repro.relalg.database import Database
from repro.relalg.engine import Engine
from repro.sql.planner_sim import plan_naive, plan_straightforward
from repro.workloads.coloring import coloring_instance
from repro.workloads.graphs import (
    Graph,
    augmented_circular_ladder,
    augmented_ladder,
    augmented_path,
    ladder,
    random_graph,
)
from repro.workloads.sat import random_ksat, sat_instance

#: The methods plotted in the paper's execution-time figures.
EXECUTION_METHODS: tuple[str, ...] = (
    "straightforward",
    "early",
    "reordering",
    "bucket",
)

InstanceBuilder = Callable[[float, int], tuple[ConjunctiveQuery, Database]]
#: ``run(method, query, database, rng)``: one measured run of one column.
CellRunner = Callable[[str, ConjunctiveQuery, Database, random.Random], MethodRun]


def _scaling_series(
    name: str,
    x_label: str,
    x_values: Sequence[float],
    build_instance: InstanceBuilder,
    methods: Sequence[str] = EXECUTION_METHODS,
    seeds: int = 3,
    budget_seconds: float = 5.0,
    via_sql: bool = False,
    cap_tuples: int = 5_000_000,
    jobs: int = 1,
    engine: str = "interpreted",
    cell_timeout_seconds: float | None = None,
    run: CellRunner | None = None,
) -> Series:
    """Generic scaling loop shared by Figures 3–9, the §7 studies and the
    ablations.

    For every x-value, each still-active method runs on ``seeds``
    independently generated instances and its medians are recorded.  A
    method is retired from larger sizes — rendered as a timeout cell,
    matching the paper's curves that stop early — either when its median
    exceeds ``budget_seconds`` or when the static feasibility guard
    (worst case ``domain ** plan_width`` above ``cap_tuples``) refuses to
    even start the run.

    ``jobs > 1`` fans the (method, seed) cells of each x-value across a
    :class:`~concurrent.futures.ProcessPoolExecutor`.  Results are
    collected in the serial method-then-seed order and every cell seeds
    its own ``random.Random(seed)`` inside the worker, so the series —
    cells, medians, retirement decisions — is identical to a ``jobs=1``
    run (wall-clock fields aside).  Retirement stays exact because the
    budget tracker only consults cells from *earlier* x-values, and all
    of an x-value's cells complete before the next is submitted.
    ``cell_timeout_seconds`` bounds the wait for any one parallel cell:
    a cell that blows it is recorded as timed out and its method retired,
    though the worker process itself runs on in the background (the pool
    cannot kill it) and is simply abandoned.

    ``run`` replaces :func:`~repro.experiments.runner.run_method` for the
    ablations, whose columns are variants of one design choice rather
    than planning methods; it runs serially.
    """
    from repro.errors import TimeoutExceeded

    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    series = Series(
        name=name, x_label=x_label, x_values=list(x_values), methods=list(methods)
    )
    tracker = BudgetTracker(budget_seconds)
    effective_cap = None if via_sql else cap_tuples
    if run is None:

        def run(method, query, database, rng):
            return run_method(
                query,
                database,
                method,
                rng=rng,
                via_sql=via_sql,
                cap_tuples=effective_cap,
                engine=engine,
            )

    executor = None
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=jobs)
    try:
        for x in series.x_values:
            instances = [build_instance(x, seed) for seed in range(seeds)]
            futures = {}
            if executor is not None:
                for method in methods:
                    if not tracker.active(method):
                        continue
                    for seed, (query, database) in enumerate(instances):
                        futures[(method, seed)] = executor.submit(
                            run_cell,
                            query,
                            database,
                            method,
                            seed,
                            via_sql,
                            effective_cap,
                            engine,
                        )
            for method in methods:
                if not tracker.active(method):
                    series.add(tracker.timeout_cell(method, x))
                    continue
                runs = []
                refused = False
                for seed, (query, database) in enumerate(instances):
                    if executor is not None:
                        try:
                            run = futures[(method, seed)].result(
                                timeout=cell_timeout_seconds
                            )
                        except FuturesTimeout:
                            run = None
                        if run is None:
                            refused = True
                            break
                        runs.append(run)
                        continue
                    try:
                        runs.append(run(method, query, database, random.Random(seed)))
                    except TimeoutExceeded:
                        refused = True
                        break
                if refused or not runs:
                    series.add(tracker.timeout_cell(method, x))
                    tracker.observe(tracker.timeout_cell(method, x))
                    continue
                cell = aggregate_runs(method, x, runs)
                tracker.observe(cell)
                series.add(cell)
    finally:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
    return series


# ----------------------------------------------------------------------
# Figure 2 — compile-time scaling (naive vs straightforward, 3-SAT)
# ----------------------------------------------------------------------
def fig2_compile(
    densities: Sequence[float] = (1, 2, 3, 4, 5, 6, 7, 8),
    variables: int = 5,
    seeds: int = 5,
    clause_width: int = 3,
) -> Series:
    """Figure 2: planner (compile) cost of the naive vs straightforward
    forms as 3-SAT density scales, 5 variables.

    ``median_seconds`` is planner wall-clock; ``median_tuples`` carries the
    machine-independent ``plans_costed`` counter.
    """
    series = Series(
        name="fig2_compile",
        x_label="density (clauses / variables)",
        x_values=[float(d) for d in densities],
        methods=["naive", "straightforward"],
    )
    for density in series.x_values:
        clause_count = round(density * variables)
        naive_runs: list[tuple[float, int]] = []
        straight_runs: list[tuple[float, int]] = []
        for seed in range(seeds):
            rng = random.Random(seed)
            formula = random_ksat(variables, clause_count, rng, width=clause_width)
            query, database = sat_instance(formula)
            naive = plan_naive(query, database, rng=random.Random(seed))
            straight = plan_straightforward(query, database)
            naive_runs.append((naive.elapsed_seconds, naive.plans_costed))
            straight_runs.append((straight.elapsed_seconds, straight.plans_costed))
        for method, runs in (("naive", naive_runs), ("straightforward", straight_runs)):
            series.add(
                CellResult(
                    method=method,
                    x=density,
                    median_seconds=statistics.median(sec for sec, _ in runs),
                    median_tuples=statistics.median(float(p) for _, p in runs),
                    median_width=None,
                    runs=len(runs),
                )
            )
    return series


# ----------------------------------------------------------------------
# Figure 3 — density scaling at fixed order (Boolean and non-Boolean)
# ----------------------------------------------------------------------
def fig3_density(
    order: int = 12,
    densities: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0),
    free_fraction: float = 0.0,
    seeds: int = 3,
    budget_seconds: float = 5.0,
    via_sql: bool = False,
    jobs: int = 1,
    engine: str = "interpreted",
    cell_timeout_seconds: float | None = None,
) -> Series:
    """Figure 3: 3-COLOR density scaling at fixed order (paper: order 20).

    ``free_fraction=0.0`` reproduces the Boolean panel (left);
    ``free_fraction=0.2`` the non-Boolean panel (right).

    The paper sweeps densities 0.5–8.0 at order 20; a simple graph of
    order 12 tops out at density 5.5, so the default sweep stops at 5.0 —
    the shape (cost rises with density, bucket elimination dominates
    everywhere) is unaffected.
    """

    def build(density: float, seed: int) -> tuple[ConjunctiveQuery, Database]:
        rng = random.Random((seed, density).__hash__() & 0x7FFFFFFF)
        graph = random_graph(order, round(density * order), rng)
        instance = coloring_instance(
            graph, free_fraction=free_fraction, rng=random.Random(seed)
        )
        return instance.query, instance.database

    suffix = "boolean" if free_fraction == 0.0 else "nonboolean"
    return _scaling_series(
        name=f"fig3_density_{suffix}",
        x_label="density (edges / vertices)",
        x_values=[float(d) for d in densities],
        build_instance=build,
        seeds=seeds,
        budget_seconds=budget_seconds,
        via_sql=via_sql,
        jobs=jobs,
        engine=engine,
        cell_timeout_seconds=cell_timeout_seconds,
    )


# ----------------------------------------------------------------------
# Figures 4 & 5 — order scaling at fixed density
# ----------------------------------------------------------------------
def _order_scaling(
    name: str,
    density: float,
    orders: Sequence[int],
    free_fraction: float,
    seeds: int,
    budget_seconds: float,
    **options,
) -> Series:
    """Random 3-COLOR graphs of a fixed density, scaling the order;
    ``options`` go to :func:`_scaling_series`."""

    def build(order: float, seed: int) -> tuple[ConjunctiveQuery, Database]:
        order = int(order)
        rng = random.Random((seed, order, density).__hash__() & 0x7FFFFFFF)
        graph = random_graph(order, round(density * order), rng)
        instance = coloring_instance(
            graph, free_fraction=free_fraction, rng=random.Random(seed)
        )
        return instance.query, instance.database

    return _scaling_series(
        name=name,
        x_label="order (vertices)",
        x_values=[float(order) for order in orders],
        build_instance=build,
        seeds=seeds,
        budget_seconds=budget_seconds,
        **options,
    )


def fig4_order_low_density(
    orders: Sequence[int] = (8, 10, 12, 14, 16, 18),
    free_fraction: float = 0.0,
    seeds: int = 3,
    budget_seconds: float = 5.0,
    via_sql: bool = False,
    jobs: int = 1,
    engine: str = "interpreted",
    cell_timeout_seconds: float | None = None,
) -> Series:
    """Figure 4: order scaling at density 3.0 (underconstrained region;
    paper: orders 10–35).  The slow methods drop out (feasibility guard /
    wall budget) exactly as the paper's curves end early; bucket
    elimination carries through."""
    suffix = "boolean" if free_fraction == 0.0 else "nonboolean"
    return _order_scaling(
        f"fig4_order_d30_{suffix}", 3.0, orders, free_fraction, seeds,
        budget_seconds, via_sql=via_sql, jobs=jobs, engine=engine,
        cell_timeout_seconds=cell_timeout_seconds,
    )


def fig5_order_high_density(
    orders: Sequence[int] = (13, 14, 15, 16, 17, 18),
    free_fraction: float = 0.0,
    seeds: int = 3,
    budget_seconds: float = 5.0,
    via_sql: bool = False,
    jobs: int = 1,
    engine: str = "interpreted",
    cell_timeout_seconds: float | None = None,
) -> Series:
    """Figure 5: order scaling at density 6.0 (overconstrained region;
    paper: orders 15–30).

    Dense instances are heavily constrained, so actual intermediate sizes
    stay far below the static worst case — the feasibility guard is
    lifted here and the wall-clock budget alone decides timeouts.
    """
    suffix = "boolean" if free_fraction == 0.0 else "nonboolean"
    return _order_scaling(
        f"fig5_order_d60_{suffix}", 6.0, orders, free_fraction, seeds,
        budget_seconds, via_sql=via_sql, cap_tuples=10**12, jobs=jobs,
        engine=engine, cell_timeout_seconds=cell_timeout_seconds,
    )


# ----------------------------------------------------------------------
# Figures 6–9 — structured families
# ----------------------------------------------------------------------
def _structured_scaling(
    name: str,
    family: Callable[[int], Graph],
    orders: Sequence[int],
    free_fraction: float,
    seeds: int,
    budget_seconds: float,
    **options,
) -> Series:
    """One structured graph family, scaling its order; ``options`` go to
    :func:`_scaling_series`."""

    def build(order: float, seed: int) -> tuple[ConjunctiveQuery, Database]:
        graph = family(int(order))
        instance = coloring_instance(
            graph, free_fraction=free_fraction, rng=random.Random(seed)
        )
        return instance.query, instance.database

    return _scaling_series(
        name=name,
        x_label="order (family parameter)",
        x_values=[float(order) for order in orders],
        build_instance=build,
        seeds=seeds,
        budget_seconds=budget_seconds,
        **options,
    )


def fig6_augmented_path(
    orders: Sequence[int] = (4, 8, 12, 16, 20),
    free_fraction: float = 0.0,
    seeds: int = 3,
    budget_seconds: float = 5.0,
    via_sql: bool = False,
    jobs: int = 1,
    engine: str = "interpreted",
    cell_timeout_seconds: float | None = None,
) -> Series:
    """Figure 6: augmented-path queries (paper: orders 5–50)."""
    suffix = "boolean" if free_fraction == 0.0 else "nonboolean"
    return _structured_scaling(
        f"fig6_augpath_{suffix}", augmented_path, orders, free_fraction,
        seeds, budget_seconds, via_sql=via_sql, jobs=jobs, engine=engine,
        cell_timeout_seconds=cell_timeout_seconds,
    )


def fig7_ladder(
    orders: Sequence[int] = (4, 8, 12, 16, 20),
    free_fraction: float = 0.0,
    seeds: int = 3,
    budget_seconds: float = 5.0,
    via_sql: bool = False,
    jobs: int = 1,
    engine: str = "interpreted",
    cell_timeout_seconds: float | None = None,
) -> Series:
    """Figure 7: ladder queries — the family where greedy reordering finds
    a *worse* order than the natural one."""
    suffix = "boolean" if free_fraction == 0.0 else "nonboolean"
    return _structured_scaling(
        f"fig7_ladder_{suffix}", ladder, orders, free_fraction, seeds,
        budget_seconds, via_sql=via_sql, jobs=jobs, engine=engine,
        cell_timeout_seconds=cell_timeout_seconds,
    )


def fig8_augmented_ladder(
    orders: Sequence[int] = (3, 5, 7, 9, 11),
    free_fraction: float = 0.0,
    seeds: int = 3,
    budget_seconds: float = 5.0,
    via_sql: bool = False,
    jobs: int = 1,
    engine: str = "interpreted",
    cell_timeout_seconds: float | None = None,
) -> Series:
    """Figure 8: augmented-ladder queries (straightforward and reordering
    time out very early in the paper, around order 7)."""
    suffix = "boolean" if free_fraction == 0.0 else "nonboolean"
    return _structured_scaling(
        f"fig8_augladder_{suffix}", augmented_ladder, orders, free_fraction,
        seeds, budget_seconds, via_sql=via_sql, jobs=jobs, engine=engine,
        cell_timeout_seconds=cell_timeout_seconds,
    )


def fig9_augmented_circular_ladder(
    orders: Sequence[int] = (3, 5, 7, 9, 11),
    free_fraction: float = 0.0,
    seeds: int = 3,
    budget_seconds: float = 5.0,
    via_sql: bool = False,
    jobs: int = 1,
    engine: str = "interpreted",
    cell_timeout_seconds: float | None = None,
) -> Series:
    """Figure 9: augmented-circular-ladder queries — the starkest
    separation between the methods."""
    suffix = "boolean" if free_fraction == 0.0 else "nonboolean"
    return _structured_scaling(
        f"fig9_augcircladder_{suffix}",
        augmented_circular_ladder,
        orders,
        free_fraction,
        seeds,
        budget_seconds,
        via_sql=via_sql,
        jobs=jobs,
        engine=engine,
        cell_timeout_seconds=cell_timeout_seconds,
    )


# ----------------------------------------------------------------------
# Section 7 — SAT consistency check
# ----------------------------------------------------------------------
def sat_scaling(
    variables: Sequence[int] = (6, 8, 10, 12),
    density: float = 3.0,
    clause_width: int = 3,
    free_fraction: float = 0.0,
    seeds: int = 3,
    budget_seconds: float = 5.0,
    via_sql: bool = False,
    jobs: int = 1,
    engine: str = "interpreted",
    cell_timeout_seconds: float | None = None,
) -> Series:
    """Section 7's consistency claim: the same method ranking holds for
    random k-SAT queries (3-SAT by default; pass ``clause_width=2`` for
    2-SAT)."""

    def build(n: float, seed: int) -> tuple[ConjunctiveQuery, Database]:
        n = int(n)
        rng = random.Random((seed, n, density).__hash__() & 0x7FFFFFFF)
        formula = random_ksat(n, round(density * n), rng, width=clause_width)
        return sat_instance(
            formula, free_fraction=free_fraction, rng=random.Random(seed)
        )

    return _scaling_series(
        name=f"sat{clause_width}_order_scaling",
        x_label="variables",
        x_values=[float(n) for n in variables],
        build_instance=build,
        seeds=seeds,
        budget_seconds=budget_seconds,
        via_sql=via_sql,
        jobs=jobs,
        engine=engine,
        cell_timeout_seconds=cell_timeout_seconds,
    )


# ----------------------------------------------------------------------
# Section 7 follow-ups: relation-size and mediator scaling
# ----------------------------------------------------------------------
def relation_size_scaling(
    colors: Sequence[int] = (3, 4, 5, 6, 8),
    order: int = 10,
    density: float = 2.0,
    seeds: int = 3,
    budget_seconds: float = 5.0,
    via_sql: bool = False,
    jobs: int = 1,
    engine: str = "interpreted",
    cell_timeout_seconds: float | None = None,
) -> Series:
    """Section 7 asks to "study scalability with respect to relation
    size": fix the query structure (random k-COLOR graphs) and grow the
    database by adding colors — the ``edge`` relation grows as
    ``k * (k - 1)`` tuples and every intermediate's per-arity volume as
    ``k ** arity``, so structural width matters more, not less, as
    relations grow."""

    def build(k: float, seed: int) -> tuple[ConjunctiveQuery, Database]:
        rng = random.Random((seed, order, density).__hash__() & 0x7FFFFFFF)
        graph = random_graph(order, round(density * order), rng)
        instance = coloring_instance(graph, colors=int(k))
        return instance.query, instance.database

    return _scaling_series(
        name="relation_size_scaling",
        x_label="colors (relation has k*(k-1) tuples)",
        x_values=[float(k) for k in colors],
        build_instance=build,
        seeds=seeds,
        budget_seconds=budget_seconds,
        via_sql=via_sql,
        cap_tuples=50_000_000,
        jobs=jobs,
        engine=engine,
        cell_timeout_seconds=cell_timeout_seconds,
    )


def mediator_chain_scaling(
    hops: Sequence[int] = (4, 8, 12, 16, 20),
    seeds: int = 3,
    budget_seconds: float = 5.0,
    via_sql: bool = False,
    jobs: int = 1,
    engine: str = "interpreted",
    cell_timeout_seconds: float | None = None,
) -> Series:
    """The introduction's mediator motivation as an experiment: chains of
    small heterogeneous sources (varying arities and sizes), scaling the
    number of joined sources.

    Mediator chains are acyclic, so this is the one series where the
    Section 7 semijoin direction applies: "yannakakis" runs alongside the
    paper's four execution methods.
    """
    from repro.workloads.mediator import chain_query

    def build(n: float, seed: int) -> tuple[ConjunctiveQuery, Database]:
        return chain_query(int(n), random.Random(seed * 31 + int(n)))

    return _scaling_series(
        name="mediator_chain_scaling",
        x_label="sources joined",
        x_values=[float(n) for n in hops],
        build_instance=build,
        methods=EXECUTION_METHODS + ("yannakakis",),
        seeds=seeds,
        budget_seconds=budget_seconds,
        via_sql=via_sql,
        cap_tuples=50_000_000,
        jobs=jobs,
        engine=engine,
        cell_timeout_seconds=cell_timeout_seconds,
    )


def yannakakis_broken_chain(
    hops: Sequence[int] = (4, 6, 8),
    seeds: int = 3,
    budget_seconds: float = 5.0,
    via_sql: bool = False,
    jobs: int = 1,
    engine: str = "interpreted",
    cell_timeout_seconds: float | None = None,
) -> Series:
    """Section 7's semijoin direction on its best case: bucket elimination
    vs Yannakakis on chains whose middle hop dangles every tuple
    (:func:`~repro.workloads.mediator.broken_chain`).  The full reducer
    keeps the largest intermediate at input size; it does not always
    move fewer tuples in total, because its semijoin passes count too."""
    from repro.workloads.mediator import broken_chain

    def build(n: float, seed: int) -> tuple[ConjunctiveQuery, Database]:
        return broken_chain(int(n), random.Random(seed))

    return _scaling_series(
        name="yannakakis_broken_chain",
        x_label="hops",
        x_values=[float(n) for n in hops],
        build_instance=build,
        methods=("bucket", "yannakakis"),
        seeds=seeds,
        budget_seconds=budget_seconds,
        via_sql=via_sql,
        jobs=jobs,
        engine=engine,
        cell_timeout_seconds=cell_timeout_seconds,
    )


# ----------------------------------------------------------------------
# Ablations: one design choice varied, everything else fixed.  Each
# column is a variant, not a planning method, so these run serially.
# ----------------------------------------------------------------------
def ablation_orders(
    orders: Sequence[int] = (4, 6, 8, 10),
    seeds: int = 3,
    budget_seconds: float = 5.0,
) -> Series:
    """Bucket elimination on ladders under each variable-ordering
    heuristic.  The paper commits to MCS; the structure-aware heuristics
    should match it and a random order should do worse.  The width column
    is the plan width: the order's induced width plus one."""
    from repro.core.buckets import bucket_elimination_plan

    def run(heuristic, query, database, rng):
        plan = bucket_elimination_plan(query, heuristic=heuristic, rng=rng).plan
        return measure_plan(heuristic, plan, Engine(database))

    return _structured_scaling(
        "ablation_orders", ladder, orders, 0.0, seeds, budget_seconds,
        methods=("mcs", "min_degree", "min_fill", "random"), run=run,
    )


def ablation_joins(
    orders: Sequence[int] = (8, 10, 12),
    seeds: int = 3,
    budget_seconds: float = 5.0,
) -> Series:
    """One bucket-elimination plan per instance (random 3-COLOR, density
    3.0) under each join algorithm of the interpreted engine.  The paper
    forced hash joins; the algorithms compute the same relations, so the
    counters are identical and only the seconds differ."""
    from repro.relalg.joins import JOIN_ALGORITHMS

    def run(algorithm, query, database, rng):
        plan = plan_query(query, "bucket", rng=rng)
        backend = Engine(database, join_algorithm=JOIN_ALGORITHMS[algorithm])
        return measure_plan(algorithm, plan, backend)

    return _order_scaling(
        "ablation_joins", 3.0, orders, 0.0, seeds, budget_seconds,
        methods=("hash", "sort_merge", "nested_loop"), run=run,
    )


def ablation_distinct(
    orders: Sequence[int] = (3, 4, 5, 6),
    seeds: int = 3,
    budget_seconds: float = 5.0,
) -> Series:
    """Early-projection plans of augmented paths on the bag engine, with
    every projection deduplicated (``eager``, the paper's ``SELECT
    DISTINCT`` in each subquery) or only the result (``deferred``).
    Duplicates born at a projection multiply through later joins."""
    from repro.relalg.bag_engine import BagEngine

    def run(variant, query, database, rng):
        plan = plan_query(query, "early", rng=rng)
        backend = BagEngine(database, dedup_projections=variant == "eager")
        return measure_plan(variant, plan, backend)

    return _structured_scaling(
        "ablation_distinct", augmented_path, orders, 0.0, seeds,
        budget_seconds, methods=("eager", "deferred"), run=run,
    )


def ablation_minibuckets(
    orders: Sequence[int] = (10, 12, 14),
    seeds: int = 3,
    budget_seconds: float = 5.0,
) -> Series:
    """Mini-bucket elimination on random 3-COLOR at density 4.0 under
    i-bounds 2, 3 and 4 (relaxations: no intermediate wider than i, an
    answer that may be too large), unbounded (``exact``), and bucket
    elimination as the reference."""
    from repro.core.minibuckets import mini_bucket_plan

    def run(variant, query, database, rng):
        if variant == "bucket":
            plan = plan_query(query, "bucket", rng=rng)
        else:
            ibound = {"i2": 2, "i3": 3, "i4": 4}.get(variant, len(query.variables))
            plan = mini_bucket_plan(query, ibound=ibound, rng=rng).plan
        return measure_plan(variant, plan, Engine(database))

    return _order_scaling(
        "ablation_minibuckets", 4.0, orders, 0.0, seeds, budget_seconds,
        methods=("i2", "i3", "i4", "exact", "bucket"), run=run,
    )


def ablation_rewrite(
    orders: Sequence[int] = (4, 5, 6, 7, 8),
    seeds: int = 3,
    budget_seconds: float = 5.0,
    engine: str = "interpreted",
) -> Series:
    """Section 7's rule-based route to projection pushing on augmented
    paths: the straightforward plan, the same plan after
    :func:`repro.rewrite.normalize`, and the early-projection and
    bucket-elimination planners."""
    from repro.rewrite import normalize

    def run(variant, query, database, rng):
        if variant == "normalized":
            plan = normalize(plan_query(query, "straightforward", rng=rng))
        else:
            plan = plan_query(query, variant, rng=rng)
        return measure_plan(variant, plan, make_engine(engine, database))

    return _structured_scaling(
        "ablation_rewrite", augmented_path, orders, 0.0, seeds, budget_seconds,
        methods=("straightforward", "normalized", "early", "bucket"), run=run,
    )


#: Registry for the CLI: figure name -> series builder.
FIGURES: dict[str, Callable[..., Series]] = {
    "fig2": fig2_compile,
    "fig3": fig3_density,
    "fig4": fig4_order_low_density,
    "fig5": fig5_order_high_density,
    "fig6": fig6_augmented_path,
    "fig7": fig7_ladder,
    "fig8": fig8_augmented_ladder,
    "fig9": fig9_augmented_circular_ladder,
    "sat": sat_scaling,
    "relsize": relation_size_scaling,
    "mediator": mediator_chain_scaling,
    "yannakakis": yannakakis_broken_chain,
    "orders": ablation_orders,
    "joins": ablation_joins,
    "distinct": ablation_distinct,
    "minibuckets": ablation_minibuckets,
    "rewrite": ablation_rewrite,
}
