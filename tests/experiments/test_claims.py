"""The ablations, the Yannakakis comparison and Figures 5 and 9: each
series' claim, checked on the machine-independent counters at smoke sizes.

Cells hold medians; a claim about every run (answers, arities, the
largest intermediate) reads the runs themselves, which :func:`runs_of`
records as the series aggregates them.  The counters are the same on
every engine, so the slowest series run on the vectorized one.
"""

import pytest

from repro.experiments import figures
from repro.plans import plan_key


@pytest.fixture
def runs_of(monkeypatch):
    """``runs_of(builder, **kwargs) -> (series, runs)``, where
    ``runs[method, x]`` lists the cell's runs in seed order."""

    def build(builder, **kwargs):
        runs = {}
        aggregate = figures.aggregate_runs

        def recording(method, x, method_runs):
            runs[method, x] = method_runs
            return aggregate(method, x, method_runs)

        monkeypatch.setattr(figures, "aggregate_runs", recording)
        return builder(**kwargs), runs

    return build


def tuples(series, method, x):
    cell = series.get(method, x)
    assert cell is not None and not cell.timed_out, (method, x)
    return cell.median_tuples


def test_structure_aware_orders_match_or_beat_a_random_order():
    """No order beats the ladder's treewidth 2 (plan width 3)."""
    series = figures.ablation_orders(orders=(6, 10))
    for x in (6.0, 10.0):
        rand = series.get("random", x)
        for heuristic in ("mcs", "min_degree", "min_fill"):
            cell = series.get(heuristic, x)
            assert 3 <= cell.median_width <= rand.median_width, (heuristic, x)
            assert cell.median_tuples <= rand.median_tuples, (heuristic, x)
    assert tuples(series, "mcs", 10.0) < tuples(series, "random", 10.0)


def test_join_algorithms_do_identical_work(runs_of):
    """Hash, sort-merge and nested-loop joins compute the same relations,
    so this ablation differs in seconds only."""
    series, runs = runs_of(figures.ablation_joins, orders=(8, 10), seeds=2)
    for x in (8.0, 10.0):
        hashed = runs["hash", x]
        for algorithm in ("sort_merge", "nested_loop"):
            other = runs[algorithm, x]
            assert [r.stats.summary() for r in other] == [
                r.stats.summary() for r in hashed
            ]
            assert [r.answer_cardinality for r in other] == [
                r.answer_cardinality for r in hashed
            ]


def test_deferred_distinct_moves_more_tuples_at_every_point(runs_of):
    series, runs = runs_of(figures.ablation_distinct, orders=(3, 4, 5), seeds=1)
    for x in (3.0, 4.0, 5.0):
        assert tuples(series, "deferred", x) > tuples(series, "eager", x)
        assert runs["deferred", x][0].answer_cardinality == (
            runs["eager", x][0].answer_cardinality
        )
    assert tuples(series, "eager", 5.0) == 1134
    assert tuples(series, "deferred", 5.0) == 24438


def test_minibuckets_respect_the_ibound_and_exact_matches_bucket(runs_of, monkeypatch):
    """No relaxed intermediate is wider than i, and with no bucket split
    mini-bucket elimination joins each bucket as bucket elimination
    does: the same plans, hence the same tuples and answers."""
    keys = {"exact": [], "bucket": []}
    measure = figures.measure_plan

    def recording(variant, plan, backend):
        if variant in keys:
            keys[variant].append(plan_key(plan))
        return measure(variant, plan, backend)

    monkeypatch.setattr(figures, "measure_plan", recording)
    series, runs = runs_of(figures.ablation_minibuckets, orders=(10, 12))
    for x in (10.0, 12.0):
        for ibound in (2, 3, 4):
            for run in runs[f"i{ibound}", x]:
                assert run.max_intermediate_arity <= ibound
                assert run.plan_width <= ibound
        exact, bucket = runs["exact", x], runs["bucket", x]
        assert [r.answer_cardinality for r in exact] == [
            r.answer_cardinality for r in bucket
        ]
        assert [r.total_intermediate_tuples for r in exact] == [
            r.total_intermediate_tuples for r in bucket
        ]
    assert keys["exact"] == keys["bucket"]


def test_rewriting_recovers_better_than_early_projection(runs_of):
    orders = (4, 5, 6, 7, 8)
    series, runs = runs_of(
        figures.ablation_rewrite, orders=orders, seeds=1, engine="vectorized"
    )
    for x in map(float, orders):
        normalized = tuples(series, "normalized", x)
        assert normalized < tuples(series, "early", x)
        assert tuples(series, "early", x) < tuples(series, "straightforward", x)
        answers = {runs[method, x][0].answer_cardinality for method in series.methods}
        assert len(answers) == 1, x
    assert [tuples(series, m, 6.0) for m in ("normalized", "early", "straightforward")] == [
        1416, 2250, 49221
    ]


def test_yannakakis_bounds_the_largest_intermediate_on_dangling_chains(runs_of):
    """The full reducer keeps every intermediate at input size, whatever
    bucket elimination's order does; with seed 0's MCS tie-breaks bucket
    elimination materializes ~80x more.  Total tuples are *not* claimed:
    the semijoin passes count too, and at 8 hops they outnumber bucket's."""
    series, runs = runs_of(figures.yannakakis_broken_chain, hops=(6, 8))
    for x in (6.0, 8.0):
        for yannakakis, bucket in zip(runs["yannakakis", x], runs["bucket", x]):
            assert yannakakis.answer_cardinality == bucket.answer_cardinality == 0
            largest = yannakakis.stats.max_intermediate_cardinality
            assert largest <= 600  # no source exceeds 100 values x fanout 6
            assert largest <= bucket.stats.max_intermediate_cardinality
        seed0 = runs["bucket", x][0].stats.max_intermediate_cardinality
        assert runs["yannakakis", x][0].stats.max_intermediate_cardinality * 50 < seed0


def test_fig5_early_projection_gains_nothing_when_overconstrained(runs_of):
    """Figure 5's claim: at density 6.0 early projection finds no
    projection opportunity the listed order misses, tuple for tuple."""
    _, runs = runs_of(
        figures.fig5_order_high_density, orders=(13, 14, 15), engine="vectorized"
    )
    for x in (13.0, 14.0, 15.0):
        early = [run.total_intermediate_tuples for run in runs["early", x]]
        straight = runs["straightforward", x]
        assert early == [run.total_intermediate_tuples for run in straight]


def test_fig9_bucket_beats_early_beats_reordering():
    """Figure 9's claim: the starkest separation.  Straightforward is
    refused from order 4 on (its static bound exceeds the cap)."""
    series = figures.fig9_augmented_circular_ladder(
        orders=(3, 4, 5), seeds=1, engine="vectorized"
    )
    for x in (4.0, 5.0):
        bucket = tuples(series, "bucket", x)
        assert bucket < tuples(series, "early", x) < tuples(series, "reordering", x)
        assert series.get("straightforward", x).timed_out
    assert [tuples(series, m, 4.0) for m in ("bucket", "early", "reordering")] == [
        972, 2334, 44406
    ]
