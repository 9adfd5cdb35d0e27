"""Figure builders at toy sizes: they run, and the paper's shape claims
hold on the machine-independent counters."""

import pytest

from repro.experiments.figures import (
    EXECUTION_METHODS,
    FIGURES,
    fig2_compile,
    fig3_density,
    fig4_order_low_density,
    fig6_augmented_path,
    fig7_ladder,
    fig8_augmented_ladder,
    sat_scaling,
)


def test_registry_covers_every_figure():
    assert set(FIGURES) == {
        "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "sat", "relsize", "mediator", "yannakakis",
        "orders", "joins", "distinct", "minibuckets", "rewrite",
    }


class TestFollowUps:
    def test_relation_size_scaling_runs(self):
        from repro.experiments.figures import relation_size_scaling

        series = relation_size_scaling(colors=(3, 4), order=7, seeds=1)
        assert series.get("bucket", 4.0) is not None

    def test_relation_size_bucket_still_wins(self):
        from repro.experiments.figures import relation_size_scaling

        series = relation_size_scaling(colors=(4,), order=8, seeds=2)
        bucket = series.get("bucket", 4.0).median_tuples
        straight = series.get("straightforward", 4.0).median_tuples
        assert bucket < straight

    def test_mediator_chain_scaling_runs(self):
        from repro.experiments.figures import mediator_chain_scaling

        series = mediator_chain_scaling(hops=(4, 6), seeds=1)
        assert series.get("bucket", 6.0) is not None


class TestFig2:
    def test_runs_and_reports_both_methods(self):
        series = fig2_compile(densities=(1, 2, 3), seeds=2)
        assert series.methods == ["naive", "straightforward"]
        for density in (1.0, 2.0, 3.0):
            assert series.get("naive", density) is not None

    def test_naive_work_dominates(self):
        """Figure 2's claim: naive compile effort is far above
        straightforward and grows with density."""
        series = fig2_compile(densities=(1, 3), seeds=2)
        for density in (1.0, 3.0):
            naive = series.get("naive", density)
            straight = series.get("straightforward", density)
            assert naive.median_tuples > straight.median_tuples
        assert (
            series.get("naive", 3.0).median_tuples
            > series.get("naive", 1.0).median_tuples
        )


class TestFig3:
    def test_boolean_density_scaling(self):
        series = fig3_density(order=7, densities=(1.0, 2.0), seeds=2)
        assert list(series.methods) == list(EXECUTION_METHODS)
        cell = series.get("bucket", 2.0)
        assert cell is not None and not cell.timed_out

    def test_bucket_dominates_on_tuples(self):
        """Figure 3's claim: bucket elimination moves the fewest tuples at
        every density."""
        series = fig3_density(order=8, densities=(1.0, 2.0, 3.0), seeds=3)
        for density in (1.0, 2.0, 3.0):
            bucket = series.get("bucket", density).median_tuples
            for method in ("straightforward", "early"):
                assert bucket <= series.get(method, density).median_tuples

    def test_non_boolean_variant(self):
        series = fig3_density(
            order=7, densities=(2.0,), seeds=2, free_fraction=0.2
        )
        assert series.name.endswith("nonboolean")
        assert series.get("bucket", 2.0) is not None


class TestOrderScaling:
    def test_fig4_runs(self):
        series = fig4_order_low_density(orders=(7, 8), seeds=2)
        assert series.get("bucket", 8.0) is not None

    def test_bucket_beats_straightforward_at_larger_orders(self):
        series = fig4_order_low_density(orders=(8,), seeds=3)
        bucket = series.get("bucket", 8.0).median_tuples
        straight = series.get("straightforward", 8.0).median_tuples
        assert bucket < straight


class TestStructured:
    def test_fig6_early_competitive(self):
        """Figure 6's claim: on augmented paths the natural order is
        good — early projection lands within a small factor of bucket."""
        series = fig6_augmented_path(orders=(6,), seeds=1)
        early = series.get("early", 6.0).median_tuples
        straight = series.get("straightforward", 6.0).median_tuples
        assert early < straight

    def test_fig7_reordering_backfires(self):
        """Figure 7's claim: on ladders the greedy reorderer finds a
        *worse* order than the natural listing — early projection along
        the given order beats reordering."""
        series = fig7_ladder(orders=(8,), seeds=1)
        early = series.get("early", 8.0).median_tuples
        reordering = series.get("reordering", 8.0).median_tuples
        assert early < reordering

    def test_fig8_separation(self):
        """Figure 8's claim: on augmented ladders the gap between
        straightforward and bucket elimination is wide."""
        series = fig8_augmented_ladder(orders=(4,), seeds=1)
        bucket = series.get("bucket", 4.0).median_tuples
        straight = series.get("straightforward", 4.0).median_tuples
        assert bucket * 4 <= straight


class TestSat:
    def test_sat_scaling_runs(self):
        series = sat_scaling(variables=(5, 6), seeds=1)
        assert series.get("bucket", 6.0) is not None

    def test_2sat_variant(self):
        series = sat_scaling(variables=(5,), seeds=1, clause_width=2)
        assert series.name.startswith("sat2")


class TestBudget:
    def test_a_series_needs_a_seed(self):
        with pytest.raises(ValueError, match="seeds must be >= 1"):
            fig3_density(order=7, densities=(1.0,), seeds=0)

    def test_timeout_retires_method(self):
        # An absurdly small budget retires everything after the first size.
        series = fig3_density(
            order=7, densities=(1.0, 2.0), seeds=1, budget_seconds=0.0
        )
        for method in EXECUTION_METHODS:
            assert series.get(method, 2.0).timed_out
