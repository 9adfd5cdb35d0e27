"""The compiled execution backend.

The compiled engine's contract has two halves, and this module pins
both:

- **Answers**: identical relations to the interpreted engine on every
  operator shape the compiler specializes — zero-copy scans, fused
  constant/equality selections, cross products, filter joins, generic
  hash joins (both build sides), semijoins, fused Project-over-Join and
  Project-over-Semijoin, identity projections, Boolean (zero-arity)
  outputs.
- **Logical stats**: byte-identical work counters (joins, semijoins,
  projections, scans, intermediate-tuple totals and maxima, the arity
  trace) so the paper's plan-cost figures are engine-independent.
  Physical counters (``rows_built``, cache traffic) may legitimately be
  *lower* — fusion's whole point — and are asserted separately.

Cache semantics (on/off equivalence, hit replay, generation
invalidation, LRU bound) mirror ``tests/relalg/test_plan_cache.py``.
"""

import random

import pytest

from repro.core.planner import METHODS, plan_query
from repro.datalog import parse_rule
from repro.plans import Join, Project, Scan, Semijoin
from repro.relalg.compiled import (
    ENGINE_NAMES,
    ENGINES,
    CompiledEngine,
    VectorizedEngine,
    compiled_evaluate,
    make_engine,
)
from repro.relalg.database import Database, edge_database
from repro.relalg.engine import Engine, evaluate
from repro.relalg.joins import nested_loop_join, sort_merge_join
from repro.relalg.relation import Relation
from repro.relalg.stats import ExecutionStats
from repro.errors import SchemaError

LOGICAL = (
    "joins",
    "semijoins",
    "projections",
    "scans",
    "total_intermediate_tuples",
    "max_intermediate_cardinality",
    "max_intermediate_arity",
    "peak_live_tuples",
)


@pytest.fixture
def db():
    return edge_database()


def assert_parity(plan, database, *, cache: bool = False):
    """Both engines agree on the relation and every logical counter."""
    size = 128 if cache else 0
    expected, istats = Engine(
        database, plan_cache_size=size
    ).execute_with_stats(plan)
    got, cstats = CompiledEngine(
        database, plan_cache_size=size
    ).execute_with_stats(plan)
    assert got == expected
    for counter in LOGICAL:
        assert getattr(cstats, counter) == getattr(istats, counter), counter
    assert cstats.arity_trace == istats.arity_trace
    assert cstats.rows_built <= istats.rows_built
    return got


class TestOperatorShapes:
    def test_zero_copy_scan(self, db):
        result = assert_parity(Scan("edge", ("x", "y")), db)
        assert result.cardinality == 6

    def test_scan_with_constant(self, db):
        plan = Scan("edge", ("y",), constants=((0, 1),))
        result = assert_parity(plan, db)
        assert result == Relation(("y",), [(2,), (3,)])

    def test_scan_with_repeated_variable(self):
        db = Database({"r": Relation(("a", "b"), [(1, 1), (1, 2), (3, 3)])})
        plan = Scan("r", ("x", "x"))
        result = assert_parity(plan, db)
        assert result == Relation(("x",), [(1,), (3,)])

    def test_scan_arity_mismatch_raises_same_error(self, db):
        plan = Scan("edge", ("x", "y", "z"))
        with pytest.raises(SchemaError) as compiled_err:
            CompiledEngine(db).execute(plan)
        with pytest.raises(SchemaError) as interpreted_err:
            Engine(db).execute(plan)
        assert str(compiled_err.value) == str(interpreted_err.value)

    def test_cross_product(self, db):
        plan = Join(Scan("edge", ("a", "b")), Scan("edge", ("c", "d")))
        assert assert_parity(plan, db).cardinality == 36

    def test_filter_join_no_new_columns(self, db):
        # Right side contributes no extra columns: pure filter.
        plan = Join(Scan("edge", ("x", "y")), Scan("edge", ("x", "y")))
        assert assert_parity(plan, db).cardinality == 6

    def test_generic_hash_join_both_build_sides(self, db):
        chain = Join(Scan("edge", ("a", "b")), Scan("edge", ("b", "c")))
        assert_parity(chain, db)
        # Skew the sides so each build-on-smaller branch is exercised.
        skewed = Database(
            {
                "small": Relation(("a", "b"), [(1, 2)]),
                "big": Relation(
                    ("b", "c"), [(2, i) for i in range(10)] + [(9, 9)]
                ),
            }
        )
        left_small = Join(Scan("small", ("a", "b")), Scan("big", ("b", "c")))
        right_small = Join(Scan("big", ("b", "c")), Scan("small", ("a", "b")))
        assert assert_parity(left_small, skewed).cardinality == 10
        assert assert_parity(right_small, skewed).cardinality == 10

    def test_semijoin(self, db):
        plan = Semijoin(
            Scan("edge", ("x", "y")),
            Scan("edge", ("y", "z")),
        )
        assert_parity(plan, db)

    def test_semijoin_degenerate_no_shared_columns(self, db):
        plan = Semijoin(Scan("edge", ("x", "y")), Scan("edge", ("u", "v")))
        assert assert_parity(plan, db).cardinality == 6
        empty = Database(
            {
                "edge": db.get("edge"),
                "nothing": Relation(("u", "v")),
            }
        )
        gated = Semijoin(Scan("edge", ("x", "y")), Scan("nothing", ("u", "v")))
        assert assert_parity(gated, empty).cardinality == 0

    def test_fused_project_over_join(self, db):
        plan = Project(
            Join(Scan("edge", ("a", "b")), Scan("edge", ("b", "c"))),
            ("a", "c"),
        )
        assert_parity(plan, db)

    def test_fused_project_over_join_left_columns_only(self, db):
        plan = Project(
            Join(Scan("edge", ("a", "b")), Scan("edge", ("b", "c"))),
            ("a",),
        )
        assert_parity(plan, db)

    def test_fused_project_over_cross_product(self, db):
        plan = Project(
            Join(Scan("edge", ("a", "b")), Scan("edge", ("c", "d"))),
            ("a", "d"),
        )
        assert_parity(plan, db)

    def test_fused_project_over_semijoin(self, db):
        plan = Project(
            Semijoin(Scan("edge", ("x", "y")), Scan("edge", ("y", "z"))),
            ("x",),
        )
        assert_parity(plan, db)

    def test_boolean_zero_arity_projection(self, db):
        plan = Project(
            Join(Scan("edge", ("a", "b")), Scan("edge", ("b", "c"))), ()
        )
        result = assert_parity(plan, db)
        assert result.arity == 0
        assert result.cardinality == 1  # nonempty Boolean answer

    def test_identity_projection(self, db):
        plan = Project(Scan("edge", ("x", "y")), ("x", "y"))
        assert_parity(plan, db)

    def test_reordering_projection(self, db):
        plan = Project(Scan("edge", ("x", "y")), ("y", "x"))
        assert_parity(plan, db)


class TestPlannedQueries:
    QUERY = parse_rule("q(A) :- edge(A, B), edge(B, C), edge(C, D).")

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("cache", [False, True])
    def test_every_method_matches_interpreted(self, db, method, cache):
        plan = plan_query(self.QUERY, method, rng=random.Random(0))
        assert_parity(plan, db, cache=cache)

    def test_fusion_builds_fewer_rows(self, db):
        # The wide Project-over-Join intermediates are never materialized.
        plan = plan_query(self.QUERY, "straightforward", rng=random.Random(0))
        _, istats = Engine(db, plan_cache_size=0).execute_with_stats(plan)
        _, cstats = CompiledEngine(db, plan_cache_size=0).execute_with_stats(plan)
        assert cstats.total_intermediate_tuples == istats.total_intermediate_tuples
        assert cstats.rows_built < istats.rows_built


class TestCacheSemantics:
    QUERY = parse_rule("q(A) :- edge(A, B), edge(B, C), edge(C, D).")

    def test_cache_hits_replay_logical_stats(self, db):
        plan = plan_query(self.QUERY, "bucket", rng=random.Random(0))
        _, uncached = CompiledEngine(db, plan_cache_size=0).execute_with_stats(
            plan
        )
        engine = CompiledEngine(db)
        engine.execute(plan)  # warm
        _, warm = engine.execute_with_stats(plan)
        for counter in LOGICAL:
            assert getattr(warm, counter) == getattr(uncached, counter), counter
        assert warm.arity_trace == uncached.arity_trace
        assert warm.cache_hits > 0
        assert warm.rows_built == 0

    def test_shared_subtree_hits_once(self, db):
        scan = Scan("edge", ("a", "b"))
        stats = ExecutionStats()
        CompiledEngine(db).execute(Join(scan, scan), stats=stats)
        assert stats.cache_hits == 1
        assert stats.scans == 2  # replayed, matching an uncached run

    def test_disabled_cache_reports_no_traffic(self, db):
        plan = plan_query(self.QUERY, "bucket", rng=random.Random(0))
        engine = CompiledEngine(db, plan_cache_size=0)
        stats = ExecutionStats()
        engine.execute(plan, stats=stats)
        engine.execute(plan, stats=stats)
        assert stats.cache_hits == 0
        assert stats.cache_misses == 0

    def test_generation_invalidates_compiled_code_and_cache(self, db):
        plan = Scan("edge", ("x", "y"))
        engine = CompiledEngine(db)
        assert engine.execute(plan).cardinality == 6
        unit = engine._compile(plan)
        db.replace("edge", Relation(("u", "w"), [(1, 2)]))
        # Scans read base rows through the catalog at run time: the
        # cached result goes, the unit (same columns) stays and sees
        # the new rows.
        assert engine.execute(plan).cardinality == 1
        assert engine._compile(plan) is unit

    def test_lru_bound_holds(self, db):
        engine = CompiledEngine(db, plan_cache_size=2)
        for i in range(5):
            engine.execute(Scan("edge", (f"v{i}", "w")))
        assert len(engine._cache) <= 2

    def test_clear_helpers(self, db):
        engine = CompiledEngine(db)
        engine.execute(Scan("edge", ("x", "y")))
        assert engine._cache and engine._units
        engine.clear_plan_cache()
        assert not engine._cache and engine._units
        engine.clear_compiled()
        assert not engine._units

    def test_negative_cache_size_rejected(self, db):
        with pytest.raises(ValueError):
            CompiledEngine(db, plan_cache_size=-1)

    def test_plan_cache_enabled_property(self, db):
        assert CompiledEngine(db).plan_cache_enabled
        assert not CompiledEngine(db, plan_cache_size=0).plan_cache_enabled


class TestRegistry:
    def test_engine_names(self):
        assert ENGINE_NAMES == ("compiled", "interpreted", "vectorized")
        assert set(ENGINES) == set(ENGINE_NAMES)

    def test_make_engine_by_name(self, db):
        assert isinstance(make_engine("interpreted", db), Engine)
        assert isinstance(make_engine("compiled", db), CompiledEngine)
        vectorized = make_engine("vectorized", db)
        assert isinstance(vectorized, VectorizedEngine)
        assert isinstance(vectorized, CompiledEngine)
        assert type(make_engine("compiled", db)) is CompiledEngine
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("jitted", db)

    @pytest.mark.parametrize("name", ["compiled", "vectorized"])
    @pytest.mark.parametrize("algorithm", [sort_merge_join, nested_loop_join])
    def test_compiled_rejects_non_hash_join(self, db, name, algorithm):
        with pytest.raises(ValueError, match="hash-join"):
            make_engine(name, db, join_algorithm=algorithm)

    def test_evaluate_engine_kwarg(self, db):
        plan = Project(
            Join(Scan("edge", ("a", "b")), Scan("edge", ("b", "c"))), ("a",)
        )
        interpreted, _ = evaluate(plan, db)
        compiled, _ = evaluate(plan, db, engine="compiled")
        assert compiled == interpreted

    def test_compiled_evaluate_helper(self, db):
        plan = Scan("edge", ("x", "y"))
        result, stats = compiled_evaluate(plan, db)
        assert result.cardinality == 6
        assert stats.scans == 1
