"""The vectorized columnar execution backend.

The vectorized engine inherits the compiled engine's contract — identical
relations and identical logical work counters to the interpreted engine,
``rows_built`` never higher — and adds a physical one of its own: unit
payloads are dictionary-encoded column batches, and every kernel except
projection relies on the distinctness invariant (joins of distinct inputs
are distinct, scans and semijoins preserve distinctness) to skip per-row
hashing.  This module pins:

- every operator shape on the vectorized kernels (zero-copy scans, fused
  selections, cross products, filter joins, generic joins on both build
  sides, semijoins, fused projections, Boolean outputs);
- encoding round-trips for non-integer and mixed-type values;
- the statically-empty path for constants that were never interned;
- ``rows_built`` never above the row-compiled engine's (chain pipeline
  fusion skips materializations the row lowering still performs, so the
  vectorized physical counter may only ever be lower);
- cache replay and catalog-generation invalidation on the batch payloads,
  and a warm hit that returns the root's decoded answer without decoding;
- what lowering pays once: one code object per pipeline *signature*,
  shared through a bounded process-wide cache, and array-side build
  structures only on a unit's first array-path call;
- what a cold pass lowers: only units that run, not many more objects
  for the cyclic collector to track per unit than the row lowering, and
  nothing left for it to free once the engine is dropped;
- the array kernels' key forms (bit-packed ``int64`` while the interning
  pool fits, void records past it, kept right sides probed in the form
  they were built in) and a chain's live-column gathers.

The hypothesis-driven three-way differential lives in
``tests/test_compiled_differential.py``.
"""

import builtins
import gc
import itertools
import random
import weakref

import pytest

from repro.core.planner import METHODS, plan_query
from repro.datalog import parse_rule
from repro.errors import SchemaError
from repro.plans import Join, Project, Scan, Semijoin
from repro.relalg import columnar, compiled
from repro.relalg.columnar import numpy_module
from repro.relalg.compiled import (
    ENGINE_NAMES,
    CompiledEngine,
    VectorizedEngine,
    make_engine,
)
from repro.relalg.database import Database, edge_database
from repro.relalg.engine import Engine
from repro.relalg.relation import Relation
from repro.relalg.stats import ExecutionStats
from repro.workloads import graphs
from repro.workloads.coloring import coloring_instance

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
    """Vectorized output and logical stats match the interpreter's;
    physical rows built never exceed the row-compiled engine's (chain
    pipeline fusion skips materializations the row lowering performs)."""
    size = 128 if cache else 0
    expected, istats = Engine(
        database, plan_cache_size=size
    ).execute_with_stats(plan)
    got, vstats = VectorizedEngine(
        database, plan_cache_size=size
    ).execute_with_stats(plan)
    assert got == expected
    assert got.columns == expected.columns
    for counter in LOGICAL:
        assert getattr(vstats, counter) == getattr(istats, counter), counter
    assert vstats.arity_trace == istats.arity_trace
    assert vstats.rows_built <= istats.rows_built
    _, cstats = CompiledEngine(
        database, plan_cache_size=size
    ).execute_with_stats(plan)
    assert vstats.rows_built <= cstats.rows_built
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
        result = assert_parity(Scan("r", ("x", "x")), db)
        assert result == Relation(("x",), [(1,), (3,)])

    def test_scan_with_never_interned_constant_is_empty(self, db):
        # "no-such-value" never occurs in any relation, so the compiled
        # selection vector is statically empty — and looking the constant
        # up must not grow the global value pool.
        from repro.relalg.columnar import _interned_pool_size, lookup_code

        plan = Scan("edge", ("y",), constants=((0, "no-such-value"),))
        db.get("edge").columnar()  # intern the base values up front
        before = _interned_pool_size()
        result = assert_parity(plan, db)
        assert result.cardinality == 0
        assert lookup_code("no-such-value") is None
        assert _interned_pool_size() == before

    def test_scan_arity_mismatch_raises_same_error(self, db):
        plan = Scan("edge", ("x", "y", "z"))
        with pytest.raises(SchemaError) as vectorized_err:
            VectorizedEngine(db).execute(plan)
        with pytest.raises(SchemaError) as interpreted_err:
            Engine(db).execute(plan)
        assert str(vectorized_err.value) == str(interpreted_err.value)

    def test_boolean_all_constant_scan(self, db):
        # Arity-0 scan: many base rows collapse to one empty tuple.
        plan = Scan("edge", (), constants=((0, 1), (1, 2)))
        result = assert_parity(plan, db)
        assert result.arity == 0
        assert result.cardinality == 1

    def test_cross_product(self, db):
        plan = Join(Scan("edge", ("a", "b")), Scan("edge", ("c", "d")))
        assert assert_parity(plan, db).cardinality == 36

    def test_filter_join_no_new_columns(self, db):
        plan = Join(Scan("edge", ("x", "y")), Scan("edge", ("x", "y")))
        assert assert_parity(plan, db).cardinality == 6

    def test_generic_hash_join_both_build_sides(self, db):
        chain = Join(Scan("edge", ("a", "b")), Scan("edge", ("b", "c")))
        assert_parity(chain, db)
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

    def test_multi_column_join_key(self):
        db = Database(
            {
                "r": Relation(("a", "b", "c"), [(1, 2, 3), (1, 3, 4), (2, 2, 5)]),
                "s": Relation(("a", "b", "d"), [(1, 2, 7), (2, 2, 8), (9, 9, 9)]),
            }
        )
        plan = Join(Scan("r", ("a", "b", "c")), Scan("s", ("a", "b", "d")))
        assert assert_parity(plan, db).cardinality == 2

    def test_semijoin(self, db):
        plan = Semijoin(Scan("edge", ("x", "y")), Scan("edge", ("y", "z")))
        assert_parity(plan, db)

    def test_semijoin_degenerate_no_shared_columns(self, db):
        plan = Semijoin(Scan("edge", ("x", "y")), Scan("edge", ("u", "v")))
        assert assert_parity(plan, db).cardinality == 6
        empty = Database(
            {"edge": db.get("edge"), "nothing": Relation(("u", "v"))}
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
            Join(Scan("edge", ("a", "b")), Scan("edge", ("b", "c"))), ("a",)
        )
        assert_parity(plan, db)

    def test_fused_project_over_cross_product(self, db):
        plan = Project(
            Join(Scan("edge", ("a", "b")), Scan("edge", ("c", "d"))),
            ("a", "d"),
        )
        assert_parity(plan, db)
        left_only = Project(
            Join(Scan("edge", ("a", "b")), Scan("edge", ("c", "d"))), ("a",)
        )
        assert_parity(left_only, db)

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
        assert result.cardinality == 1

    def test_identity_projection(self, db):
        assert_parity(Project(Scan("edge", ("x", "y")), ("x", "y")), db)

    def test_reordering_projection(self, db):
        assert_parity(Project(Scan("edge", ("x", "y")), ("y", "x")), db)


class TestEncoding:
    def test_mixed_value_types_round_trip(self):
        db = Database(
            {
                "r": Relation(
                    ("a", "b"),
                    [("x", 1), ("y", 2.5), (("t", 0), None), ("x", "x")],
                ),
                "s": Relation(("b", "c"), [(1, "one"), (None, "none")]),
            }
        )
        plan = Join(Scan("r", ("a", "b")), Scan("s", ("b", "c")))
        assert_parity(plan, db)

    def test_result_carries_columnar_payload(self, db):
        plan = Project(
            Join(Scan("edge", ("a", "b")), Scan("edge", ("b", "c"))), ("a",)
        )
        result = VectorizedEngine(db).execute(plan)
        store = result._colstore
        assert store is not None
        assert store.cardinality == result.cardinality
        # The attached store decodes back to exactly the result rows.
        assert result.columnar() is store

    def test_codes_are_globally_comparable(self, db):
        # The same value interned through two different relations gets
        # one code — which is what lets joins compare raw ints.
        from repro.relalg.columnar import encode_value

        db.get("edge").columnar()
        other = Relation(("u",), [(1,)])
        other.columnar()
        assert encode_value(1) == encode_value(1)


class TestPlannedQueries:
    QUERY = parse_rule("q(A) :- edge(A, B), edge(B, C), edge(C, D).")

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("cache", [False, True])
    def test_every_method_matches_interpreted(self, db, method, cache):
        plan = plan_query(self.QUERY, method, rng=random.Random(0))
        assert_parity(plan, db, cache=cache)

    def test_fusion_builds_fewer_rows(self, db):
        plan = plan_query(self.QUERY, "straightforward", rng=random.Random(0))
        _, istats = Engine(db, plan_cache_size=0).execute_with_stats(plan)
        _, vstats = VectorizedEngine(
            db, plan_cache_size=0
        ).execute_with_stats(plan)
        assert vstats.total_intermediate_tuples == istats.total_intermediate_tuples
        assert vstats.rows_built < istats.rows_built


class TestCacheSemantics:
    QUERY = parse_rule("q(A) :- edge(A, B), edge(B, C), edge(C, D).")

    def test_cache_hits_replay_logical_stats(self, db):
        plan = plan_query(self.QUERY, "bucket", rng=random.Random(0))
        _, uncached = VectorizedEngine(
            db, plan_cache_size=0
        ).execute_with_stats(plan)
        engine = VectorizedEngine(db)
        engine.execute(plan)  # warm
        result, warm = engine.execute_with_stats(plan)
        for counter in LOGICAL:
            assert getattr(warm, counter) == getattr(uncached, counter), counter
        assert warm.arity_trace == uncached.arity_trace
        assert warm.cache_hits > 0
        assert warm.rows_built == 0
        assert result == Engine(db).execute(plan)

    def test_shared_subtree_hits_once(self, db):
        scan = Scan("edge", ("a", "b"))
        stats = ExecutionStats()
        VectorizedEngine(db).execute(Join(scan, scan), stats=stats)
        assert stats.cache_hits == 1
        assert stats.scans == 2  # replayed, matching an uncached run

    def test_warm_hit_returns_the_decoded_answer(self, db, monkeypatch):
        # The root's cache entry keeps the decoded answer beside its
        # batch; a parent that hits the same entry still gets the batch.
        plan = plan_query(self.QUERY, "bucket", rng=random.Random(0))
        engine = VectorizedEngine(db)
        first, cold = engine.execute_with_stats(plan)
        decoded = []
        decode = compiled._decode_batch
        monkeypatch.setattr(
            compiled, "_decode_batch", lambda *args: decoded.append(1) or decode(*args)
        )
        again, warm = engine.execute_with_stats(plan)
        assert decoded == []
        assert again == first == Engine(db).execute(plan)
        for counter in LOGICAL:
            assert getattr(warm, counter) == getattr(cold, counter), counter
        assert warm.arity_trace == cold.arity_trace
        parent = Project(Join(plan, Scan("edge", ("A", "Z"))), ("Z",))
        result, stats = engine.execute_with_stats(parent)
        expected, expected_stats = Engine(db).execute_with_stats(parent)
        assert stats.cache_hits > 0
        assert result == expected
        for counter in LOGICAL:
            assert getattr(stats, counter) == getattr(expected_stats, counter)

    def test_generation_invalidates_compiled_batches(self, db):
        plan = Scan("edge", ("x", "y"))
        engine = VectorizedEngine(db)
        assert engine.execute(plan).cardinality == 6
        unit = engine._compile(plan)
        db.replace("edge", Relation(("u", "w"), [(10, 20)]))
        # Scans fold the column store of whatever relation the catalog
        # holds at run time: same unit, new batch.
        result = engine.execute(plan)
        assert result == Relation(("x", "y"), [(10, 20)])
        assert engine._compile(plan) is unit


def logical(stats: ExecutionStats) -> tuple:
    return tuple(getattr(stats, counter) for counter in LOGICAL) + (
        stats.arity_trace,
    )


#: The ``cold_pipeline`` workload's ten rows at a smaller order: Boolean
#: 3-COLOR queries over the paper's graph families, whose bucket and
#: early-projection plans lower almost entirely to fused chains.
COLD_ROWS = (
    ("ladder", 6, "bucket"),
    ("ladder", 9, "bucket"),
    ("augmented_ladder", 6, "bucket"),
    ("augmented_ladder", 9, "bucket"),
    ("augmented_circular_ladder", 6, "bucket"),
    ("augmented_path", 6, "bucket"),
    ("augmented_path", 9, "bucket"),
    ("ladder", 6, "early"),
    ("ladder", 9, "early"),
    ("cycle", 7, "bucket"),
)


def cold_plans():
    return [
        plan_query(
            coloring_instance(getattr(graphs, family)(order)).query,
            method,
            rng=random.Random(0),
        )
        for family, order, method in COLD_ROWS
    ]


def run_fresh(plans):
    """Every plan on a new engine over a new catalog: first execution of
    its shape as far as the engine can tell."""
    return [
        VectorizedEngine(edge_database(), plan_cache_size=0).execute_with_stats(plan)
        for plan in plans
    ]


class TestPipelineCodeCache:
    """Generated chain kernels are positional, so one code object per
    distinct signature serves every unit, engine and catalog."""

    @pytest.mark.parametrize("use_numpy", [True, False])
    def test_cache_hit_equals_miss(self, monkeypatch, use_numpy):
        if not use_numpy:
            monkeypatch.setattr(columnar, "_numpy", None)
        elif numpy_module() is None:
            pytest.skip("numpy is not installed")
        plans = cold_plans()
        compiled._pipeline_code.cache_clear()
        missed = run_fresh(plans)
        compiled_once = compiled._pipeline_code.cache_info().misses
        assert compiled_once > 0
        hit = run_fresh(plans)
        assert compiled._pipeline_code.cache_info().misses == compiled_once
        for plan, (cold, cold_stats), (warm, warm_stats) in zip(plans, missed, hit):
            expected, expected_stats = Engine(
                edge_database(), plan_cache_size=0
            ).execute_with_stats(plan)
            assert cold == warm == expected
            assert logical(cold_stats) == logical(warm_stats) == logical(
                expected_stats
            )
            assert cold_stats.rows_built == warm_stats.rows_built

    def test_one_code_object_per_distinct_source(self, monkeypatch):
        # One kernel per pipeline unit, its source rendered and compiled
        # once per distinct signature.
        signatures = []
        rendered = []
        cached = compiled._pipeline_code
        real_compile = builtins.compile

        def recording(signature):
            signatures.append(signature)
            return cached(signature)

        def counting_compile(source, filename, *args, **kwargs):
            if filename == "<repro.relalg.pipeline>":
                rendered.append(source)
            return real_compile(source, filename, *args, **kwargs)

        monkeypatch.setattr(compiled, "_pipeline_code", recording)
        monkeypatch.setattr(builtins, "compile", counting_compile)
        plans = cold_plans()
        cached.cache_clear()
        run_fresh(plans)
        first = cached.cache_info()
        kernels = len(signatures)
        assert len(rendered) == len(set(rendered)) == len(set(signatures))
        assert first.misses == len(set(signatures)) == first.currsize
        assert first.misses < kernels  # signatures repeat within one pass
        assert first.hits == kernels - first.misses
        run_fresh(plans)
        second = cached.cache_info()
        assert second.misses == first.misses  # nothing rendered again
        assert second.hits == first.hits + kernels
        assert len(rendered) == first.misses

    def test_writes_generate_no_kernel(self):
        # The kernel is lowered once per unit, not once per version of
        # its data: after a write the same units run again, and neither
        # a source text nor a code object is asked for.
        database = edge_database()
        plans = cold_plans()[:4]
        engine = VectorizedEngine(database, plan_cache_size=0)
        for plan in plans:
            engine.execute(plan)
        before = compiled._pipeline_code.cache_info()
        for colour in (4, 5):
            database.insert_rows("edge", [(colour, 1), (1, colour)])
            for plan in plans:
                result, stats = engine.execute_with_stats(plan)
                expected, expected_stats = Engine(
                    database, plan_cache_size=0
                ).execute_with_stats(plan)
                assert result == expected
                assert logical(stats) == logical(expected_stats)
        assert compiled._pipeline_code.cache_info() == before

    def test_cache_is_bounded(self):
        # Chains of 8 stages, each a join or a semijoin against a scan,
        # bare and under a projection: 2 * 2**8 plans of one pipeline
        # each, 512 distinct kernel signatures, twice the cache's bound.
        bound = compiled._PIPE_CODE_CACHE_SIZE
        rows = [(i, (i + 1) % 5) for i in range(5)] + [(0, 2), (3, 1)]
        database = Database({"e": Relation(("a", "b"), rows)})
        plans = []
        for kinds in itertools.product((Join, Semijoin), repeat=8):
            plan = Scan("e", ("x0", "x1"))
            last = 1
            for stage, kind in enumerate(kinds):
                if kind is Join:
                    right = Scan("e", (f"x{last}", f"x{last + 1}"))
                    last += 1
                else:
                    right = Scan("e", (f"x{last}", f"y{stage}"))
                plan = kind(plan, right)
            plans += [plan, Project(plan, ("x0",))]
        cached = compiled._pipeline_code
        cached.cache_clear()
        engine = VectorizedEngine(database, plan_cache_size=0)
        reference = Engine(database, plan_cache_size=0)
        for index, plan in enumerate(plans):
            result, stats = engine.execute_with_stats(plan)
            if index % 16 == 0:
                expected, expected_stats = reference.execute_with_stats(plan)
                assert result == expected
                assert logical(stats) == logical(expected_stats)
        info = cached.cache_info()
        assert info.maxsize == bound
        assert info.misses == 2 * bound
        assert info.currsize == bound


def lowered_units(engine) -> list:
    """Every unit ``engine`` holds."""
    return [unit for unit, _ in engine._units._entries.values()]


class TestLoweringCounts:
    """Fusion is decided from the plan before any unit is built, so a
    cold pass lowers only what runs, and a unit holds few objects."""

    def test_every_lowered_unit_is_reached(self, numpy_mode):
        # Reached from the root through children, or as a pipeline's
        # stage: a chain's interior joins get no unit of their own.
        pipelines = 0
        for plan in cold_plans():
            engine = VectorizedEngine(edge_database())
            engine.execute(plan)
            reached, stack = {}, [engine._compile(plan)]
            while stack:
                unit = stack.pop()
                if id(unit) not in reached:
                    reached[id(unit)] = unit
                    stack.extend(unit.children + unit.stages)
            assert set(reached) == {id(unit) for unit in lowered_units(engine)}
            pipelines += sum(1 for unit in reached.values() if unit.stages)
        assert pipelines > 0

    @staticmethod
    def tracked_per_unit(engine_cls, plans) -> float:
        databases = [edge_database() for _ in plans]
        gc.collect()
        before = len(gc.get_objects())
        engines = [engine_cls(database, plan_cache_size=0) for database in databases]
        for engine, plan in zip(engines, plans):
            engine.execute(plan)
        gc.collect()
        held = len(gc.get_objects()) - before
        return held / sum(len(lowered_units(engine)) for engine in engines)

    def test_units_hold_few_tracked_objects(self):
        plans = cold_plans()
        for engine_cls in (CompiledEngine, VectorizedEngine):
            self.tracked_per_unit(engine_cls, plans)  # process-wide memos
        compiled_units = self.tracked_per_unit(CompiledEngine, plans)
        vectorized_units = self.tracked_per_unit(VectorizedEngine, plans)
        assert vectorized_units <= 1.5 * compiled_units

    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_a_dropped_engine_needs_no_collector(self, engine_name, numpy_mode):
        # Nothing an engine builds is in a reference cycle: dropping it
        # frees its catalog at once, and leaves no garbage behind.
        plans = cold_plans()
        gc.collect()
        gc.disable()
        try:
            database = edge_database()
            engine = make_engine(engine_name, database)
            for plan in plans:
                engine.execute(plan)
            catalog = weakref.ref(database)
            del engine, database
            assert catalog() is None
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.mark.skipif(numpy_module() is None, reason="the array path needs numpy")
class TestOnDemandArrayStructures:
    """Array-path build sides over scan-unit right children are built by
    the first call that takes the array path over a given version of
    the child's relation — never at lowering time."""

    def test_small_batches_never_build_them(self, db, array_builds):
        query = parse_rule("q(A) :- edge(A, B), edge(B, C), edge(C, D).")
        plans = cold_plans()[:3] + [
            plan_query(query, method, rng=random.Random(0)) for method in METHODS
        ]
        engine = VectorizedEngine(db, plan_cache_size=0)
        for plan in plans:
            for _ in range(2):
                assert engine.execute(plan) == Engine(db).execute(plan)
        assert array_builds == []

    @staticmethod
    def fanout_database() -> Database:
        """40 source rows that a 20-way fan-out turns into 800: a chain
        that starts under the array threshold and crosses it at its
        first stage."""
        return Database(
            {
                "src": Relation(("z", "a"), [(i, i % 40) for i in range(40)]),
                "fan": Relation(
                    ("a", "b"),
                    [(a, 100 + a * 20 + k) for a in range(40) for k in range(20)],
                ),
                "keep": Relation(
                    ("b", "c"), [(100 + i, i % 3) for i in range(0, 800, 2)]
                ),
            }
        )

    @pytest.mark.parametrize("top", ["bare", "project"])
    def test_mid_flight_restart_builds_them_once(self, array_builds, top):
        database = self.fanout_database()
        chain = Semijoin(
            Join(Scan("src", ("z", "a")), Scan("fan", ("a", "b"))),
            Scan("keep", ("b", "c")),
        )
        plan = chain if top == "bare" else Project(chain, ("z",))
        assert database.get("src").cardinality < compiled._ARRAY_MIN
        engine = VectorizedEngine(database, plan_cache_size=0)
        unit = engine._compile(plan)
        assert array_builds == []  # lowering built nothing array-side
        expected, expected_stats = Engine(
            database, plan_cache_size=0
        ).execute_with_stats(plan)
        row_compiled, row_stats = CompiledEngine(
            database, plan_cache_size=0
        ).execute_with_stats(plan)
        for execution in range(3):
            result, stats = engine.execute_with_stats(plan)
            assert result == expected == row_compiled
            assert logical(stats) == logical(expected_stats) == logical(row_stats)
            # One index per stage, built by the execution that tripped
            # the restart guard and kept for the ones after it.
            assert sorted(array_builds) == ["_npjoin_index", "_npsorted_keys"]
            assert unit.fn.__globals__["_mode"] == [1]  # sticky from then on

    def test_standalone_kernel_builds_its_index_once(self, array_builds):
        database = self.fanout_database()
        # Not a chain (the left side is a projection, a fusion barrier),
        # so the join runs as a standalone kernel over a constant right
        # child at or above the threshold.
        plan = Join(
            Project(Scan("src", ("z", "a")), ("a",)), Scan("fan", ("a", "b"))
        )
        engine = VectorizedEngine(database, plan_cache_size=0)
        engine._compile(plan)
        assert array_builds == []
        for _ in range(3):
            assert engine.execute(plan) == Engine(database).execute(plan)
        assert array_builds == ["_npjoin_index"]


@pytest.mark.skipif(numpy_module() is None, reason="the array path needs numpy")
class TestPackedKeys:
    """A k-column key is its codes bit-packed into one ``int64``
    (``63 // k`` bits each) while the interning pool fits that width,
    void records over a larger pool.  A right side kept in a cell keeps
    the form it was built in, and a probe follows that form, not the
    pool: here 8- and 9-column keys (7 bits, a 128-code boundary) on
    every array kernel, before the pool crosses the boundary, after an
    unrelated relation pushes it across (the right sides stay packed and
    left rows holding codes >= 128 alias packed keys unless they are
    kept out), and after the right side is rewritten (rebuilt void)."""

    KEY = tuple(f"k{j}" for j in range(8))

    def plans(self) -> list:
        left = Scan("l", self.KEY + ("x",))
        right = Scan("r", self.KEY + ("y",))
        join = Join(left, right)
        return [
            join,
            Semijoin(left, right),
            Project(join, self.KEY),  # left-only projection: 8-column dedup
            Project(join, ("x", "y")),
            Semijoin(join, right),  # a two-stage chain, 9-column key
        ]

    @staticmethod
    def assert_matches_interpreter(engine, plans, database) -> None:
        for plan in plans:
            result, stats = engine.execute_with_stats(plan)
            expected, expected_stats = Engine(
                database, plan_cache_size=0
            ).execute_with_stats(plan)
            assert result == expected
            assert logical(stats) == logical(expected_stats)

    def test_forms_across_pool_growth(self, monkeypatch, array_builds):
        np = numpy_module()
        monkeypatch.setattr(compiled, "_ARRAY_MIN", 1)
        columnar.clear_interning()
        for value in range(128):
            assert columnar.encode_value(value) == value  # code == value
        fill = (5, 5, 5, 5, 5, 5)
        database = Database(
            {
                "l": Relation(
                    self.KEY + ("x",),
                    [(1, c) + fill + (c % 3,) for c in range(0, 128, 2)]
                    + [(0, 0) + fill + (0,)],
                ),
                "r": Relation(
                    self.KEY + ("y",),
                    [(1, c) + fill + (c % 7,) for c in range(128)]
                    + [(2, 3, 4, 5, 6, 7, 8, 9, 10)],
                ),
            }
        )
        engine = VectorizedEngine(database, plan_cache_size=0)
        plans = self.plans()

        # 1. The pool fits: every key is packed.
        self.assert_matches_interpreter(engine, plans, database)
        assert columnar._interned_pool_size() == 128
        cols = database.get("l").columnar().arrays()
        assert compiled._npkeys(cols, tuple(range(8))).dtype == np.int64
        built = sorted(array_builds)
        assert built

        # 2. An unrelated relation grows the pool past 128; the left side
        # gains rows (0, w, ...) whose code c >= 128 packs like the right
        # row (1, c - 128, ...).  The right sides are kept, still packed.
        database.add("other", Relation(("u",), [(1000 + i,) for i in range(72)]))
        database.get("other").columnar()
        assert columnar._interned_pool_size() == 200
        aliases = [(0, 1000 + i) + fill + (1,) for i in range(72)]
        assert all(columnar.lookup_code(row[1]) >= 128 for row in aliases)
        database.insert_rows("l", aliases)
        del array_builds[:]
        self.assert_matches_interpreter(engine, plans, database)
        assert array_builds == []  # probed the structures built in phase 1
        cols = database.get("l").columnar().arrays()
        assert compiled._npkeys(cols, (0, 1)).dtype == np.int64
        assert compiled._npkeys(cols, tuple(range(8))).dtype.kind == "V"

        # 3. The right side is rewritten after the growth: rebuilt void,
        # and the alias rows now have a real partner.
        database.insert_rows("r", [(0, 1000) + fill + (2,)])
        self.assert_matches_interpreter(engine, plans, database)
        assert sorted(array_builds) == built
        result = engine.execute(plans[0])
        assert (0, 1000) + fill + (1, 2) in result.rows


@pytest.mark.skipif(numpy_module() is None, reason="the array path needs numpy")
class TestChainLiveness:
    """The array path of a fused chain carries a column only while a
    later stage's key or the chain's output still reads it."""

    QUERY = parse_rule(
        "q(X0, X4) :- "
        + ", ".join(f"edge(X{i}, X{i + 1})" for i in range(9))
        + "."
    )

    def run_recorded(self, monkeypatch, plan):
        """Executes ``plan`` three times on the array path; returns what
        each unit's :func:`_pipe_live` answered, in call order."""
        monkeypatch.setattr(compiled, "_ARRAY_MIN", 1)
        recorded = []
        live = compiled._pipe_live

        def recording(stages, project):
            recorded.append((stages, project, live(stages, project)))
            return recorded[-1][2]

        monkeypatch.setattr(compiled, "_pipe_live", recording)
        database = edge_database()
        engine = VectorizedEngine(database, plan_cache_size=0)
        for _ in range(3):
            result, stats = engine.execute_with_stats(plan)
            expected, expected_stats = Engine(
                database, plan_cache_size=0
            ).execute_with_stats(plan)
            assert result == expected
            assert logical(stats) == logical(expected_stats)
        return recorded

    def test_projected_chain_keeps_later_keys_and_output(
        self, monkeypatch, array_builds
    ):
        plan = plan_query(self.QUERY, "straightforward", rng=random.Random(0))
        assert isinstance(plan, Project)
        [(stages, project, kept)] = self.run_recorded(monkeypatch, plan)
        assert len(stages) == 8 and len(project) == 2
        for i, st in enumerate(stages):
            read = set(project).union(*(later.left_key for later in stages[i + 1:]))
            assert kept[i] == tuple(sorted(p for p in read if p < st.arity)), i
        assert sum(map(len, kept)) < sum(st.arity for st in stages)
        # One build side per stage, made once and kept across executions.
        assert array_builds == ["_npjoin_index"] * 8

    def test_bare_chain_keeps_every_column(self, monkeypatch, array_builds):
        plan = plan_query(self.QUERY, "straightforward", rng=random.Random(0)).child
        [(stages, project, kept)] = self.run_recorded(monkeypatch, plan)
        assert len(stages) == 8 and project is None
        assert kept == [tuple(range(st.arity)) for st in stages]
        assert array_builds == ["_npjoin_index"] * 8
