"""Selective cache retention under catalog mutations.

This suite pins the acceptance contract of the versioned-catalog layer:
after mutating one relation in a multi-relation catalog, cached entries
for plans that do *not* depend on it must still hit (``rows_built == 0``
on a fully warm rerun), while plans that do depend on it recompute and
observe the new data — on every engine name.  It also
covers the building blocks directly: :func:`repro.plans.dependencies`,
:class:`repro.relalg.cache.DependencyCache`,
:class:`repro.relalg.cache.CatalogVersionTracker`, and the uniform
``cache_info()``/``clear_cache()`` introspection surface.
"""

import builtins
from functools import partial

import pytest

from repro import parse_rule
from repro.errors import CatalogError, SchemaError
from repro.plans import Join, Project, Scan, Semijoin, dependencies
from repro.relalg import compiled
from repro.relalg.cache import CatalogVersionTracker, DependencyCache
from repro.relalg.columnar import clear_interning, numpy_module
from repro.relalg.compiled import VectorizedEngine, make_engine
from repro.relalg.database import Database, database_from_tuples
from repro.relalg.engine import Engine
from repro.relalg.relation import Relation
from repro.relalg.stats import ExecutionStats
from repro.service.prepared import PreparedStatement, canonicalize_query

from tests.relalg.test_vectorized_engine import logical

#: The caching engines by name: ``compiled`` and ``vectorized`` are one
#: class, and both names stay covered, under the test ids they have
#: always had.
CACHING_ENGINES = (
    pytest.param(partial(make_engine, "compiled"), id="CompiledEngine"),
    pytest.param(VectorizedEngine, id="VectorizedEngine"),
)
ENGINES = (pytest.param(Engine, id="Engine"),) + CACHING_ENGINES


def two_relation_db() -> Database:
    return database_from_tuples(
        {
            "r": (("a", "b"), [(1, 2), (2, 3), (3, 4)]),
            "s": (("c", "d"), [(10, 20), (20, 30)]),
        }
    )


def plan_over(name: str, cols=("x", "y")) -> Project:
    scan = Scan(name, cols)
    return Project(Join(scan, scan), (cols[0],))


# ----------------------------------------------------------------------
# dependencies(): the static footprint pass
# ----------------------------------------------------------------------
class TestDependencies:
    def test_scan_footprint(self):
        assert dependencies(Scan("edge", ("a", "b"))) == ("edge",)

    def test_join_union_is_sorted_and_distinct(self):
        plan = Join(
            Join(Scan("s", ("a", "b")), Scan("r", ("b", "c"))),
            Scan("s", ("c", "d")),
        )
        assert dependencies(plan) == ("r", "s")

    def test_single_relation_plans_share_one_footprint(self):
        # Hash-consing: every node over the same single relation shares
        # one tuple object, so version-vector memos hit on identity.
        left = Scan("edge", ("a", "b"))
        plan = Project(Join(left, Scan("edge", ("b", "c"))), ("a",))
        assert dependencies(plan) is dependencies(left)

    def test_parent_footprint_contains_children(self):
        left = Scan("r", ("a", "b"))
        right = Scan("s", ("b", "c"))
        parent = Join(left, right)
        for child in (left, right):
            assert set(dependencies(child)) <= set(dependencies(parent))

    def test_memoized_per_node(self):
        plan = Join(Scan("r", ("a", "b")), Scan("s", ("b", "c")))
        assert dependencies(plan) is dependencies(plan)

    def test_deep_plan_is_linear(self):
        plan = Scan("r0", ("x", "y"))
        for i in range(1, 3000):
            plan = Join(plan, Scan(f"r{i % 5}", ("y", "z")))
        assert dependencies(plan) == ("r0", "r1", "r2", "r3", "r4")


# ----------------------------------------------------------------------
# DependencyCache: the reverse-indexed LRU memo
# ----------------------------------------------------------------------
class TestDependencyCache:
    def test_get_counts_hits_and_misses(self):
        cache = DependencyCache(4)
        assert cache.get("k") is None
        cache.put("k", "v", ("r",))
        assert cache.get("k") == "v"
        assert (cache.hits, cache.misses) == (1, 1)

    def test_peek_does_not_count(self):
        cache = DependencyCache(4)
        cache.put("k", "v", ("r",))
        assert cache.peek("k") == "v"
        assert cache.peek("absent") is None
        assert (cache.hits, cache.misses) == (0, 0)

    def test_evict_dependents_is_selective(self):
        cache = DependencyCache(8)
        cache.put("kr", 1, ("r",))
        cache.put("ks", 2, ("s",))
        cache.put("krs", 3, ("r", "s"))
        assert cache.evict_dependents({"r"}) == 2
        assert cache.peek("kr") is None
        assert cache.peek("krs") is None
        assert cache.peek("ks") == 2
        assert cache.evictions == 2
        # The r/s buckets no longer reference the dropped keys: a later
        # eviction of s drops only the surviving entry.
        assert cache.evict_dependents({"s"}) == 1
        assert len(cache) == 0

    def test_evict_unknown_name_is_noop(self):
        cache = DependencyCache(4)
        cache.put("k", "v", ("r",))
        assert cache.evict_dependents({"zzz"}) == 0
        assert cache.peek("k") == "v"

    def test_lru_eviction_unindexes(self):
        cache = DependencyCache(2)
        cache.put("k1", 1, ("r",))
        cache.put("k2", 2, ("r",))
        cache.put("k3", 3, ("s",))  # evicts k1 (LRU)
        assert cache.peek("k1") is None
        assert cache.evictions == 1
        # k1's index entry is gone: evicting r drops only k2.
        assert cache.evict_dependents({"r"}) == 1
        assert cache.peek("k3") == 3

    def test_get_refreshes_lru_order(self):
        cache = DependencyCache(2)
        cache.put("k1", 1, ("r",))
        cache.put("k2", 2, ("r",))
        cache.get("k1")  # now k2 is least-recent
        cache.put("k3", 3, ("r",))
        assert cache.peek("k1") == 1
        assert cache.peek("k2") is None

    def test_replace_value_keeps_indexing(self):
        cache = DependencyCache(4)
        cache.put("k", "old", ("r",))
        cache.replace_value("k", "new")
        assert cache.peek("k") == "new"
        assert cache.evict_dependents({"r"}) == 1
        cache.replace_value("absent", "x")  # no-op
        assert cache.peek("absent") is None

    def test_clear_keeps_counters_reset_zeroes(self):
        cache = DependencyCache(4)
        cache.put("k", 1, ("r",))
        cache.get("k")
        cache.get("absent")
        assert cache.clear() == 1
        assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 1)
        cache.reset()
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)

    def test_unbounded_capacity(self):
        cache = DependencyCache(None)
        for i in range(100):
            cache.put(i, i, ("r",))
        assert len(cache) == 100 and cache.evictions == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            DependencyCache(-1)


# ----------------------------------------------------------------------
# CatalogVersionTracker: the engine-side observer
# ----------------------------------------------------------------------
class TestCatalogVersionTracker:
    def test_unchanged_catalog_reports_none(self):
        tracker = CatalogVersionTracker(two_relation_db())
        assert tracker.changed_relations() is None

    def test_names_exactly_the_mutated_relations(self):
        db = two_relation_db()
        tracker = CatalogVersionTracker(db)
        db.insert_rows("s", [(99, 100)])
        assert tracker.changed_relations() == {"s"}
        # Resynced: a second probe with no further writes is quiet.
        assert tracker.changed_relations() is None

    def test_names_dropped_relations(self):
        db = two_relation_db()
        tracker = CatalogVersionTracker(db)
        db.drop("s")
        assert tracker.changed_relations() == {"s"}
        assert tracker.vector(("r", "s"))[1] == 0
        db.add("s", db["r"])
        assert tracker.changed_relations() == {"s"}

    def test_vector_reflects_synced_snapshot(self):
        db = two_relation_db()
        tracker = CatalogVersionTracker(db)
        before = tracker.vector(("r", "s"))
        db.insert_rows("s", [(99, 100)])
        # Until the tracker syncs, vectors describe the snapshot state.
        assert tracker.vector(("r", "s")) == before
        tracker.changed_relations()
        after = tracker.vector(("r", "s"))
        assert after[0] == before[0] and after[1] > before[1]

    def test_vector_unknown_name_is_zero(self):
        tracker = CatalogVersionTracker(two_relation_db())
        assert tracker.vector(("nope",)) == (0,)


# ----------------------------------------------------------------------
# Selective retention through the engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_cls", ENGINES)
class TestSelectiveRetention:
    def test_untouched_relation_keeps_hitting(self, engine_cls):
        db = two_relation_db()
        engine = engine_cls(db)
        plan_r, plan_s = plan_over("r"), plan_over("s")
        answer_r = engine.execute(plan_r)
        engine.execute(plan_s)

        db.insert_rows("s", [(30, 40)])

        warm = ExecutionStats()
        assert engine.execute(plan_r, stats=warm) == answer_r
        assert warm.cache_hits > 0
        assert warm.cache_misses == 0
        assert warm.rows_built == 0

    def test_mutated_relation_recomputes(self, engine_cls):
        db = two_relation_db()
        engine = engine_cls(db)
        plan_s = plan_over("s")
        before = engine.execute(plan_s)
        db.insert_rows("s", [(30, 40)])
        after = engine.execute(plan_s)
        assert after != before
        assert (30,) in after.rows

    def test_noop_mutation_retains_everything(self, engine_cls):
        db = two_relation_db()
        engine = engine_cls(db)
        plan_s = plan_over("s")
        engine.execute(plan_s)
        assert db.insert_rows("s", [(10, 20)]) == 0  # already present
        assert db.delete_rows("s", [(77, 88)]) == 0  # absent
        warm = ExecutionStats()
        engine.execute(plan_s, stats=warm)
        assert warm.cache_hits > 0 and warm.rows_built == 0

    def test_replace_always_invalidates(self, engine_cls):
        db = two_relation_db()
        engine = engine_cls(db)
        plan_s = plan_over("s")
        engine.execute(plan_s)
        db.replace("s", db["s"])  # equal data, deliberate overwrite
        cold = ExecutionStats()
        engine.execute(plan_s, stats=cold)
        # Recomputed from scratch (intra-execution CSE hits on the
        # repeated scan aside): physical rows were rebuilt.
        assert cold.cache_misses > 0
        assert cold.rows_built > 0

    def test_delete_rows_observed(self, engine_cls):
        db = two_relation_db()
        engine = engine_cls(db)
        plan_s = plan_over("s")
        engine.execute(plan_s)
        db.delete_rows("s", [(10, 20)])
        after = engine.execute(plan_s)
        assert (10,) not in after.rows


@pytest.mark.parametrize("engine_cls", CACHING_ENGINES)
def test_compiled_units_survive_unrelated_mutations(engine_cls):
    """...and related ones: a unit is per plan shape and base schema, so
    a write to a relation of its footprint evicts the cached results
    over it and nothing else."""
    db = two_relation_db()
    engine = engine_cls(db)
    engine.execute(plan_over("r"))
    engine.execute(plan_over("s"))
    units_before = len(engine._units)
    unit_s = engine._compile(plan_over("s"))
    assert units_before > 0
    db.insert_rows("s", [(30, 40)])
    engine.execute(plan_over("r"))  # triggers the catalog sync
    assert len(engine._units) == units_before
    assert engine.cache_info().evictions > 0  # the results over s went
    assert (30,) in engine.execute(plan_over("s")).rows
    assert engine._compile(plan_over("s")) is unit_s
    assert len(engine._units) == units_before


@pytest.mark.parametrize("engine_cls", CACHING_ENGINES)
def test_clear_interning_drops_all_compiled_state(engine_cls):
    """The engine's batches and cells are made of dictionary codes, so a
    pool-epoch change drops its stores wholesale and the next execution
    lowers again under the new epoch, whichever name built it."""
    db = two_relation_db()
    engine = engine_cls(db)
    expected = engine.execute(plan_over("r"))
    assert len(engine._units) > 0
    stale = engine._compile(plan_over("r"))
    clear_interning()
    assert engine.execute(plan_over("r")) == expected
    assert len(engine._units) > 0
    assert engine._compile(plan_over("r")) is not stale


def test_clear_interning_rederives_probe_structures(monkeypatch, array_builds):
    """What a vectorized unit holds that is made of dictionary codes —
    scan batches, row probe dicts and sets, array-path indexes — is
    built again under the new epoch.  The generated kernel's code object
    is positional (no codes in it) and is the one thing that survives."""
    if numpy_module() is None:
        pytest.skip("array indexes need numpy")
    # Threshold 1: every batch takes the array path, so the on-demand
    # array indexes are built (and observable) on this tiny catalog.
    monkeypatch.setattr(compiled, "_ARRAY_MIN", 1)
    db = two_relation_db()
    chain = Project(
        Join(
            Join(Scan("r", ("x", "y")), Scan("r", ("y", "z"))),
            Scan("r", ("z", "w")),
        ),
        ("x",),
    )
    engine = VectorizedEngine(db, plan_cache_size=0)
    expected = engine.execute(chain)
    assert expected == Engine(db).execute(chain)
    per_epoch = len(array_builds)
    assert per_epoch > 0
    engine.execute(chain)
    assert len(array_builds) == per_epoch  # kept within an epoch

    stale = engine._compile(chain)
    stale_batch = stale.children[0].bound()
    clear_interning()
    assert engine.execute(chain) == expected
    fresh = engine._compile(chain)
    assert len(array_builds) == 2 * per_epoch  # array indexes built again
    assert fresh is not stale
    assert fresh.children[0].bound() is not stale_batch
    assert fresh.fn.__code__ is stale.fn.__code__
    old, new = stale.fn.__globals__, fresh.fn.__globals__
    cells = [name for name in old if name[:2] == "_p"]
    assert cells
    for name in cells + ["_finish", "_npfall", "_mode"]:
        assert new[name] is not old[name], name


# ----------------------------------------------------------------------
# Lower once, bind per version: what a write may and may not redo
# ----------------------------------------------------------------------
def chain_db() -> Database:
    return database_from_tuples(
        {
            "e0": (("a", "b"), [(i, (i * 3) % 7) for i in range(12)]),
            "e1": (("a", "b"), [(i % 7, (i * 5) % 11) for i in range(20)]),
            "e2": (("a", "b"), [(i % 11, i % 4) for i in range(25)]),
        }
    )


CHAIN_PLANS = (
    # A fused chain under a projection (one pipeline on the vectorized
    # engine), the same chain bare, a filtered and a repeated-variable
    # scan, a semijoin against a zero-copy scan, a folded projection.
    Project(
        Join(
            Join(Scan("e0", ("x0", "x1")), Scan("e1", ("x1", "x2"))),
            Scan("e2", ("x2", "x3")),
        ),
        ("x0",),
    ),
    Join(Scan("e0", ("x0", "x1")), Scan("e1", ("x1", "x2"))),
    Join(
        Scan("e0", ("x",), constants=((1, 3),)),
        Scan("e1", ("x", "x2")),
    ),
    Project(
        Semijoin(Scan("e1", ("x1", "x2")), Scan("e2", ("x2", "x3"))),
        ("x1",),
    ),
    Join(
        Project(Scan("e0", ("x0", "x1")), ("x1",)),
        Project(Scan("e1", ("x1", "x2")), ("x1",)),
    ),
)


@pytest.fixture
def lowerings(monkeypatch):
    """Counts of what lowering costs, by name: ``_build_unit`` calls on
    the compiled engine and ``builtins.compile`` calls from anywhere."""
    counts = {"_build_unit": 0, "compile": 0}
    original = VectorizedEngine._build_unit

    def build_unit(self, *args):
        counts["_build_unit"] += 1
        return original(self, *args)

    monkeypatch.setattr(VectorizedEngine, "_build_unit", build_unit)
    real_compile = builtins.compile

    def counting_compile(*args, **kwargs):
        counts["compile"] += 1
        return real_compile(*args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting_compile)
    return counts


@pytest.mark.parametrize("engine_cls", CACHING_ENGINES)
@pytest.mark.parametrize("cache_size", (0, 64))
def test_writes_lower_nothing(engine_cls, cache_size, numpy_mode, lowerings):
    db = chain_db()
    engine = engine_cls(db, plan_cache_size=cache_size)
    reference = Engine(db, plan_cache_size=0)
    units = None
    for round_number in range(7):
        for plan in CHAIN_PLANS:
            result, stats = engine.execute_with_stats(plan)
            expected, expected_stats = reference.execute_with_stats(plan)
            assert result == expected
            assert logical(stats) == logical(expected_stats)
        if units is None:
            units = [engine._compile(plan) for plan in CHAIN_PLANS]
            lowered = dict(lowerings)
            assert lowered["_build_unit"] > 0
        else:
            assert [engine._compile(plan) for plan in CHAIN_PLANS] == units
            assert lowerings == lowered
        # One write of each kind per round, cycling over the footprint.
        name = f"e{round_number % 3}"
        fresh = 100 + round_number
        db.insert_rows(name, [(fresh, fresh % 5), (fresh % 7, fresh)])
        db.delete_rows(name, [sorted(db[name].rows)[round_number]])
        other = f"e{(round_number + 1) % 3}"
        kept = sorted(db[other].rows)[1:] + [(fresh % 3, fresh % 4)]
        assert db.put(other, Relation(db[other].columns, kept))


@pytest.mark.parametrize("engine_name", ("compiled", "vectorized"))
def test_rebind_lowers_nothing(engine_name, numpy_mode, lowerings):
    db = Database({"graph": Relation(("u", "w"), [(i, (i * 2) % 9) for i in range(9)])})
    engine = make_engine(engine_name, db)
    statement = PreparedStatement(
        1, canonicalize_query(parse_rule("q(X) :- graph(2, Y), graph(Y, X)."))[0], "bucket"
    )
    answers = set()
    lowered = None
    for constant in (2, 5, 7, 2):
        assert statement.bind(db, (constant,)) == 1
        result = engine.execute(statement.plan)
        assert result == Engine(db).execute(statement.plan)
        answers.add(result.rows)
        if lowered is None:
            unit = engine._compile(statement.plan)
            lowered = dict(lowerings)
        assert engine._compile(statement.plan) is unit
        assert lowerings == lowered
    assert len(answers) > 1  # the rebinds were observed
    # Only the drop lets go of the units over the parameter relation.
    before = engine.cache_info().units
    statement.unbind(db)
    engine.execute(Scan("graph", ("a", "b")))  # syncs the catalog
    after = engine.cache_info().units
    assert after < before
    assert all(dep == "graph" for dep in engine._units._by_dep)


@pytest.mark.parametrize("engine_cls", CACHING_ENGINES)
class TestReshapedRelations:
    """A unit goes when a relation of its footprint is dropped or changes
    columns — the only writes its layout can see."""

    def test_other_arity_raises_at_lowering(self, engine_cls):
        db = two_relation_db()
        engine = engine_cls(db)
        plan = plan_over("s")
        engine.execute(plan)
        db.replace("s", Relation(("c", "d", "e"), [(1, 2, 3)]))
        with pytest.raises(SchemaError):
            engine.execute(plan)
        db.replace("s", Relation(("c", "d"), [(1, 2)]))
        assert engine.execute(plan) == Engine(db).execute(plan)

    def test_renamed_columns_lower_again(self, engine_cls):
        db = two_relation_db()
        engine = engine_cls(db)
        # A rename changes the schema the units were lowered against,
        # so they go even though the positions stay.
        plan = Semijoin(Scan("r", ("x", "y")), Scan("s", ("y", "z")))
        stale = engine._compile(plan)
        engine.execute(plan)
        db.replace("s", Relation(("p", "q"), [(2, 7), (4, 8)]))
        assert engine.execute(plan) == Engine(db).execute(plan)
        assert engine.execute(plan).cardinality == 2
        assert engine._compile(plan) is not stale

    def test_drop_then_readd(self, engine_cls):
        db = two_relation_db()
        engine = engine_cls(db)
        plan = plan_over("s")
        engine.execute(plan)
        units = engine.cache_info().units
        rows = db["s"]
        db.drop("s")
        with pytest.raises(CatalogError):
            engine.execute(plan)
        assert engine.cache_info().units == 0  # every unit scanned s
        db.add("s", Relation(rows.columns, [(7, 8)]))
        assert engine.execute(plan).rows == frozenset({(7,)})
        assert engine.cache_info().units == units

    def test_drop_and_readd_between_executions(self, engine_cls):
        db = two_relation_db()
        engine = engine_cls(db)
        plan = plan_over("s")
        engine.execute(plan)
        unit = engine._compile(plan)
        columns = db["s"].columns
        db.drop("s")
        db.add("s", Relation(columns, [(7, 8)]))
        # Same name, same columns: the unit is still right, its data new.
        assert engine.execute(plan).rows == frozenset({(7,)})
        assert engine._compile(plan) is unit


@pytest.mark.skipif(numpy_module() is None, reason="the array path needs numpy")
def test_pinned_chain_rebuilds_only_what_was_written(array_builds, monkeypatch):
    """A chain whose row pass once tripped the restart guard stays on the
    array path across writes, never builds a row probe again, and
    rebuilds only the build side of the stage whose relation changed."""
    database = Database(
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
    plan = Project(
        Semijoin(
            Join(Scan("src", ("z", "a")), Scan("fan", ("a", "b"))),
            Scan("keep", ("b", "c")),
        ),
        ("z",),
    )
    row_builds = []
    bucket = compiled._bucket
    monkeypatch.setattr(
        compiled, "_bucket", lambda *args: row_builds.append(1) or bucket(*args)
    )
    engine = VectorizedEngine(database, plan_cache_size=16)
    reference = Engine(database, plan_cache_size=0)
    assert engine.execute(plan) == reference.execute(plan)
    unit = engine._compile(plan)
    mode = unit.fn.__globals__["_mode"]
    assert mode == [1]
    assert sorted(array_builds) == ["_npjoin_index", "_npsorted_keys"]
    abandoned = len(row_builds)  # the pass that tripped the guard built these
    assert abandoned > 0
    writes = (
        ("src", [(40, 3)], []),  # the chain's source: no build side at all
        ("fan", [(3, 999)], ["_npjoin_index"]),
        ("keep", [(999, 0)], ["_npsorted_keys"]),
    )
    for name, rows, rebuilt in writes:
        del array_builds[:]
        assert database.insert_rows(name, rows) == len(rows)
        result, stats = engine.execute_with_stats(plan)
        expected, expected_stats = reference.execute_with_stats(plan)
        assert result == expected
        assert logical(stats) == logical(expected_stats)
        assert array_builds == rebuilt
        assert len(row_builds) == abandoned
        assert engine._compile(plan) is unit
        assert unit.fn.__globals__["_mode"] is mode and mode == [1]


# ----------------------------------------------------------------------
# cache_info() / clear_cache(): the uniform introspection surface
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_cls", ENGINES)
class TestCacheIntrospection:
    def test_counters_track_traffic(self, engine_cls):
        db = two_relation_db()
        engine = engine_cls(db)
        info = engine.cache_info()
        assert (info.hits, info.misses, info.entries) == (0, 0, 0)

        plan = plan_over("r")
        engine.execute(plan)
        info = engine.cache_info()
        assert info.misses > 0 and info.entries > 0

        engine.execute(plan)
        assert engine.cache_info().hits > 0

    def test_evictions_counted_on_mutation(self, engine_cls):
        db = two_relation_db()
        engine = engine_cls(db)
        engine.execute(plan_over("s"))
        db.insert_rows("s", [(30, 40)])
        engine.execute(plan_over("r"))
        assert engine.cache_info().evictions > 0

    def test_clear_cache_drops_and_zeroes(self, engine_cls):
        db = two_relation_db()
        engine = engine_cls(db)
        engine.execute(plan_over("r"))
        engine.execute(plan_over("r"))
        engine.clear_cache()
        info = engine.cache_info()
        assert (info.hits, info.misses, info.evictions) == (0, 0, 0)
        assert info.entries == 0 and info.units == 0

    def test_capacity_reported(self, engine_cls):
        db = two_relation_db()
        assert engine_cls(db, plan_cache_size=7).cache_info().capacity == 7
        assert engine_cls(db, plan_cache_size=0).cache_info().capacity == 0

    def test_units_field(self, engine_cls):
        db = two_relation_db()
        engine = engine_cls(db)
        engine.execute(plan_over("r"))
        units = engine.cache_info().units
        if engine_cls is Engine:
            assert units == 0
        else:
            assert units > 0
