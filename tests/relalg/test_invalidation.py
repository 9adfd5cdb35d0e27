"""Selective cache retention under catalog mutations.

This suite pins the acceptance contract of the versioned-catalog layer:
after mutating one relation in a multi-relation catalog, cached entries
for plans that do *not* depend on it must still hit (``rows_built == 0``
on a fully warm rerun), while plans that do depend on it recompute and
observe the new data — across all three execution backends.  It also
covers the building blocks directly: :func:`repro.plans.dependencies`,
:class:`repro.relalg.cache.DependencyCache`,
:class:`repro.relalg.cache.CatalogVersionTracker`, and the uniform
``cache_info()``/``clear_cache()`` introspection surface.
"""

import pytest

from repro.plans import Join, Project, Scan, dependencies
from repro.relalg import compiled
from repro.relalg.cache import CatalogVersionTracker, DependencyCache
from repro.relalg.columnar import clear_interning
from repro.relalg.compiled import CompiledEngine, VectorizedEngine
from repro.relalg.database import Database, database_from_tuples
from repro.relalg.engine import Engine
from repro.relalg.stats import ExecutionStats

ENGINES = (Engine, CompiledEngine, VectorizedEngine)


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


@pytest.mark.parametrize("engine_cls", (CompiledEngine, VectorizedEngine))
def test_compiled_units_survive_unrelated_mutations(engine_cls):
    db = two_relation_db()
    engine = engine_cls(db)
    engine.execute(plan_over("r"))
    engine.execute(plan_over("s"))
    units_before = len(engine._units)
    assert units_before > 0
    db.insert_rows("s", [(30, 40)])
    engine.execute(plan_over("r"))  # triggers the catalog sync
    # Units over r survive; units over s were evicted and not yet rebuilt.
    assert 0 < len(engine._units) < units_before
    engine.execute(plan_over("s"))  # recompiles the s units
    assert len(engine._units) == units_before


@pytest.mark.parametrize("engine_cls", (CompiledEngine, VectorizedEngine))
def test_clear_interning_drops_all_compiled_state(engine_cls):
    """Units bake dictionary codes (vectorized ``const_batch``), so a
    pool-epoch change invalidates everything wholesale — and the next
    execution transparently recompiles under the new epoch."""
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
    constant batches, row probe dicts and sets, array-path indexes — is
    built again under the new epoch.  The generated kernel's code object
    is positional (no codes in it) and is the one thing that survives."""
    if compiled._np is None:
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
    clear_interning()
    assert engine.execute(chain) == expected
    fresh = engine._compile(chain)
    assert len(array_builds) == 2 * per_epoch  # array indexes built again
    assert fresh is not stale
    assert fresh.children[0].const_batch is not stale.children[0].const_batch
    assert fresh.fn.__code__ is stale.fn.__code__
    old, new = stale.fn.__globals__, fresh.fn.__globals__
    probes = [name for name in old if name[:2] in ("_g", "_s")]
    assert probes
    for name in probes + ["_finish", "_npfall", "_mode"]:
        # ``_g<i>`` is the bound ``get`` of a stage's probe dict.
        assert getattr(new[name], "__self__", new[name]) is not getattr(
            old[name], "__self__", old[name]
        ), name


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
