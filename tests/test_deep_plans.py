"""Deep-plan regressions: every plan consumer must be recursion-free.

The paper's scaling figures build left-deep chains thousands of joins
long; Python's default recursion limit is 1000, so any recursive
traversal breaks well inside the experimental regime.  These tests pin
the iterative implementations: construction, traversal, keying,
validation, pretty-printing, DOT export, rewriting, and both engines on
a 2000-atom left-deep chain.
"""

import time

import pytest

from repro.plans import (
    Join,
    Plan,
    Project,
    Scan,
    Semijoin,
    left_deep_join,
    plan_key,
    plan_width,
    pretty_plan,
    transform,
    validate_plan,
    walk,
)
from repro.relalg.bag_engine import bag_evaluate
from repro.relalg.database import edge_database
from repro.relalg.engine import Engine
from repro.rewrite import rewrite_plan
from repro.viz import plan_to_dot

DEPTH = 2000


def deep_join_chain(n: int = DEPTH) -> Plan:
    """Left-deep chain of ``n`` scans: ``edge(v0,v1) ⋈ edge(v1,v2) ⋈ …``."""
    return left_deep_join(
        [Scan("edge", (f"v{i}", f"v{i + 1}")) for i in range(n)]
    )


def deep_semijoin_chain(n: int = DEPTH) -> Plan:
    """Left-deep semijoin chain — same depth, but the output schema stays
    binary, so (unlike the join chain) it is cheap to *execute*."""
    plan: Plan = Scan("edge", ("x", "y"))
    for _ in range(n - 1):
        plan = Semijoin(plan, Scan("edge", ("x", "y")))
    return plan


class TestDeepTraversals:
    def test_walk_covers_whole_chain(self):
        plan = deep_join_chain()
        nodes = list(walk(plan))
        assert len(nodes) == 2 * DEPTH - 1  # n scans + (n-1) joins

    def test_plan_key_and_validate(self):
        plan = deep_join_chain()
        key = plan_key(plan)
        assert plan_key(deep_join_chain()) == key
        validate_plan(plan)

    def test_width_and_pretty(self):
        plan = deep_join_chain()
        assert plan_width(plan) == DEPTH + 1
        text = pretty_plan(plan)
        assert text.count("Scan edge") == DEPTH

    def test_dot_export(self):
        dot = plan_to_dot(deep_join_chain())
        assert dot.count("->") == 2 * (DEPTH - 1)

    def test_transform_identity_on_deep_chain(self):
        plan = deep_join_chain()
        assert transform(plan, lambda node: None) is plan

    def test_rewrite_driver_on_deep_chain(self):
        # One projection on top; the driver's per-pass transform must not
        # recurse.  A few passes suffice to reach the fixpoint here.
        plan = Project(deep_join_chain(200), ("v0", "v200"))
        rewritten = rewrite_plan(plan, max_passes=3)
        assert plan_width(rewritten) <= plan_width(plan)


class TestDeepExecution:
    def test_engine_executes_deep_semijoin_chain(self):
        db = edge_database()
        plan = deep_semijoin_chain()
        base = Engine(db).execute(Scan("edge", ("x", "y")))
        for cache_size in (0, 128):
            result = Engine(db, plan_cache_size=cache_size).execute(plan)
            assert result == base  # reducers remove nothing here

    def test_compiled_engine_executes_deep_semijoin_chain(self, monkeypatch):
        # The engine by the name the CLI and the service use, on its
        # array kernels (every batch takes them at threshold 1, with
        # numpy).  Both the compiler (post-order over 2000 nodes) and
        # both run drivers (cached and uncached) must be stack-based;
        # the _Unit dataclass also disables generated __repr__/__eq__,
        # which would recurse through `children`.
        from repro.relalg import compiled
        from repro.relalg.compiled import make_engine

        monkeypatch.setattr(compiled, "_ARRAY_MIN", 1)
        db = edge_database()
        plan = deep_semijoin_chain()
        base = Engine(db).execute(Scan("edge", ("x", "y")))
        for cache_size in (0, 128):
            engine = make_engine("compiled", db, plan_cache_size=cache_size)
            result, cstats = engine.execute_with_stats(plan)
            assert result == base
            _, istats = Engine(
                db, plan_cache_size=cache_size
            ).execute_with_stats(plan)
            assert cstats.semijoins == istats.semijoins
            assert (
                cstats.total_intermediate_tuples
                == istats.total_intermediate_tuples
            )
            assert cstats.arity_trace == istats.arity_trace

    def test_vectorized_engine_executes_deep_semijoin_chain(self):
        # The same at full depth on the row kernels, which every batch
        # of the edge relation takes at the default threshold.
        from repro.relalg.compiled import VectorizedEngine

        db = edge_database()
        plan = deep_semijoin_chain()
        base = Engine(db).execute(Scan("edge", ("x", "y")))
        for cache_size in (0, 128):
            engine = VectorizedEngine(db, plan_cache_size=cache_size)
            result, vstats = engine.execute_with_stats(plan)
            assert result == base
            _, istats = Engine(
                db, plan_cache_size=cache_size
            ).execute_with_stats(plan)
            assert vstats.semijoins == istats.semijoins
            assert (
                vstats.total_intermediate_tuples
                == istats.total_intermediate_tuples
            )
            assert vstats.arity_trace == istats.arity_trace

    def test_vectorized_deep_chain_is_linearish(self):
        """8x the chain must cost nowhere near 64x: compile is one
        post-order pass, every semijoin kernel reuses the base store's
        memoized key index, and unfiltered semijoins return the input
        batch zero-copy — all linear in depth."""
        from repro.relalg.compiled import VectorizedEngine

        db = edge_database()

        def measure(n: int) -> float:
            plan = deep_semijoin_chain(n)
            engine = VectorizedEngine(db, plan_cache_size=0)
            start = time.perf_counter()
            engine.execute(plan)
            return time.perf_counter() - start

        measure(250)  # warm-up (interns values, builds the key index)
        small = max(measure(250), 1e-3)
        big = measure(2000)
        assert big <= max(32 * small, 0.25), (small, big)

    def test_bag_engine_executes_deep_semijoin_chain(self):
        db = edge_database()
        result, _ = bag_evaluate(deep_semijoin_chain(), db)
        assert result == Engine(db).execute(Scan("edge", ("x", "y")))

    def test_explain_deep_semijoin_chain(self):
        from repro.explain import explain

        result = explain(deep_semijoin_chain(500), edge_database())
        assert result.result.cardinality == 6


class TestColumnsMemoization:
    def test_columns_and_key_are_cached_objects(self):
        plan = deep_join_chain(50)
        assert plan.columns is plan.columns
        assert plan_key(plan) is plan_key(plan)

    def test_schema_computation_is_linearish(self):
        """Growing the chain 8x must not cost anywhere near 64x.

        The chain joins the *same* binding repeatedly, so every schema
        stays binary and the total schema size is linear in node count.
        Without per-node memoization (or with a fill that re-walks
        already-cached subtrees), accessing every node's ``arity`` — what
        ``plan_width`` does — is quadratic; memoized and pruned, it is
        one post-order pass.  8x the size is ~64x the work quadratically
        but ~8x linearly; the 32x threshold splits the regimes with a
        wide margin for timer noise.
        """

        def measure(n: int) -> float:
            scans = [Scan("edge", ("x", "y")) for _ in range(n)]
            start = time.perf_counter()
            plan = left_deep_join(scans)
            plan_width(plan)
            plan_key(plan)
            return time.perf_counter() - start

        measure(400)  # warm-up
        small = max(measure(400), 1e-3)
        big = measure(3200)
        assert big <= max(32 * small, 0.25), (small, big)


def test_deep_chain_well_below_recursion_limit_headroom():
    """Meta-check: the chain really is deeper than the recursion limit,
    so the tests above would fail against a recursive implementation."""
    import sys

    assert DEPTH > sys.getrecursionlimit()
