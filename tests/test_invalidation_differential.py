"""Differential property suite: selective retention ≡ whole-cache drop.

The versioned-catalog contract is that dependency-tracked eviction is an
*optimization only*: under any interleaving of queries and catalog
mutations, an engine that selectively retains cache entries must return
the same answer relations and the same logical ``ExecutionStats``
counters as one that drops its entire cache on every mutation.  Only the
physical/cache counters (``cache_hits``, ``cache_misses``,
``rows_built``) may improve.

The suite drives random acyclic instances through all six planning
methods on all three engines: both engines observe the *same* mutating
database (the baseline emulating the pre-versioning behaviour by calling
``clear_cache()`` after every write), with random insert / delete /
replace / drop-and-re-add / column-renaming mutations interleaved
between executions.  The last two are the only writes a compiled unit's
layout can see: everything else must leave the units alone and still be
observed through them.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import METHODS, plan_query
from repro.relalg.compiled import CompiledEngine, VectorizedEngine
from repro.relalg.database import Database
from repro.relalg.engine import Engine
from repro.relalg.relation import Relation

from tests.core.test_yannakakis_property import acyclic_instances

ENGINES = (Engine, CompiledEngine, VectorizedEngine)

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


def copy_database(db: Database) -> Database:
    return Database({name: db[name] for name in db.names()})


def random_mutation(db: Database, rng: random.Random) -> None:
    """Apply one random catalog write: insert, delete, replace, drop
    and re-add, or a replace that renames the columns."""
    name = rng.choice(db.names())
    relation = db[name]
    op = rng.choice(("insert", "delete", "replace", "readd", "rename"))
    if op == "insert":
        rows = [
            tuple(rng.randrange(0, 6) for _ in range(relation.arity))
            for _ in range(rng.randrange(1, 3))
        ]
        db.insert_rows(name, rows)
    elif op == "delete" and relation.cardinality:
        victims = rng.sample(
            sorted(relation.rows), k=min(2, relation.cardinality)
        )
        db.delete_rows(name, victims)
    else:
        keep = [row for row in sorted(relation.rows) if rng.random() < 0.8]
        columns = relation.columns
        if op == "rename":
            # Plans bind base relations by position, so answers do not
            # change — but a unit that kept the old names would.
            columns = tuple(f"{column}_" for column in columns)
        elif op == "readd":
            db.drop(name)
        db.replace(name, Relation(columns, keep))


def assert_rounds_identical(selective, baseline, plan, rounds_rng, db):
    """Interleave executions and mutations; after every step the
    selective engine must match the whole-drop baseline exactly on
    answers and logical counters."""
    for _ in range(3):
        got, got_stats = selective.execute_with_stats(plan)
        want, want_stats = baseline.execute_with_stats(plan)
        assert got == want
        assert got.columns == want.columns
        for counter in LOGICAL:
            assert getattr(got_stats, counter) == getattr(
                want_stats, counter
            ), counter
        assert got_stats.arity_trace == want_stats.arity_trace
        # Retention can only help: never more physical work than cold.
        assert got_stats.rows_built <= want_stats.rows_built

        random_mutation(db, rounds_rng)
        baseline.clear_cache()  # the pre-versioning whole-drop behaviour


@given(acyclic_instances(), st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_selective_retention_equals_whole_drop(pair, seed):
    query, database = pair
    for method in METHODS:
        try:
            plan = plan_query(query, method, rng=random.Random(3))
        except ValueError:
            continue  # e.g. jointree's documented exact-treewidth limit
        for engine_cls in ENGINES:
            db = copy_database(database)
            selective = engine_cls(db, plan_cache_size=256)
            baseline = engine_cls(db, plan_cache_size=256)
            assert_rounds_identical(
                selective, baseline, plan, random.Random(seed), db
            )


@given(acyclic_instances(), st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_selective_engines_agree_across_backends(pair, seed):
    """Under one shared mutation stream, the three selectively-caching
    backends stay answer- and logical-stats-identical to each other."""
    query, database = pair
    plan = plan_query(query, "bucket", rng=random.Random(3))
    db = copy_database(database)
    engines = [engine_cls(db, plan_cache_size=256) for engine_cls in ENGINES]
    rng = random.Random(seed)
    for _ in range(4):
        results = [engine.execute_with_stats(plan) for engine in engines]
        reference, ref_stats = results[0]
        for got, stats in results[1:]:
            assert got == reference
            for counter in LOGICAL:
                assert getattr(stats, counter) == getattr(
                    ref_stats, counter
                ), counter
            assert stats.arity_trace == ref_stats.arity_trace
        random_mutation(db, rng)
