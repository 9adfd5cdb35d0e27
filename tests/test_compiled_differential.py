"""Differential property suite: interpreted vs compiled vs vectorized.

The compiled backends' acceptance contract is that they are *observably
identical* to the interpreted engine on every plan any of them can run —
same answer relation, same logical work counters (so the paper's
plan-cost figures are engine-independent) — while being allowed to
materialize fewer physical rows (``rows_built``), which is the whole
point of fusion.  The vectorized columnar engine additionally replaces
row sets with dictionary-encoded column batches, so this suite is the
proof that the encoding round-trips exactly.  It hammers the three-way
contract from three directions:

- random **acyclic queries** (mediator chains/stars/snowflakes) planned
  by all six planning methods, under both cache modes;
- random **bushy plans** over the edge relation — shapes no planner
  emits (nested join operands, stacked projections, cross products);
- random **databases** (varying arities, cardinalities, skew, constants
  via repeated variables) with random queries over them.

No hypothesis example reaches the array threshold, so each property
runs a second time with ``_ARRAY_MIN`` at 1: every batch then takes the
array kernels (bit-packed and void keys, liveness-pruned chain gathers).

Deep-plan (2000-atom) coverage lives in ``tests/test_deep_plans.py``.
"""

import random

import pytest
from hypothesis import given, settings

from repro.core import is_acyclic
from repro.core.planner import METHODS, plan_query
from repro.relalg import compiled
from repro.relalg.columnar import numpy_module
from repro.relalg.compiled import CompiledEngine, VectorizedEngine
from repro.relalg.database import edge_database
from repro.relalg.engine import Engine

from tests.core.test_yannakakis_property import acyclic_instances
from tests.test_random_databases import random_setups
from tests.test_random_plans import random_plans

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

COMPILED_ENGINES = (CompiledEngine, VectorizedEngine)


def assert_engines_agree(plan, database, cache_size: int = 0) -> None:
    expected, istats = Engine(
        database, plan_cache_size=cache_size
    ).execute_with_stats(plan)
    for engine_cls in COMPILED_ENGINES:
        got, cstats = engine_cls(
            database, plan_cache_size=cache_size
        ).execute_with_stats(plan)
        assert got == expected, engine_cls.__name__
        assert got.columns == expected.columns, engine_cls.__name__
        for counter in LOGICAL:
            assert getattr(cstats, counter) == getattr(istats, counter), (
                engine_cls.__name__,
                counter,
            )
        assert cstats.arity_trace == istats.arity_trace, engine_cls.__name__
        assert cstats.rows_built <= istats.rows_built, engine_cls.__name__


@given(acyclic_instances())
@settings(max_examples=25, deadline=None)
def test_all_six_methods_agree_on_acyclic_queries(pair):
    query, database = pair
    for method in METHODS:
        plan = plan_query(query, method, rng=random.Random(3))
        for cache_size in (0, 128):
            assert_engines_agree(plan, database, cache_size)


@given(random_plans())
@settings(max_examples=60, deadline=None)
def test_bushy_plans_agree(plan):
    assert_engines_agree(plan, edge_database())


@given(random_setups())
@settings(max_examples=40, deadline=None)
def test_random_databases_agree(setup):
    query, database = setup
    for method in METHODS:
        if method == "yannakakis" and not is_acyclic(query):
            continue  # rejects cyclic queries by design
        plan = plan_query(query, method, rng=random.Random(0))
        assert_engines_agree(plan, database)


@pytest.mark.parametrize(
    "prop",
    [
        test_all_six_methods_agree_on_acyclic_queries,
        test_bushy_plans_agree,
        test_random_databases_agree,
    ],
    ids=["acyclic", "bushy", "random-databases"],
)
def test_properties_hold_on_the_array_kernels(prop, monkeypatch):
    if numpy_module() is None:
        pytest.skip("the array kernels need numpy")
    monkeypatch.setattr(compiled, "_ARRAY_MIN", 1)
    prop()
