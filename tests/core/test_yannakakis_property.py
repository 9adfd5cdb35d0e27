"""Property suite for the plan-compiled Yannakakis method.

Random *guaranteed-acyclic* queries come from the mediator generators
(chains, stars, snowflakes are all GYO-reducible); on them "yannakakis"
must agree with every width-oriented method of the paper, execute
through the ordinary engine, and survive the SQL round trip via
correlated ``EXISTS``.  Cyclic queries must be rejected with a clean
:class:`~repro.errors.QueryStructureError`.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.planner import METHODS, plan_query
from repro.core.query import Atom, ConjunctiveQuery
from repro.core.semijoins import yannakakis_plan
from repro.core.treewidth import EXACT_NODE_LIMIT
from repro.errors import QueryStructureError
from repro.plans import Semijoin, walk
from repro.relalg.engine import evaluate
from repro.sql.executor import execute as sql_execute
from repro.sql.generator import generate_sql
from repro.sql.parser import parse
from repro.workloads.mediator import chain_query, snowflake_query, star_query

PAPER_METHODS = METHODS[:5]


@st.composite
def acyclic_instances(draw):
    """A random acyclic (query, database) pair from the mediator families."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    shape = draw(st.sampled_from(["chain", "star", "snowflake"]))
    rng = random.Random(seed)
    if shape == "chain":
        return chain_query(draw(st.integers(2, 6)), rng)
    if shape == "star":
        return star_query(draw(st.integers(2, 5)), rng)
    branches = draw(st.integers(2, 3))
    # Three branches of depth 2 can exceed 18 variables — past the
    # exact-treewidth limit the "jointree" method is documented to
    # refuse — so keep the instances inside every method's domain.
    depth = draw(st.integers(1, 2 if branches == 2 else 1))
    return snowflake_query(branches, depth, rng)


@given(acyclic_instances())
@example(star_query(5, random.Random(41)))  # 19 variables
@settings(max_examples=30, deadline=None)
def test_yannakakis_agrees_with_all_paper_methods(pair):
    query, database = pair
    reference, _ = evaluate(yannakakis_plan(query), database)
    for method in PAPER_METHODS:
        if method == "jointree" and len(query.variables) > EXACT_NODE_LIMIT:
            # Documented refusal: exact treewidth stops at the node limit.
            with pytest.raises(ValueError, match="exact treewidth limited"):
                plan_query(query, method, rng=random.Random(3))
            continue
        plan = plan_query(query, method, rng=random.Random(3))
        result, _ = evaluate(plan, database)
        assert result == reference, method


@given(acyclic_instances())
@settings(max_examples=20, deadline=None)
def test_yannakakis_plan_has_semijoins_and_round_trips_as_sql(pair):
    query, database = pair
    plan = yannakakis_plan(query)
    if len(query.atoms) > 1:
        assert any(isinstance(node, Semijoin) for node in walk(plan))
    expected, _ = evaluate(plan, database)
    if not query.free_variables:
        return  # SQL cannot express 0-ary outputs
    text = generate_sql(query, "yannakakis")
    assert "EXISTS" in text or len(query.atoms) == 1
    got = sql_execute(parse(text), database)
    assert got == expected


def test_cyclic_query_rejected_cleanly():
    triangle = ConjunctiveQuery(
        atoms=(
            Atom("edge", ("X", "Y")),
            Atom("edge", ("Y", "Z")),
            Atom("edge", ("Z", "X")),
        ),
        free_variables=(),
    )
    with pytest.raises(QueryStructureError, match="acyclic"):
        yannakakis_plan(triangle)
    with pytest.raises(QueryStructureError, match="acyclic"):
        plan_query(triangle, "yannakakis")
