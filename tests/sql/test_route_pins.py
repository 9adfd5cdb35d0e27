"""What ``generate_sql -> parse -> execute`` produces, pinned.

The scanner, parser and executor were rewritten for speed; the figures
read ``ExecutionStats`` through ``experiments/runner.py``, so every counter
(and the arity trace behind them) is pinned here for the ten
``cold_pipeline`` queries and for the three executor paths those do not
take: a comma-list ``FROM`` run in a ``from_order``, a correlated
``EXISTS`` and a cross-product ``ON (TRUE)``.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.core.query import Atom, ConjunctiveQuery, Const
from repro.errors import QueryStructureError
from repro.relalg.database import edge_database
from repro.sql.ast import render
from repro.sql.executor import execute_with_stats
from repro.sql.generator import (
    bucket_elimination_sql,
    early_projection_sql,
    generate_sql,
    naive_sql,
    reordering_sql,
    straightforward_sql,
    yannakakis_sql,
)
from repro.sql.parser import parse
from repro.workloads import graphs
from repro.workloads.coloring import coloring_instance, coloring_query
from repro.workloads.mediator import chain_query, snowflake_query, star_query
from tests.sql.cold_cases import COLD_ROWS, IDS, cold_query


def digest(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()[:12]


def counters(stats):
    """Every field of ``stats``, the arity trace as (length, digest)."""
    fields = dataclasses.asdict(stats)
    trace = fields.pop("_arity_trace")
    assert list(fields) == [
        "joins", "semijoins", "projections", "scans",
        "total_intermediate_tuples", "max_intermediate_cardinality",
        "max_intermediate_arity", "peak_live_tuples", "cache_hits",
        "cache_misses", "rows_built",
    ]  # fmt: skip
    return tuple(fields.values()) + (len(trace), digest(trace))


#: Per cold case: digest of the SQL text, answer rows, counters(stats).
COLD_PINS = (
    ("9e724ea4e0ed", 3, (87, 0, 59, 88, 2265, 18, 6, 33, 0, 0, 2265, 234, "d208bc8d9f31")),
    ("d0e5b560834e", 3, (147, 0, 99, 148, 3825, 18, 6, 33, 0, 0, 3825, 394, "96d8af99af69")),
    ("fa32532bb588", 3, (147, 0, 120, 148, 3339, 18, 7, 33, 0, 0, 3339, 415, "10784ae221bf")),
    ("600310973439", 3, (247, 0, 200, 248, 5619, 18, 7, 33, 0, 0, 5619, 695, "4aed14731a3a")),
    ("b0bf7cab899f", 3, (149, 0, 120, 150, 14145, 162, 9, 249, 0, 0, 14145, 419, "318f17acdb64")),
    ("6ce630fc50d2", 3, (60, 0, 62, 61, 909, 6, 4, 15, 0, 0, 909, 183, "21b5375782e7")),
    ("45042ceeff53", 3, (100, 0, 102, 101, 1509, 6, 4, 15, 0, 0, 1509, 303, "28b327b4c773")),
    ("a4a5135187ac", 3, (87, 0, 58, 88, 5103, 54, 7, 87, 0, 0, 5103, 233, "f0be4d238566")),
    ("ec01cde68eb2", 3, (147, 0, 98, 148, 8703, 54, 7, 87, 0, 0, 8703, 393, "5d0a7ac927c4")),
    ("cee6b65e6201", 0, (23, 0, 18, 24, 666, 54, 11, 87, 0, 0, 666, 65, "d7db0f0741aa")),
)  # fmt: skip


@pytest.mark.parametrize("row, pin", zip(COLD_ROWS, COLD_PINS), ids=IDS)
def test_cold_case_text_answer_and_stats_are_pinned(row, pin):
    family, order, method = row
    text = generate_sql(cold_query(family, order), method, rng=random.Random(0))
    result, stats = execute_with_stats(parse(text), edge_database())
    assert (digest(text), result.cardinality, counters(stats)) == pin


#: name -> (SQL, from_order, answer rows, counters(stats)).
HAND_WRITTEN = {
    "naive_from_order": (
        "SELECT DISTINCT e1.a FROM edge e1 (a,b), edge e2 (b2,c), edge e3 (c3,d) "
        "WHERE e2.b2 = e1.b AND e3.c3 = e2.c AND e3.d = e1.a AND e1.a = 1;",
        [2, 0, 1],
        1,
        (2, 0, 1, 3, 105, 36, 6, 48, 0, 0, 105, 10, "069eec1afd9e"),
    ),
    "exists": (
        "SELECT DISTINCT e1.a, e1.b "
        "FROM edge e1 (a,b) JOIN edge e2 (b2,c) ON ( e2.b2 = e1.b ) "
        "WHERE e1.a = 2 AND EXISTS ( "
        "SELECT DISTINCT e3.x FROM edge e3 (x,y), edge e4 (y4,z) "
        "WHERE e4.y4 = e3.y AND e3.x = e1.b AND e4.z = e1.a );",
        None,
        2,
        (2, 1, 1, 4, 94, 36, 4, 48, 0, 0, 94, 10, "aae48190dd15"),
    ),
    "cross_product": (
        "SELECT DISTINCT e1.a, e2.d FROM edge e1 (a,b) "
        "JOIN ( edge e2 (c,d) JOIN edge e3 (e,f) ON (TRUE) ) ON ( TRUE );",
        None,
        9,
        (2, 0, 1, 3, 279, 216, 6, 258, 0, 0, 279, 6, "c3a1f5a83ce9"),
    ),
}


@pytest.mark.parametrize("name", HAND_WRITTEN)
def test_hand_written_query_answer_and_stats_are_pinned(name):
    sql, from_order, rows, pin = HAND_WRITTEN[name]
    result, stats = execute_with_stats(
        parse(sql), edge_database(), from_order=from_order
    )
    assert (result.cardinality, counters(stats)) == (rows, pin)


# ----------------------------------------------------------------------
# parse(render(tree)) == tree
# ----------------------------------------------------------------------
BUILDERS = {
    "naive": naive_sql,
    "straightforward": straightforward_sql,
    "early": early_projection_sql,
    "reordering": lambda query: reordering_sql(query, rng=random.Random(0)),
    "bucket": lambda query: bucket_elimination_sql(query, rng=random.Random(0)),
    "yannakakis": yannakakis_sql,
}


def _colored(graph, free_fraction=0.2):
    return coloring_instance(
        graph, free_fraction=free_fraction, rng=random.Random(0)
    ).query


WORKLOAD_QUERIES = {
    "pentagon": coloring_query(graphs.pentagon()),
    "path": _colored(graphs.path(6)),
    "star": _colored(graphs.star(4)),
    "ladder": _colored(graphs.ladder(4)),
    "augmented_path": _colored(graphs.augmented_path(5)),
    "augmented_ladder": _colored(graphs.augmented_ladder(3)),
    "augmented_circular_ladder": _colored(graphs.augmented_circular_ladder(3)),
    "grid": _colored(graphs.grid(3, 3)),
    "random": _colored(graphs.random_graph(8, 12, random.Random(3))),
    "mediator_chain": chain_query(4, random.Random(1))[0],
    "mediator_star": star_query(3, random.Random(2))[0],
    "mediator_snowflake": snowflake_query(2, 2, random.Random(3))[0],
    "constants_and_repeats": ConjunctiveQuery(
        atoms=(
            Atom("edge", ("x", "x")),
            Atom("r", ("x", Const("it's"), Const(-3), "y")),
            Atom("edge", ("y", "z")),
        ),
        free_variables=("x", "z"),
    ),
}


def _trees():
    """Every (query, method) the generator accepts: ``yannakakis`` takes
    acyclic queries only."""
    for name, query in WORKLOAD_QUERIES.items():
        for method, build in BUILDERS.items():
            try:
                yield pytest.param(build(query), id=f"{name}-{method}")
            except QueryStructureError:
                assert method == "yannakakis"


@pytest.mark.parametrize("tree", _trees())
def test_parse_inverts_render(tree):
    assert parse(render(tree)) == tree
