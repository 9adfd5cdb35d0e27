"""A wall-clock-free guard on how the SQL route scales.

``sys.setprofile`` sees one event per Python or C call and return, so the
event count of a stage is a machine-independent measure of its
interpreted work.  On a chain query, doubling the atoms must about double
the events of ``generate_sql``, ``parse`` and ``execute``: a ratio well
above 2 means some step rescans what it already saw (a call per
character of indentation, every pending equality per ``FROM`` item, one
``sys.intern`` per column of every intermediate header, ...).
"""

import sys

import pytest

from repro.core.query import Atom, ConjunctiveQuery
from repro.relalg.database import Database
from repro.relalg.relation import Relation
from repro.sql.executor import execute
from repro.sql.generator import generate_sql
from repro.sql.parser import parse

METHODS = ("naive", "straightforward", "early", "bucket")
SMALL, LARGE = 40, 80
LIMIT = 2.2


def chain(atoms: int) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        atoms=tuple(Atom("edge", (f"v{i}", f"v{i + 1}")) for i in range(atoms)),
        free_variables=("v0",),
    )


def cycle_database() -> Database:
    """``edge`` as a permutation: every join keeps three rows, so the data
    adds nothing to the count and ``straightforward`` can run at all."""
    database = Database()
    database.add("edge", Relation(("a", "b"), [(1, 2), (2, 3), (3, 1)]))
    return database


def events(function, *args):
    """``(profile events, result)`` of ``function(*args)``."""
    count = 0

    def tick(frame, event, arg):
        nonlocal count
        count += 1

    previous = sys.getprofile()
    sys.setprofile(tick)
    try:
        result = function(*args)
    finally:
        sys.setprofile(previous)
    return count, result


@pytest.fixture(scope="module")
def stage_events():
    """method -> atoms -> events of (generate, parse, execute)."""
    # The early and bucket forms of an 80-atom chain nest ~160 levels; the
    # stages recurse a few frames per level, more than the default 1000.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        counts = {}
        for method in METHODS:
            counts[method] = {}
            for atoms in (SMALL, LARGE):
                generated, text = events(generate_sql, chain(atoms), method)
                parsed, tree = events(parse, text)
                executed, answer = events(execute, tree, cycle_database())
                assert answer.cardinality == 3
                counts[method][atoms] = (generated, parsed, executed)
    finally:
        sys.setrecursionlimit(limit)
    return counts


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("stage", ["generate", "parse", "execute"])
def test_doubling_the_chain_doubles_the_work(stage_events, stage, method):
    index = ("generate", "parse", "execute").index(stage)
    small = stage_events[method][SMALL][index]
    large = stage_events[method][LARGE][index]
    assert large / small <= LIMIT, (small, large)
