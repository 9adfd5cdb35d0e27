"""Nesting beyond the interpreter's recursion limit is a typed error.

The plan engines are iterative and take 2000-atom plans
(``tests/test_deep_plans.py``); the SQL route recurses a few frames per
nesting level, so a chain of a few hundred atoms outruns the default
limit of 1000 under ``early`` and ``bucket``.  Whether a given depth fits
depends on how deep the caller already is, so each stage must either
succeed or name the nesting depth in its own error class — and never let
a ``RecursionError`` through.
"""

import re

import pytest

from repro.core.query import Atom, ConjunctiveQuery
from repro.errors import SqlSemanticError, SqlSyntaxError
from repro.relalg.database import Database
from repro.relalg.relation import Relation
from repro.sql.ast import (
    ColumnRef,
    Condition,
    Equality,
    JoinExpr,
    SelectQuery,
    SubqueryRef,
    TableRef,
    nesting_depth,
    render,
    subquery_depth,
)
from repro.sql.executor import execute
from repro.sql.generator import generate_sql
from repro.sql.parser import parse

TOO_DEEP = r"nesting depth \d+ takes more stack frames"


def chain(atoms: int) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        atoms=tuple(Atom("edge", (f"v{i}", f"v{i + 1}")) for i in range(atoms)),
        free_variables=("v0",),
    )


def loop_database() -> Database:
    """One self-loop: any chain query has exactly one answer row."""
    database = Database()
    database.add("edge", Relation(("a", "b"), [(1, 1)]))
    return database


def nested_subqueries(depth: int) -> SelectQuery:
    """``depth`` early-projection levels, built without recursion."""
    query = SelectQuery(
        select=(ColumnRef("e0", "v"),),
        from_items=(TableRef("edge", "e0", ("v", "w")),),
    )
    for level in range(1, depth):
        scan = TableRef("edge", f"e{level}", ("v", "w"))
        join = JoinExpr(
            left=scan,
            right=SubqueryRef(query, f"t{level}"),
            condition=Condition(
                (Equality(ColumnRef(f"e{level}", "w"), ColumnRef(f"t{level}", "v")),)
            ),
        )
        query = SelectQuery(select=(ColumnRef(f"e{level}", "v"),), from_items=(join,))
    return query


def nested_subquery_text(depth: int) -> str:
    text = "SELECT DISTINCT e0.v FROM edge e0 (v, w)"
    for level in range(1, depth):
        text = (
            f"SELECT DISTINCT e{level}.v FROM edge e{level} (v, w) JOIN ( {text} ) "
            f"AS t{level} ON ( e{level}.w = t{level}.v )"
        )
    return text


def attempt(stage, error_class, *args):
    """The stage's result, or ``None`` once its failure is seen to be the
    typed too-deep error (anything else, ``RecursionError`` included,
    propagates and fails the test)."""
    try:
        return stage(*args)
    except error_class as error:
        assert re.search(TOO_DEEP, str(error)), error
        return None


@pytest.mark.parametrize("method", ["straightforward", "early", "bucket"])
@pytest.mark.parametrize("atoms", [200, 1200])
def test_chain_goes_through_or_names_its_depth(atoms, method):
    text = attempt(generate_sql, SqlSemanticError, chain(atoms), method)
    tree = text and attempt(parse, SqlSyntaxError, text)
    answer = tree and attempt(execute, SqlSemanticError, tree, loop_database())
    if answer is not None:
        assert answer.rows == {(1,)}


def test_1200_atoms_is_beyond_every_recursive_stage():
    """At the default limit nothing recursive gets through 1200 levels, so
    this exercises each stage's own error rather than the first one's."""
    query = chain(1200)
    for method in ("straightforward", "early", "bucket"):
        with pytest.raises(SqlSemanticError, match=TOO_DEEP):
            generate_sql(query, method)
    tree = nested_subqueries(1200)
    assert subquery_depth(tree) == 1200
    assert nesting_depth(tree) == 2399
    with pytest.raises(SqlSemanticError, match="nesting depth 2399 "):
        render(tree)
    with pytest.raises(SqlSemanticError, match="nesting depth 2399 "):
        execute(tree, loop_database())
    # 1199 subquery parentheses and the innermost column list's, which is
    # where the reported position points.
    with pytest.raises(SqlSyntaxError, match="nesting depth 1200 ") as excinfo:
        parse(nested_subquery_text(1200))
    text = nested_subquery_text(1200)
    assert text[excinfo.value.position - 8 :].startswith("edge e0 (v, w) )")


def test_shallow_nesting_still_works_end_to_end():
    tree = nested_subqueries(30)
    assert parse(render(tree)) == tree
    assert parse(nested_subquery_text(30)) == tree
    assert execute(tree, loop_database()).rows == {(1,)}
