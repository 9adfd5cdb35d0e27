"""AST for the SQL subset the paper's methods emit.

The fragment (Appendix A of the paper) is:

- ``SELECT [DISTINCT] a.c, b.d`` — qualified column references only;
- ``FROM`` with either a comma list of table references (*naive* form) or
  nested ``JOIN ... ON ( ... )`` chains, parenthesized to force the join
  order (*straightforward* and subquery forms);
- table references with positional column renaming: ``edge e1 (v1, v2)``;
- subqueries as join operands: ``( SELECT ... ) AS t1``;
- ``WHERE``/``ON`` conditions that are conjunctions of equalities between
  column references (or a literal constant), plus the degenerate ``TRUE``;
- ``EXISTS ( select-query )`` conjuncts in ``WHERE`` — the correlated
  subqueries the generator emits for :class:`repro.plans.Semijoin` nodes.

Every node renders back to SQL text via :func:`render`; the pretty printer
nests subqueries with indentation, matching the paper's listings closely
enough to be read side by side.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Union

from repro.errors import SqlSemanticError


@dataclass(frozen=True)
class ColumnRef:
    """A qualified column reference ``table.column``."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class Literal:
    """A constant in a condition (integer or string)."""

    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


Operand = Union[ColumnRef, Literal]


@dataclass(frozen=True)
class Equality:
    """One conjunct ``left = right``."""

    left: Operand
    right: Operand

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class Exists:
    """One ``EXISTS ( select-query )`` conjunct.

    The inner query may reference the enclosing scope's aliases (a
    correlated subquery); this is how semijoins render without widening
    the outer schema.
    """

    query: "SelectQuery"

    def __str__(self) -> str:
        inner = _render_query(self.query, 1)
        return f"EXISTS (\n{inner})"


@dataclass(frozen=True)
class Condition:
    """A conjunction of equalities and ``EXISTS`` tests; empty means
    ``TRUE``."""

    equalities: tuple[Equality, ...] = ()
    exists: tuple["Exists", ...] = ()

    @property
    def is_true(self) -> bool:
        """Whether this is the trivial ``TRUE`` condition."""
        return not self.equalities and not self.exists

    def __str__(self) -> str:
        if self.is_true:
            return "TRUE"
        conjuncts = [str(eq) for eq in self.equalities]
        conjuncts.extend(str(ex) for ex in self.exists)
        return " AND ".join(conjuncts)


@dataclass(frozen=True)
class TableRef:
    """``relation alias (col1, ..., colk)`` — positional column renaming."""

    relation: str
    alias: str
    columns: tuple[str, ...]

    def __str__(self) -> str:
        cols = ", ".join(self.columns)
        return f"{self.relation} {self.alias} ({cols})"


@dataclass(frozen=True)
class SubqueryRef:
    """``( select-query ) AS alias``."""

    query: "SelectQuery"
    alias: str


@dataclass(frozen=True)
class JoinExpr:
    """``left JOIN right ON ( condition )``.

    Parenthesization in the rendered SQL always makes the tree shape
    explicit, as the paper does to pin the evaluation order.
    """

    left: "FromItem"
    right: "FromItem"
    condition: Condition


FromItem = Union[TableRef, SubqueryRef, JoinExpr]


@dataclass(frozen=True)
class SelectQuery:
    """``SELECT [DISTINCT] refs FROM items [WHERE condition]``."""

    select: tuple[ColumnRef, ...]
    from_items: tuple[FromItem, ...]
    where: Condition = Condition()
    distinct: bool = True

    @property
    def output_columns(self) -> tuple[str, ...]:
        """Result column names — the column part of each select ref,
        PostgreSQL-style."""
        return tuple(ref.column for ref in self.select)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render(query: SelectQuery, indent: int = 0, semicolon: bool = True) -> str:
    """Render a query to SQL text, nesting subqueries with indentation.

    Raises :class:`~repro.errors.SqlSemanticError` for a query nested
    beyond the interpreter's recursion limit."""
    try:
        text = _render_query(query, indent)
    except RecursionError:
        raise SqlSemanticError(too_deep(nesting_depth(query))) from None
    return text + (";" if semicolon else "")


def _pad(indent: int) -> str:
    return "   " * indent


def _render_query(query: SelectQuery, indent: int) -> str:
    pad = _pad(indent)
    distinct = "DISTINCT " if query.distinct else ""
    select = ", ".join(str(ref) for ref in query.select)
    lines = [f"{pad}SELECT {distinct}{select}"]
    items = ",\n".join(
        _render_from_item(item, indent, top_level=True) for item in query.from_items
    )
    lines.append(f"{pad}FROM {items.lstrip()}")
    if not query.where.is_true:
        lines.append(f"{pad}WHERE {query.where}")
    return "\n".join(lines)


def _render_from_item(item: FromItem, indent: int, top_level: bool = False) -> str:
    pad = _pad(indent)
    if isinstance(item, TableRef):
        return f"{pad}{item}"
    if isinstance(item, SubqueryRef):
        inner = _render_query(item.query, indent + 1)
        return f"{pad}(\n{inner}) AS {item.alias}"
    left = _render_from_item(item.left, indent).lstrip()
    right = _render_right_operand(item.right, indent)
    return f"{pad}{left} JOIN {right} ON ( {item.condition} )"


def _render_right_operand(item: FromItem, indent: int) -> str:
    if isinstance(item, TableRef):
        return str(item)
    if isinstance(item, SubqueryRef):
        inner = _render_query(item.query, indent + 1)
        return f"(\n{inner}) AS {item.alias}"
    # Nested join: parenthesize to pin the shape.
    inner = _render_from_item(item, indent).lstrip()
    return f"({inner})"


def iter_subqueries(query: SelectQuery):
    """Yield ``query`` and every nested subquery (including ``EXISTS``
    bodies), outermost first."""
    queries: list[SelectQuery] = [query]
    while queries:
        current = queries.pop()
        yield current
        for ex in current.where.exists:
            queries.append(ex.query)
        stack: list[FromItem] = list(current.from_items)
        while stack:
            item = stack.pop()
            if isinstance(item, SubqueryRef):
                queries.append(item.query)
            elif isinstance(item, JoinExpr):
                stack.append(item.left)
                stack.append(item.right)
                for ex in item.condition.exists:
                    queries.append(ex.query)


def subquery_depth(query: SelectQuery) -> int:
    """Maximum nesting depth of subqueries (1 for a flat query).

    ``EXISTS`` bodies count as nested subqueries too."""
    return _deepest_level(query, join_step=0)


def nesting_depth(query: SelectQuery) -> int:
    """Like :func:`subquery_depth` with every join counting as a level too:
    how deep a recursive walk of ``query`` has to go."""
    return _deepest_level(query, join_step=1)


def too_deep(depth: int) -> str:
    """The message every recursive consumer of SQL raises, with its own
    error class, in place of a ``RecursionError``."""
    return (
        f"nesting depth {depth} takes more stack frames than the "
        f"interpreter's recursion limit ({sys.getrecursionlimit()}) allows"
    )


def _deepest_level(query: SelectQuery, join_step: int) -> int:
    depth = 1
    queries: list[tuple[SelectQuery, int]] = [(query, 1)]
    while queries:
        current, level = queries.pop()
        depth = max(depth, level)
        for ex in current.where.exists:
            queries.append((ex.query, level + 1))
        stack: list[tuple[FromItem, int]] = [(item, level) for item in current.from_items]
        while stack:
            item, item_level = stack.pop()
            depth = max(depth, item_level)
            if isinstance(item, SubqueryRef):
                queries.append((item.query, item_level + 1))
            elif isinstance(item, JoinExpr):
                stack.append((item.left, item_level + join_step))
                stack.append((item.right, item_level + join_step))
                for ex in item.condition.exists:
                    queries.append((ex.query, item_level + 1))
    return depth
