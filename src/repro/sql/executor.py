"""Executor for the SQL subset — the stand-in for the PostgreSQL backend.

Evaluates a parsed :class:`~repro.sql.ast.SelectQuery` over a
:class:`~repro.relalg.database.Database`, following the query's explicit
structure exactly: nested joins evaluate in their parenthesized order,
subqueries materialize (with ``DISTINCT``, as the paper's generated SQL
requests), and a comma-list ``FROM`` folds left to right applying every
``WHERE`` equality as soon as both of its sides are in scope — i.e. it
executes a left-deep plan in ``FROM`` order, which is how the naive
method's planner-chosen order is exercised.

Columns are qualified internally as ``alias.column`` so that, like SQL,
both ``e1.v1`` and ``e2.v1`` can coexist in a join's output.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import SqlSemanticError
from repro.relalg.database import Database
from repro.relalg.relation import Relation, _key_getter
from repro.relalg.stats import ExecutionStats
from repro.sql.ast import (
    ColumnRef,
    Condition,
    Equality,
    Exists,
    FromItem,
    JoinExpr,
    Literal,
    SelectQuery,
    SubqueryRef,
    TableRef,
    nesting_depth,
    too_deep,
)


def execute(
    query: SelectQuery,
    database: Database,
    stats: ExecutionStats | None = None,
    from_order: Sequence[int] | None = None,
) -> Relation:
    """Evaluate ``query`` and return its result relation.

    Parameters
    ----------
    query:
        A parsed select query.
    database:
        The catalog of base relations.
    stats:
        Optional counter sink (accumulated across all subqueries).
    from_order:
        Optional permutation of the *top-level* comma-separated ``FROM``
        items — this is how the planner simulator's chosen join order is
        executed for naive-form queries.

    Raises :class:`~repro.errors.SqlSemanticError` for a query nested
    beyond the interpreter's recursion limit, among other things.
    """
    stats = stats if stats is not None else ExecutionStats()
    try:
        return _Executor(database, stats).run(query, from_order)
    except RecursionError:
        raise SqlSemanticError(too_deep(nesting_depth(query))) from None


def execute_with_stats(
    query: SelectQuery,
    database: Database,
    from_order: Sequence[int] | None = None,
) -> tuple[Relation, ExecutionStats]:
    """Like :func:`execute` but also returns fresh statistics."""
    stats = ExecutionStats()
    result = execute(query, database, stats=stats, from_order=from_order)
    return result, stats


class _Executor:
    def __init__(self, database: Database, stats: ExecutionStats) -> None:
        self._database = database
        self._stats = stats

    # ------------------------------------------------------------------
    def run(
        self, query: SelectQuery, from_order: Sequence[int] | None = None
    ) -> Relation:
        items = list(query.from_items)
        if from_order is not None:
            if sorted(from_order) != list(range(len(items))):
                raise SqlSemanticError(
                    "from_order must be a permutation of the top-level FROM items"
                )
            items = [items[i] for i in from_order]
        _check_alias_uniqueness(query)

        current, pending = self._fold_from(items, query.where.equalities)
        if pending:
            dangling = ", ".join(str(eq) for eq in pending)
            raise SqlSemanticError(f"WHERE references unknown columns: {dangling}")
        for exists in query.where.exists:
            current = self._semijoin_exists(current, exists)
        return self._project_select(query, current)

    # ------------------------------------------------------------------
    def _eval_from_item(self, item: FromItem) -> Relation:
        if isinstance(item, TableRef):
            return self._eval_table_ref(item)
        if isinstance(item, SubqueryRef):
            inner = self.run(item.query)
            qualified = inner.rename(
                {column: f"{item.alias}.{column}" for column in inner.columns}
            )
            return qualified
        return self._eval_join(item)

    def _eval_table_ref(self, ref: TableRef) -> Relation:
        base = self._database.get(ref.relation)
        if len(ref.columns) != base.arity:
            raise SqlSemanticError(
                f"{ref.relation!r} has arity {base.arity}, alias {ref.alias!r} "
                f"renames {len(ref.columns)} columns"
            )
        mapping = {
            old: f"{ref.alias}.{new}" for old, new in zip(base.columns, ref.columns)
        }
        relation = base.rename(mapping)
        self._stats.scans += 1
        self._stats.record_output(relation.cardinality, relation.arity)
        return relation

    def _eval_join(self, join: JoinExpr) -> Relation:
        left = self._eval_from_item(join.left)
        right = self._eval_from_item(join.right)
        pairs, left_filters, right_filters = _split_condition(
            join.condition, set(left.columns), set(right.columns)
        )
        for column, other in left_filters:
            left = _apply_filter(left, column, other)
        for column, other in right_filters:
            right = _apply_filter(right, column, other)
        return self._merge(left, right, pairs)

    # ------------------------------------------------------------------
    def _merge(
        self, left: Relation, right: Relation, pairs: tuple[tuple[str, str], ...]
    ) -> Relation:
        """Equijoin ``left`` and ``right`` on the given column pairs
        (cross product when there are none), keeping every column of both
        sides — SQL join semantics."""
        overlap = set(left.columns).intersection(right.columns)
        if overlap:
            raise SqlSemanticError(
                f"duplicate qualified columns across join: {sorted(overlap)}"
            )
        # Two valid headers with no name in common concatenate to a valid one.
        header = left.columns + right.columns
        if not pairs:
            rows = frozenset(l + r for l in left.rows for r in right.rows)
        else:
            key_of = _key_getter([left.column_index(a) for a, _ in pairs])
            matches = right._key_index(tuple(b for _, b in pairs)).get
            rows = frozenset(
                lrow + rrow for lrow in left.rows for rrow in matches(key_of(lrow), ())
            )
        result = Relation._from_trusted(header, rows)
        self._stats.record_join(left.cardinality, right.cardinality, result.cardinality)
        self._stats.record_output(result.cardinality, result.arity)
        return result

    def _fold_from(
        self, items: Sequence[FromItem], equalities: Sequence[Equality]
    ) -> tuple[Relation, list[Equality]]:
        """Fold a comma-list ``FROM`` left to right by cross product,
        applying each ``WHERE`` equality, in listed order, as soon as every
        column it names is in scope; returns the relation and the
        equalities whose columns never were.

        Equalities are indexed by the columns they wait for, so an item
        looks only at the ones that name one of its own columns."""
        names = [
            [
                f"{op.table}.{op.column}"
                for op in (equality.left, equality.right)
                if isinstance(op, ColumnRef)
            ]
            for equality in equalities
        ]
        waiting: dict[str, list[int]] = {}
        for number, columns in enumerate(names):
            for column in columns:
                waiting.setdefault(column, []).append(number)
        applied: set[int] = set()
        in_scope: set[str] = set()
        current: Relation | None = None
        for item in items:
            relation = self._eval_from_item(item)
            # No equijoin pairs: a cross product, filtered just below.
            current = relation if current is None else self._merge(current, relation, ())
            in_scope.update(relation.columns)
            ready = {
                number
                for column in relation.columns
                for number in waiting.get(column, ())
                if in_scope.issuperset(names[number])
            }
            for number in sorted(ready):
                current = _apply_equality(current, equalities[number])
                self._stats.record_output(current.cardinality, current.arity)
            applied |= ready
        assert current is not None  # grammar guarantees >= 1 FROM item
        return current, [eq for n, eq in enumerate(equalities) if n not in applied]

    # ------------------------------------------------------------------
    def _semijoin_exists(self, outer: Relation, exists: Exists) -> Relation:
        """Filter ``outer`` by one ``EXISTS`` conjunct — the relational
        semijoin.

        The inner query is evaluated in its own scope; WHERE conjuncts
        that reference the enclosing scope (correlated equalities) become
        the semijoin condition.  An uncorrelated ``EXISTS`` degenerates to
        a nonemptiness filter, matching ``Relation.semijoin``.
        """
        query = exists.query
        _check_alias_uniqueness(query)
        inner, pending = self._fold_from(query.from_items, query.where.equalities)
        for nested in query.where.exists:
            inner = self._semijoin_exists(inner, nested)
        # Whatever is still pending must correlate with the enclosing
        # scope: equalities between one inner and one outer column, or
        # filters on outer columns.
        outer_columns = set(outer.columns)
        inner_columns = set(inner.columns)
        pairs: list[tuple[str, str]] = []  # (inner column, outer column)
        for equality in pending:
            left_op, right_op = equality.left, equality.right
            if isinstance(left_op, ColumnRef) and isinstance(right_op, ColumnRef):
                a = f"{left_op.table}.{left_op.column}"
                b = f"{right_op.table}.{right_op.column}"
                if a in inner_columns and b in outer_columns:
                    pairs.append((a, b))
                    continue
                if b in inner_columns and a in outer_columns:
                    pairs.append((b, a))
                    continue
            else:
                ref = left_op if isinstance(left_op, ColumnRef) else right_op
                if isinstance(ref, ColumnRef):
                    name = f"{ref.table}.{ref.column}"
                    if name in outer_columns:
                        outer = _apply_equality(outer, equality)
                        continue
            raise SqlSemanticError(
                f"EXISTS condition references unknown columns: {equality}"
            )
        keep: list[str] = []
        rename: dict[str, str] = {}
        for inner_col, outer_col in pairs:
            if inner_col in rename:
                if rename[inner_col] != outer_col:
                    # One inner column equated with two outer columns:
                    # those outer columns must also agree with each other.
                    outer = outer.select_col_eq(rename[inner_col], outer_col)
                continue
            if outer_col in rename.values():
                # Two inner columns equated with the same outer column:
                # they must agree within the inner result.
                prior = next(ic for ic, oc in rename.items() if oc == outer_col)
                inner = inner.select_col_eq(prior, inner_col)
                continue
            rename[inner_col] = outer_col
            keep.append(inner_col)
        witness = inner.project(keep).rename(rename)
        result = outer.semijoin(witness)
        self._stats.semijoins += 1
        self._stats.record_output(result.cardinality, result.arity)
        return result

    # ------------------------------------------------------------------
    def _project_select(self, query: SelectQuery, current: Relation) -> Relation:
        qualified = []
        for ref in query.select:
            name = f"{ref.table}.{ref.column}"
            if name not in current.columns:
                raise SqlSemanticError(
                    f"SELECT references unknown column {name!r}; "
                    f"in scope: {sorted(current.columns)}"
                )
            qualified.append(name)
        outputs = query.output_columns
        if len(set(outputs)) != len(outputs):
            raise SqlSemanticError(
                f"ambiguous output column names {outputs!r}; "
                "the SQL subset requires distinct SELECT column parts"
            )
        projected = current.project(qualified)
        result = projected.rename(dict(zip(qualified, outputs)))
        self._stats.projections += 1
        self._stats.record_output(result.cardinality, result.arity)
        return result


# ----------------------------------------------------------------------
# Condition plumbing
# ----------------------------------------------------------------------
def _split_condition(
    condition: Condition, left_columns: set[str], right_columns: set[str]
) -> tuple[
    tuple[tuple[str, str], ...],
    list[tuple[str, object]],
    list[tuple[str, object]],
]:
    """Split an ON condition into cross-side join pairs and per-side
    filters.  Filters are ``(column, other)`` where ``other`` is a column
    name (same side) or a literal value."""
    pairs: list[tuple[str, str]] = []
    left_filters: list[tuple[str, object]] = []
    right_filters: list[tuple[str, object]] = []
    if condition.exists:
        raise SqlSemanticError("EXISTS is only supported in WHERE clauses, not ON")
    for equality in condition.equalities:
        left_op, right_op = equality.left, equality.right
        if isinstance(left_op, Literal) and isinstance(right_op, Literal):
            raise SqlSemanticError(f"constant condition {equality} is not supported")
        if isinstance(left_op, Literal) or isinstance(right_op, Literal):
            ref = left_op if isinstance(left_op, ColumnRef) else right_op
            literal = right_op if isinstance(right_op, Literal) else left_op
            assert isinstance(ref, ColumnRef) and isinstance(literal, Literal)
            name = f"{ref.table}.{ref.column}"
            if name in left_columns:
                left_filters.append((name, _LiteralValue(literal.value)))
            elif name in right_columns:
                right_filters.append((name, _LiteralValue(literal.value)))
            else:
                raise SqlSemanticError(f"ON references unknown column {name!r}")
            continue
        a = f"{left_op.table}.{left_op.column}"
        b = f"{right_op.table}.{right_op.column}"
        if a in left_columns and b in right_columns:
            pairs.append((a, b))
        elif b in left_columns and a in right_columns:
            pairs.append((b, a))
        elif a in left_columns and b in left_columns:
            left_filters.append((a, b))
        elif a in right_columns and b in right_columns:
            right_filters.append((a, b))
        else:
            missing = [c for c in (a, b) if c not in left_columns | right_columns]
            raise SqlSemanticError(f"ON references unknown columns {missing!r}")
    return tuple(pairs), left_filters, right_filters


class _LiteralValue:
    """Marker wrapper distinguishing literal filters from column names."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value


def _apply_filter(relation: Relation, column: str, other: object) -> Relation:
    if isinstance(other, _LiteralValue):
        return relation.select_eq(column, other.value)
    assert isinstance(other, str)
    return relation.select_col_eq(column, other)


def _apply_equality(relation: Relation, equality: Equality) -> Relation:
    left_op, right_op = equality.left, equality.right
    if isinstance(left_op, ColumnRef) and isinstance(right_op, ColumnRef):
        return relation.select_col_eq(
            f"{left_op.table}.{left_op.column}", f"{right_op.table}.{right_op.column}"
        )
    ref = left_op if isinstance(left_op, ColumnRef) else right_op
    literal = right_op if isinstance(right_op, Literal) else left_op
    assert isinstance(ref, ColumnRef) and isinstance(literal, Literal)
    return relation.select_eq(f"{ref.table}.{ref.column}", literal.value)


def _check_alias_uniqueness(query: SelectQuery) -> None:
    """Reject duplicate aliases within one FROM scope."""
    seen: set[str] = set()
    duplicates: set[str] = set()
    stack = list(query.from_items)
    while stack:
        item = stack.pop()
        if isinstance(item, JoinExpr):
            stack.append(item.left)
            stack.append(item.right)
        elif item.alias in seen:
            duplicates.add(item.alias)
        else:
            seen.add(item.alias)
    if duplicates:
        raise SqlSemanticError(f"duplicate aliases in FROM: {sorted(duplicates)}")
