"""SQL generation for the paper's five query-construction methods.

Sections 3–5 and Appendix A: given a conjunctive query, emit

- **naive** SQL — comma-list ``FROM`` with ``WHERE`` equalities tying each
  variable occurrence to its first occurrence (the planner then owns the
  join order);
- **straightforward** SQL — a parenthesized ``JOIN ... ON`` chain pinning
  the listed order;
- **early projection** / **reordering** / **bucket elimination** SQL —
  nested subqueries (``( SELECT DISTINCT live... ) AS t_k``), one per
  projection point, pinning both join order and projection points.

The structural methods all render through :func:`plan_to_sql`, which
serializes any :mod:`repro.plans` tree into the paper's nested-subquery
style: scans become aliased table references (``edge e1 (v1, v2)``),
projection nodes become subqueries, and each join's ``ON`` clause equates
every shared variable with its first provider — exactly the
``p(v)``-pointer scheme of Section 3.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.core.buckets import bucket_elimination_plan
from repro.core.early_projection import early_projection_plan, straightforward_plan
from repro.core.query import ConjunctiveQuery
from repro.core.reordering import reordering_plan
from repro.errors import SqlSemanticError
from repro.plans import Join, Plan, Project, Scan, Semijoin, children
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
    render,
    too_deep,
)

#: SQL-generation methods in the order the paper introduces them.
SQL_METHODS: tuple[str, ...] = (
    "naive",
    "straightforward",
    "early",
    "reordering",
    "bucket",
)


# ----------------------------------------------------------------------
# Alias bookkeeping
# ----------------------------------------------------------------------
class _Aliases:
    """Dispenses ``e1, e2, ...`` scan aliases and ``t1, t2, ...`` subquery
    aliases.  When the originating query is known, scans matching its atoms
    reuse the paper's atom numbering."""

    def __init__(self, query: ConjunctiveQuery | None) -> None:
        self._scan_counter = 0
        self._subquery_counter = 0
        self._atom_pool: dict[tuple, list[int]] = {}
        if query is not None:
            for index, atom in enumerate(query.atoms):
                key = (atom.relation, tuple(t for t in atom.terms))
                self._atom_pool.setdefault(key, []).append(index)
            self._scan_counter = len(query.atoms)

    def scan_alias(self, scan: Scan) -> str:
        key = _scan_key(scan)
        pool = self._atom_pool.get(key)
        if pool:
            return f"e{pool.pop(0) + 1}"
        self._scan_counter += 1
        return f"e{self._scan_counter}"

    def subquery_alias(self) -> str:
        self._subquery_counter += 1
        return f"t{self._subquery_counter}"


def _scan_key(scan: Scan) -> tuple:
    """Reconstruct the positional term tuple of the atom a scan encodes."""
    from repro.core.query import Const

    constants = dict(scan.constants)
    terms: list = []
    var_iter = iter(scan.variables)
    total = len(scan.variables) + len(scan.constants)
    for position in range(total):
        if position in constants:
            terms.append(Const(constants[position]))
        else:
            terms.append(next(var_iter))
    return (scan.relation, tuple(terms))


# ----------------------------------------------------------------------
# Units: join operands with an exposure map
# ----------------------------------------------------------------------
class _Unit:
    """One join operand: its AST node, alias, the variables it exposes
    (variable -> exposed column name), and self-conditions (repeated
    variables / constants) that must hold on it alone."""

    def __init__(
        self,
        item: FromItem,
        alias: str,
        exposes: dict[str, str],
        self_conditions: tuple[Equality, ...] = (),
    ) -> None:
        self.item = item
        self.alias = alias
        self.exposes = exposes
        self.self_conditions = self_conditions

    def ref(self, variable: str) -> ColumnRef:
        return ColumnRef(self.alias, self.exposes[variable])


def _scan_unit(scan: Scan, aliases: _Aliases) -> _Unit:
    """Render a scan as a table reference.

    Positional columns are named after the scan's variables; repeated
    variables get suffixed fresh names plus a self-equality, constants get
    fresh names plus a literal equality — both attached as
    ``self_conditions`` for the enclosing join to pick up.
    """
    alias = aliases.scan_alias(scan)
    constants = dict(scan.constants)
    total = len(scan.variables) + len(scan.constants)
    columns: list[str] = []
    exposes: dict[str, str] = {}
    conditions: list[Equality] = []
    taken: set[str] = set(scan.variables)
    var_iter = iter(scan.variables)

    def fresh(base: str) -> str:
        candidate = base
        serial = 2
        while candidate in taken:
            candidate = f"{base}_{serial}"
            serial += 1
        taken.add(candidate)
        return candidate

    for position in range(total):
        if position in constants:
            name = fresh(f"c{position + 1}")
            columns.append(name)
            conditions.append(
                Equality(ColumnRef(alias, name), Literal(constants[position]))
            )
            continue
        variable = next(var_iter)
        if variable in exposes:
            name = fresh(variable)
            columns.append(name)
            conditions.append(
                Equality(
                    ColumnRef(alias, exposes[variable]), ColumnRef(alias, name)
                )
            )
        else:
            columns.append(variable)
            exposes[variable] = variable
    item = TableRef(relation=scan.relation, alias=alias, columns=tuple(columns))
    return _Unit(item, alias, exposes, tuple(conditions))


# ----------------------------------------------------------------------
# Plan -> SQL
# ----------------------------------------------------------------------
def plan_to_sql(plan: Plan, query: ConjunctiveQuery | None = None) -> SelectQuery:
    """Serialize a plan into the paper's nested-subquery SQL.

    The plan's root must produce at least one column (SQL cannot select
    nothing; the paper emulates Boolean queries with a single selected
    variable, and so do the workload generators), and must not nest beyond
    the interpreter's recursion limit: both raise
    :class:`~repro.errors.SqlSemanticError`.
    """
    if not plan.columns:
        raise SqlSemanticError(
            "cannot render a 0-ary plan as SQL; emulate Boolean queries by "
            "keeping one variable free, as the paper does"
        )
    aliases = _Aliases(query)
    if not isinstance(plan, Project):
        plan = Project(plan, plan.columns)
    try:
        return _render_select(plan, aliases)
    except RecursionError:
        raise SqlSemanticError(too_deep(_plan_depth(plan))) from None


def _plan_depth(plan: Plan) -> int:
    depth = 0
    stack = [(plan, 1)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        stack.extend((child, level + 1) for child in children(node))
    return depth


def _render_select(node: Project, aliases: _Aliases) -> SelectQuery:
    if not node.columns:
        raise SqlSemanticError(
            "intermediate projection to zero columns is not expressible in "
            "the SQL subset"
        )
    if isinstance(node.child, Semijoin):
        # Project over a semijoin renders as one SELECT with an EXISTS
        # conjunct, not a subquery wrapped in another SELECT.
        return _render_semijoin(node.child, aliases, out_columns=node.columns)
    units = [_as_unit(child, aliases) for child in _flatten_joins(node.child)]
    from_item = _fold_units(units)
    select = tuple(_provider_ref(units, column) for column in node.columns)
    where = Condition()
    if len(units) == 1 and units[0].self_conditions:
        # No join to carry the self-conditions — attach them as WHERE.
        where = Condition(units[0].self_conditions)
    return SelectQuery(select=select, from_items=(from_item,), where=where)


def _render_semijoin(
    node: Semijoin, aliases: _Aliases, out_columns: tuple[str, ...] | None = None
) -> SelectQuery:
    """Render ``left ⋉ right`` as the left side's SELECT with a correlated
    ``EXISTS`` subquery over the right side — the standard SQL spelling of
    a semijoin, and the one the parser maps back to :class:`Semijoin`."""
    if not node.right.columns:
        raise SqlSemanticError(
            "cannot render a semijoin against a 0-ary operand as SQL"
        )
    left_units = [_as_unit(child, aliases) for child in _flatten_joins(node.left)]
    from_item = _fold_units(left_units)
    columns = node.columns if out_columns is None else out_columns
    select = tuple(_provider_ref(left_units, column) for column in columns)
    outer_equalities: list[Equality] = []
    if len(left_units) == 1:
        outer_equalities.extend(left_units[0].self_conditions)

    right_units = [_as_unit(child, aliases) for child in _flatten_joins(node.right)]
    right_from = _fold_units(right_units)
    inner_equalities: list[Equality] = []
    if len(right_units) == 1:
        inner_equalities.extend(right_units[0].self_conditions)
    right_columns = set(node.right.columns)
    for variable in node.columns:
        if variable in right_columns:
            inner_equalities.append(
                Equality(
                    _provider_ref(right_units, variable),
                    _provider_ref(left_units, variable),
                )
            )
    inner = SelectQuery(
        select=(_provider_ref(right_units, node.right.columns[0]),),
        from_items=(right_from,),
        where=Condition(tuple(inner_equalities)),
    )
    where = Condition(tuple(outer_equalities), (Exists(inner),))
    return SelectQuery(select=select, from_items=(from_item,), where=where)


def _flatten_joins(plan: Plan) -> list[Plan]:
    """Flatten a left-deep join chain into its operands, listed order."""
    operands: list[Plan] = []
    while isinstance(plan, Join):
        operands.append(plan.right)
        plan = plan.left
    operands.append(plan)
    operands.reverse()
    return operands


def _as_unit(plan: Plan, aliases: _Aliases) -> _Unit:
    if isinstance(plan, Scan):
        return _scan_unit(plan, aliases)
    if isinstance(plan, Project):
        subquery = _render_select(plan, aliases)
        alias = aliases.subquery_alias()
        exposes = {column: column for column in plan.columns}
        return _Unit(SubqueryRef(subquery, alias), alias, exposes)
    if isinstance(plan, Semijoin):
        subquery = _render_semijoin(plan, aliases)
        alias = aliases.subquery_alias()
        exposes = {column: column for column in plan.columns}
        return _Unit(SubqueryRef(subquery, alias), alias, exposes)
    # A bare nested Join (right operand is itself a join chain): wrap its
    # own operands recursively into one grouped join expression.
    units = [_as_unit(child, aliases) for child in _flatten_joins(plan)]
    grouped = _fold_units(units)
    exposes: dict[str, str] = {}
    merged_self: list[Equality] = []
    for unit in units:
        for variable in unit.exposes:
            exposes.setdefault(variable, unit.exposes[variable])
    composite = _Unit(grouped, "", exposes, tuple(merged_self))
    composite.ref = _composite_ref(units)  # type: ignore[method-assign]
    return composite


def _composite_ref(units: list[_Unit]):
    def ref(variable: str) -> ColumnRef:
        for unit in units:
            if variable in unit.exposes:
                return unit.ref(variable)
        raise SqlSemanticError(f"variable {variable!r} not exposed by join group")

    return ref


def _fold_units(units: list[_Unit]) -> FromItem:
    """Nest units the way the paper writes them: the innermost
    parenthesized join holds the first two operands and each later operand
    wraps around the outside, its ON clause equating every variable it
    shares with the earlier operands (``TRUE`` when none)."""
    expr: FromItem = units[0].item
    first_provider = dict.fromkeys(units[0].exposes, units[0])
    for index in range(1, len(units)):
        unit = units[index]
        equalities = list(unit.self_conditions)
        if index == 1:
            equalities.extend(units[0].self_conditions)
        for variable in sorted(unit.exposes):
            provider = first_provider.setdefault(variable, unit)
            if provider is not unit:
                equalities.append(Equality(unit.ref(variable), provider.ref(variable)))
        expr = JoinExpr(left=unit.item, right=expr, condition=Condition(tuple(equalities)))
    return expr


def _provider_ref(units: list[_Unit], variable: str) -> ColumnRef:
    for unit in units:
        if variable in unit.exposes:
            return unit.ref(variable)
    raise SqlSemanticError(f"variable {variable!r} not exposed by any FROM unit")


# ----------------------------------------------------------------------
# The five methods
# ----------------------------------------------------------------------
def naive_sql(query: ConjunctiveQuery) -> SelectQuery:
    """Section 3's naive form: flat ``FROM`` comma list plus ``WHERE``
    equalities pointing each occurrence at the first occurrence."""
    if not query.free_variables:
        raise SqlSemanticError(
            "SQL cannot select zero columns; emulate Boolean queries with "
            "one free variable, as the paper does"
        )
    aliases = _Aliases(query)
    units = [_scan_unit(atom.to_scan(), aliases) for atom in query.atoms]
    equalities: list[Equality] = []
    first_provider: dict[str, _Unit] = {}
    for unit in units:
        equalities.extend(unit.self_conditions)
        for variable in unit.exposes:
            provider = first_provider.get(variable)
            if provider is None:
                first_provider[variable] = unit
            else:
                equalities.append(Equality(unit.ref(variable), provider.ref(variable)))
    select = tuple(
        first_provider[variable].ref(variable) for variable in query.free_variables
    )
    return SelectQuery(
        select=select,
        from_items=tuple(unit.item for unit in units),
        where=Condition(tuple(equalities)),
    )


def straightforward_sql(query: ConjunctiveQuery) -> SelectQuery:
    """Section 3's straightforward form: explicit parenthesized join chain
    in listed order, no projection pushing."""
    return plan_to_sql(straightforward_plan(query), query)


def early_projection_sql(query: ConjunctiveQuery) -> SelectQuery:
    """Section 4's early-projection form: one subquery per projection
    point along the listed order."""
    return plan_to_sql(early_projection_plan(query), query)


def reordering_sql(
    query: ConjunctiveQuery, rng: random.Random | None = None
) -> SelectQuery:
    """Section 4's reordering form: greedy atom permutation, then early
    projection."""
    return plan_to_sql(reordering_plan(query, rng=rng), query)


def bucket_elimination_sql(
    query: ConjunctiveQuery,
    rng: random.Random | None = None,
    order: Sequence[str] | None = None,
    heuristic: str = "mcs",
) -> SelectQuery:
    """Section 5's bucket-elimination form: one subquery per bucket,
    processed along the (MCS by default) numbering."""
    bucket_plan = bucket_elimination_plan(
        query, order=order, heuristic=heuristic, rng=rng
    )
    return plan_to_sql(bucket_plan.plan, query)


def yannakakis_sql(query: ConjunctiveQuery) -> SelectQuery:
    """Section 7's semijoin direction: the plan-level Yannakakis method —
    full-reducer semijoin passes rendered as correlated ``EXISTS``
    subqueries, then the projecting join phase.  Acyclic queries only
    (raises :class:`~repro.errors.QueryStructureError` otherwise)."""
    from repro.core.semijoins import yannakakis_plan

    return plan_to_sql(yannakakis_plan(query), query)


def generate_sql(
    query: ConjunctiveQuery,
    method: str,
    rng: random.Random | None = None,
) -> str:
    """Render ``query`` to SQL text with the chosen method (one of
    :data:`SQL_METHODS`, or ``"yannakakis"`` for acyclic queries)."""
    builders = {
        "naive": lambda: naive_sql(query),
        "straightforward": lambda: straightforward_sql(query),
        "early": lambda: early_projection_sql(query),
        "reordering": lambda: reordering_sql(query, rng=rng),
        "bucket": lambda: bucket_elimination_sql(query, rng=rng),
        "yannakakis": lambda: yannakakis_sql(query),
    }
    try:
        builder = builders[method]
    except KeyError:
        raise SqlSemanticError(
            f"unknown SQL method {method!r}; expected one of "
            f"{SQL_METHODS + ('yannakakis',)}"
        ) from None
    return render(builder())
