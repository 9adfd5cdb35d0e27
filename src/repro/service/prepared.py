"""Prepared statements keyed on query *shape*.

Two requests that differ only in their constants — ``q(X) :- graph(X, 3)``
and ``q(X) :- graph(X, 7)`` — should not cost two plans and two sets of
compiled units.  This module canonicalizes a query into its *shape*:
variables are renamed by first occurrence, and every constant becomes a
numbered parameter hole.  Queries with the same shape share one
:class:`PreparedStatement`.

A statement realizes each hole as a **single-row parameter relation**
joined into the query: the atom ``graph(X, 3)`` is rewritten to
``graph(X, P), __param<sid>_0(P)`` with the param atom placed directly
after its host atom (the order-sensitive planning methods then bind the
constant as early as the original would have).  The resulting plan
contains no inline constants, so the plan — and, on the compiled
engines, every compiled unit — is reused verbatim across requests.
Binding a parameter writes the one-row relation through
:meth:`repro.relalg.database.Database.put`, which bumps the relation's
version only when the value actually changed; PR 7's dependency-tracked
caches then evict exactly the entries that scan that parameter relation.
Re-binding the same constant is version-neutral: fully warm caches.

:class:`PreparedStatementCache` is the per-database LRU over
``(shape key, planning method)``.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.core.planner import plan_query
from repro.core.query import Atom, Const, ConjunctiveQuery
from repro.plans import Plan
from repro.relalg.database import Database
from repro.relalg.relation import Relation

#: Prefix of the synthetic relations holding bound parameter values.
#: Names embed the owning statement id, so statements sharing one
#: catalog never clobber each other's bindings.
PARAM_RELATION_PREFIX = "__param"

#: Canonical hole-variable prefix inside a shape template.  Canonical
#: query variables are renamed to ``v0, v1, ...`` so ``p``-prefixed
#: names cannot collide with them.
_HOLE_VARIABLE_PREFIX = "p"


@dataclass(frozen=True)
class QueryShape:
    """The canonical form of a query with constants replaced by holes.

    ``key`` is hashable and equal for any two queries that are identical
    up to variable renaming and constant values; ``template`` is the
    canonical query with hole ``i`` appearing as the plain variable
    ``p<i>``; ``text`` is a human-readable rendering with holes shown as
    ``$i``.
    """

    key: tuple
    template: ConjunctiveQuery
    hole_count: int
    text: str


def canonicalize_query(
    query: ConjunctiveQuery,
) -> tuple[QueryShape, tuple[Any, ...]]:
    """Split ``query`` into its shape and the constants that filled it.

    Returns ``(shape, values)`` where ``values[i]`` is the constant that
    occupied hole ``i`` (holes are numbered in term-scan order, each
    constant *occurrence* its own hole).  ``shape.key`` is equal across
    alpha-renamed queries, so it is the cache key for prepared
    statements.

    Examples
    --------
    >>> from repro.datalog import parse_rule
    >>> s1, v1 = canonicalize_query(parse_rule("q(X) :- edge(X, 3)."))
    >>> s2, v2 = canonicalize_query(parse_rule("q(B) :- edge(B, 7)."))
    >>> s1.key == s2.key
    True
    >>> (v1, v2)
    ((3,), (7,))
    """
    rename: dict[str, str] = {}
    values: list[Any] = []
    key_atoms: list[tuple] = []
    template_atoms: list[Atom] = []
    for atom in query.atoms:
        key_terms: list[tuple] = []
        template_terms: list[Any] = []
        for term in atom.terms:
            if isinstance(term, Const):
                hole = len(values)
                values.append(term.value)
                key_terms.append(("hole", hole))
                template_terms.append(f"{_HOLE_VARIABLE_PREFIX}{hole}")
            else:
                name = rename.setdefault(term, f"v{len(rename)}")
                key_terms.append(("var", name))
                template_terms.append(name)
        key_atoms.append((atom.relation, tuple(key_terms)))
        template_atoms.append(Atom(atom.relation, tuple(template_terms)))
    free = tuple(rename[v] for v in query.free_variables)
    template = ConjunctiveQuery(
        atoms=tuple(template_atoms), free_variables=free
    )
    key = (tuple(key_atoms), free)
    return (
        QueryShape(
            key=key,
            template=template,
            hole_count=len(values),
            text=_render_shape(template, len(values)),
        ),
        tuple(values),
    )


def _render_shape(template: ConjunctiveQuery, hole_count: int) -> str:
    """``q(v0) :- edge(v0, $0).`` — holes shown as ``$i``."""
    hole_names = {
        f"{_HOLE_VARIABLE_PREFIX}{i}": f"${i}" for i in range(hole_count)
    }

    def show(term: str) -> str:
        return hole_names.get(term, term)

    body = ", ".join(
        f"{atom.relation}({', '.join(show(t) for t in atom.terms)})"
        for atom in template.atoms
    )
    head = ", ".join(template.free_variables)
    return f"q({head}) :- {body}."


def shape_to_wire(shape: QueryShape) -> dict:
    """A compact, process-independent encoding of ``shape``.

    This is what crosses the front end/executor boundary: the canonical
    template (whose terms are all plain strings — constants were already
    lifted into ``p<i>`` hole variables), the free-variable list, and
    the hole count.  Executors rebuild the shape with
    :func:`shape_from_wire` and compile it locally, so plans are never
    pickled across processes — only shapes are.
    """
    return {
        "atoms": [
            (atom.relation, tuple(atom.terms)) for atom in shape.template.atoms
        ],
        "free": tuple(shape.template.free_variables),
        "holes": shape.hole_count,
        "text": shape.text,
    }


def shape_from_wire(payload: dict) -> QueryShape:
    """Rebuild a :class:`QueryShape` from :func:`shape_to_wire` output.

    The reconstructed shape's ``key`` equals the original's: the wire
    form *is* the canonical template, and the key is a pure function of
    it.
    """
    atoms = tuple(
        Atom(relation, tuple(terms)) for relation, terms in payload["atoms"]
    )
    free = tuple(payload["free"])
    template = ConjunctiveQuery(atoms=atoms, free_variables=free)
    hole_count = int(payload["holes"])
    hole_names = {
        f"{_HOLE_VARIABLE_PREFIX}{i}" for i in range(hole_count)
    }
    key_atoms = tuple(
        (
            atom.relation,
            tuple(
                ("hole", int(term[1:])) if term in hole_names else ("var", term)
                for term in atom.terms
            ),
        )
        for atom in atoms
    )
    return QueryShape(
        key=(key_atoms, free),
        template=template,
        hole_count=hole_count,
        text=payload.get("text") or _render_shape(template, hole_count),
    )


class PreparedStatement:
    """One query shape under a statement id, planned on first use.

    The statement owns the parameterized query — the shape template with
    each hole variable joined against its single-row parameter relation
    ``__param<sid>_<i>`` — and the plan produced from it.  Both are built
    the first time :attr:`plan` is read, by whoever executes the
    statement: the service's shape registry holds statements it never
    plans.  Per-request work is then just :meth:`bind` (write the
    parameter rows) plus plan execution against a warm engine.
    """

    def __init__(
        self, statement_id: int, shape: QueryShape, method: str
    ) -> None:
        self.statement_id = statement_id
        self.shape = shape
        self.method = method
        self.param_relations = tuple(
            f"{PARAM_RELATION_PREFIX}{statement_id}_{i}"
            for i in range(shape.hole_count)
        )
        # Only the relation names embed the statement id.  A statement
        # id in a *variable* name would reach the plan key of the host
        # atom's scan, which depends on no parameter relation and so
        # would sit in the engines' unit stores long after the
        # statement's eviction emptied its parameter relations.
        self.param_variables = tuple(
            f"__p{i}" for i in range(shape.hole_count)
        )
        self.uses = 0
        self.rebinds = 0

    @property
    def param_count(self) -> int:
        return len(self.param_relations)

    @property
    def columns(self) -> tuple[str, ...]:
        """Canonical output schema (positional: the i-th column is the
        client query's i-th head variable)."""
        return self.shape.template.free_variables

    @cached_property
    def plan(self) -> Plan:
        # Fixed seed: the statement is the unit of plan reuse, so its
        # plan must not depend on when it was prepared.
        return plan_query(self.query, self.method, rng=random.Random(0))

    @cached_property
    def query(self) -> ConjunctiveQuery:
        """The shape template with each hole joined to its parameter
        relation."""
        hole_var = {
            f"{_HOLE_VARIABLE_PREFIX}{i}": self.param_variables[i]
            for i in range(self.shape.hole_count)
        }
        template = self.shape.template
        atoms: list[Atom] = []
        for atom in template.atoms:
            terms = tuple(hole_var.get(t, t) for t in atom.terms)
            atoms.append(Atom(atom.relation, terms))
            # Param atoms ride directly behind their host atom so the
            # order-sensitive methods bind the constant as early as the
            # inline-constant query would have.
            for term in atom.terms:
                if term in hole_var:
                    index = self.param_variables.index(hole_var[term])
                    atoms.append(
                        Atom(
                            self.param_relations[index],
                            (self.param_variables[index],),
                        )
                    )
        return ConjunctiveQuery(
            atoms=tuple(atoms), free_variables=template.free_variables
        )

    def bind(self, database: Database, values: tuple[Any, ...]) -> int:
        """Write ``values`` into the parameter relations; return how many
        actually changed (0 means every cache stays fully warm)."""
        if len(values) != self.param_count:
            raise ValueError(
                f"statement {self.statement_id} takes {self.param_count} "
                f"parameter(s), got {len(values)}"
            )
        changed = 0
        for name, var, value in zip(
            self.param_relations, self.param_variables, values
        ):
            if database.put(name, Relation((var,), [(value,)])):
                changed += 1
        if changed:
            self.rebinds += 1
        return changed

    def unbind(self, database: Database) -> None:
        """Drop this statement's parameter relations from ``database``
        (used when the statement is evicted)."""
        for name in self.param_relations:
            if name in database:
                database.drop(name)


@dataclass
class PreparedStatementCache:
    """LRU of :class:`PreparedStatement` keyed on ``(shape key, method)``.

    ``prepare`` is the only way statements are created, so two sessions
    issuing alpha-renamed variants of the same query against the same
    database converge on one statement — one plan, one set of compiled
    units.
    """

    capacity: int = 256
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    _entries: OrderedDict = field(default_factory=OrderedDict)
    _by_id: dict = field(default_factory=dict)
    _next_id: int = 1

    def prepare(
        self, query: ConjunctiveQuery, method: str
    ) -> tuple[
        PreparedStatement, tuple[Any, ...], bool, tuple[PreparedStatement, ...]
    ]:
        """Return ``(statement, values, hit, evicted)`` for ``query``.

        ``values`` are the constants extracted from *this* query text,
        ready to pass to :meth:`PreparedStatement.bind`; ``hit`` says
        whether the shape was already prepared; ``evicted`` are the
        statements this call pushed out of the LRU.  Whoever binds
        statements into a catalog must :meth:`~PreparedStatement.unbind`
        those, or their parameter rows (and everything an engine cached
        over them) outlive the statement.
        """
        shape, values = canonicalize_query(query)
        key = (shape.key, method)
        statement = self._entries.get(key)
        if statement is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return statement, values, True, ()
        self.misses += 1
        statement = PreparedStatement(self._next_id, shape, method)
        self._next_id += 1
        self._entries[key] = statement
        self._by_id[statement.statement_id] = statement
        evicted = []
        while len(self._entries) > max(1, self.capacity):
            _, victim = self._entries.popitem(last=False)
            del self._by_id[victim.statement_id]
            self.evictions += 1
            evicted.append(victim)
        return statement, values, False, tuple(evicted)

    def by_id(self, statement_id: int) -> PreparedStatement | None:
        """Look up a live statement by id (refreshing its LRU slot)."""
        statement = self._by_id.get(statement_id)
        if statement is not None:
            key = (statement.shape.key, statement.method)
            if key in self._entries:
                self._entries.move_to_end(key)
        return statement

    def discard(self, statement: PreparedStatement) -> None:
        """Forget ``statement`` (one its executor refused to plan), so the
        next ``prepare`` of its shape is a miss again."""
        key = (statement.shape.key, statement.method)
        if self._entries.get(key) is statement:
            del self._entries[key]
            del self._by_id[statement.statement_id]

    def __len__(self) -> int:
        return len(self._entries)

    def info(self) -> dict:
        """Counter snapshot for the ``stats`` introspection op."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "capacity": self.capacity,
        }


__all__ = [
    "PARAM_RELATION_PREFIX",
    "PreparedStatement",
    "PreparedStatementCache",
    "QueryShape",
    "canonicalize_query",
    "shape_from_wire",
    "shape_to_wire",
]
