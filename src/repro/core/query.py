"""Conjunctive (project-join) queries.

A project-join query is an expression ``π_{x1..xn}(R1 ⋈ ... ⋈ Rm)`` — the
``SELECT DISTINCT``/``FROM``/``WHERE``-equality fragment of SQL.  This
module gives it a first-class representation: a list of :class:`Atom` over
named base relations, plus the target schema (the *free* variables).

Boolean queries have an empty target schema; the paper emulates them in SQL
by selecting a single variable, and the workload generators follow suit,
but the model itself supports genuinely 0-ary results.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any, Union

from repro.errors import QueryStructureError
from repro.plans import Scan


@dataclass(frozen=True)
class Const:
    """A constant argument inside an atom, e.g. the ``3`` in ``R(x, 3)``.

    Wrapping distinguishes constants from variables, which are plain
    strings.
    """

    value: Any


Term = Union[str, Const]


@dataclass(frozen=True)
class Atom:
    """One relational atom ``relation(t1, ..., tk)``.

    Terms are variable names (strings) or :class:`Const` values.  Repeated
    variables are allowed and mean positional equality.
    """

    relation: str
    terms: tuple[Term, ...]
    #: Distinct variables of the atom, in first-occurrence order; derived
    #: from ``terms`` once, when the atom is built.
    variables: tuple[str, ...] = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        if not self.relation:
            raise QueryStructureError("atom with empty relation name")
        variables: dict[str, None] = {}
        for term in self.terms:
            if isinstance(term, str):
                if not term:
                    raise QueryStructureError("empty variable name in atom")
                variables[term] = None
            elif not isinstance(term, Const):
                raise QueryStructureError(
                    f"atom term must be a variable name or Const, got {term!r}"
                )
        object.__setattr__(self, "variables", tuple(variables))

    @property
    def variable_set(self) -> frozenset[str]:
        """Distinct variables of the atom as a set."""
        return frozenset(self.variables)

    def to_scan(self) -> Scan:
        """Compile this atom into a :class:`~repro.plans.Scan` leaf."""
        variables = tuple(t for t in self.terms if isinstance(t, str))
        constants = tuple(
            (i, t.value) for i, t in enumerate(self.terms) if isinstance(t, Const)
        )
        return Scan(self.relation, variables, constants)

    def __str__(self) -> str:
        rendered = ", ".join(
            t if isinstance(t, str) else repr(t.value) for t in self.terms
        )
        return f"{self.relation}({rendered})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A project-join query ``π_{free_variables}(atom1 ⋈ ... ⋈ atomm)``.

    Parameters
    ----------
    atoms:
        The joined atoms, in their *listed* order.  The straightforward and
        early-projection methods are sensitive to this order; reordering
        and bucket elimination are not.
    free_variables:
        The target schema.  Empty means a Boolean query.

    Examples
    --------
    >>> q = ConjunctiveQuery(
    ...     atoms=(Atom("edge", ("a", "b")), Atom("edge", ("b", "c"))),
    ...     free_variables=("a",),
    ... )
    >>> sorted(q.variables)
    ['a', 'b', 'c']
    >>> q.is_boolean
    False
    """

    atoms: tuple[Atom, ...]
    free_variables: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.atoms:
            raise QueryStructureError("conjunctive query must have at least one atom")
        if len(set(self.free_variables)) != len(self.free_variables):
            raise QueryStructureError(
                f"duplicate free variables {self.free_variables!r}"
            )
        all_vars = self.variables
        missing = set(self.free_variables) - all_vars
        if missing:
            raise QueryStructureError(
                f"free variables {sorted(missing)} do not occur in any atom"
            )

    @property
    def variables(self) -> frozenset[str]:
        """All variables occurring in any atom."""
        out: set[str] = set()
        for atom in self.atoms:
            out.update(atom.variables)
        return frozenset(out)

    @property
    def is_boolean(self) -> bool:
        """Whether the target schema is empty."""
        return not self.free_variables

    @property
    def bound_variables(self) -> frozenset[str]:
        """Variables that are projected out (not in the target schema)."""
        return self.variables - set(self.free_variables)

    def atom_count(self) -> int:
        """Number of atoms (the paper's ``m``)."""
        return len(self.atoms)

    def occurrences(self) -> dict[str, list[int]]:
        """For each variable, the sorted list of atom indices containing it."""
        occ: dict[str, list[int]] = {}
        for index, atom in enumerate(self.atoms):
            for variable in atom.variables:
                occ.setdefault(variable, []).append(index)
        return occ

    def min_occurrence(self) -> dict[str, int]:
        """First atom index containing each variable (the paper's
        ``min_occur`` array)."""
        return {v: indices[0] for v, indices in self.occurrences().items()}

    def max_occurrence(self) -> dict[str, int]:
        """Last atom index containing each variable (the paper's
        ``max_occur`` array); free variables get ``len(atoms)`` so they stay
        live throughout, mirroring ``max_occur[j] = |E| + 1``."""
        out = {v: indices[-1] for v, indices in self.occurrences().items()}
        for v in self.free_variables:
            out[v] = len(self.atoms)
        return out

    def with_atom_order(self, order: Sequence[int]) -> "ConjunctiveQuery":
        """Return the same query with atoms permuted by ``order`` (a
        permutation of atom indices)."""
        if sorted(order) != list(range(len(self.atoms))):
            raise QueryStructureError(
                f"{list(order)!r} is not a permutation of atom indices"
            )
        return ConjunctiveQuery(
            atoms=tuple(self.atoms[i] for i in order),
            free_variables=self.free_variables,
        )

    def with_free_variables(self, free: Iterable[str]) -> "ConjunctiveQuery":
        """Return the same join with a different target schema."""
        return ConjunctiveQuery(atoms=self.atoms, free_variables=tuple(free))

    def relation_names(self) -> set[str]:
        """Distinct base-relation names referenced by the query."""
        return {atom.relation for atom in self.atoms}

    def __str__(self) -> str:
        head = ", ".join(self.free_variables) if self.free_variables else ""
        body = " ⋈ ".join(str(atom) for atom in self.atoms)
        return f"π[{head}]({body})"
