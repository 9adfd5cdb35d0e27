"""Database catalog: a named collection of relations, with per-relation
version counters.

The paper's databases are deliberately tiny — typically a single binary
``edge`` relation with six tuples — so the catalog is a thin dictionary
wrapper whose main job is good error messages and a couple of convenience
constructors used throughout the workloads.

Every mutation is tracked at *relation* granularity: each registered name
carries a version drawn from a catalog-wide monotonic clock, bumped only
when that relation is touched.  Caches key their entries on the versions
of the relations a plan actually scans (its *dependency version vector*,
see :func:`repro.plans.dependencies`), so mutating one relation retains
every cached result that does not depend on it.  The historical
:attr:`Database.generation` counter is kept as that clock, so
whole-catalog observers still see a counter that changes on every
mutation, :meth:`Database.drop` included.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

from repro.errors import CatalogError
from repro.relalg.relation import Relation


class Database:
    """A named collection of :class:`~repro.relalg.relation.Relation`.

    Examples
    --------
    >>> db = Database()
    >>> db.add("edge", Relation(("u", "w"), [(1, 2), (2, 1)]))
    >>> db["edge"].cardinality
    2
    >>> db.version("edge")
    1
    """

    def __init__(self, relations: Mapping[str, Relation] | None = None) -> None:
        self._relations: dict[str, Relation] = {}
        self._versions: dict[str, int] = {}
        self._clock = 0
        if relations:
            for name, relation in relations.items():
                self.add(name, relation)

    # ------------------------------------------------------------------
    # Version accounting
    # ------------------------------------------------------------------
    def _touch(self, name: str) -> None:
        """Record a mutation of ``name``: advance the catalog clock and
        stamp the relation with the new tick."""
        self._clock += 1
        self._versions[name] = self._clock

    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every catalog mutation.

        This is the shared catalog clock: every mutation advances it,
        stamping the touched relation with the new tick (a :meth:`drop`
        advances it and removes the stamp), so it is never below the
        largest version in the catalog.  Kept for backward compatibility
        as a cheap "did *anything* change" probe; caches that want to
        survive writes key on :meth:`version` / :meth:`version_vector`
        instead.
        """
        return self._clock

    def version(self, name: str) -> int:
        """Version of the relation registered under ``name``.

        ``0`` means the name is not registered in this catalog (never
        was, or was dropped); otherwise it is the value of the catalog
        clock when the relation was last touched (by :meth:`add`,
        :meth:`replace`, :meth:`put`, :meth:`insert_rows`, or
        :meth:`delete_rows`).  Versions are
        never reused, so ``version(name)`` changing is exactly the
        signal that cached results depending on ``name`` are stale.
        """
        return self._versions.get(name, 0)

    def versions(self) -> dict[str, int]:
        """Snapshot of every registered relation's current version."""
        return dict(self._versions)

    def version_vector(self, names: Iterable[str]) -> tuple[int, ...]:
        """Versions of ``names`` in the order given (0 for unknown names).

        This is the *dependency version vector* caches pair with a
        ``plan_key``: pass :func:`repro.plans.dependencies` output (a
        sorted tuple) and the result identifies exactly the catalog
        state the plan's evaluation can observe.
        """
        get = self._versions.get
        return tuple(get(name, 0) for name in names)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add(self, name: str, relation: Relation) -> None:
        """Register a relation under ``name``; re-registration is an error
        (use :meth:`replace` to overwrite deliberately)."""
        if not name:
            raise CatalogError("relation name must be non-empty")
        if name in self._relations:
            raise CatalogError(f"relation {name!r} is already registered")
        self._relations[name] = relation
        self._touch(name)

    def replace(self, name: str, relation: Relation) -> None:
        """Overwrite (or create) the relation registered under ``name``.

        Always bumps the relation's version, even if the new relation is
        equal to the old one — replace is the "assume everything about
        this name changed" mutation; use the delta APIs
        (:meth:`insert_rows` / :meth:`delete_rows`) when no-op updates
        should be version-neutral.
        """
        if not name:
            raise CatalogError("relation name must be non-empty")
        self._relations[name] = relation
        self._touch(name)

    def put(self, name: str, relation: Relation) -> bool:
        """Register or overwrite ``name``, bumping its version only when
        the stored relation actually changes.

        This is the version-neutral sibling of :meth:`replace`: writing
        back an equal relation (same header, same rows) leaves the
        version — and therefore every cache keyed on it — untouched.
        The service layer's prepared statements bind parameter values
        through this method, so re-binding the *same* constant between
        requests keeps compiled units and cached results fully warm,
        while binding a different constant invalidates exactly the
        entries that scan the parameter relation.  Returns whether the
        catalog changed.
        """
        if not name:
            raise CatalogError("relation name must be non-empty")
        current = self._relations.get(name)
        if (
            current is not None
            and current.columns == relation.columns
            and current.rows == relation.rows
        ):
            return False
        self._relations[name] = relation
        self._touch(name)
        return True

    def drop(self, name: str) -> None:
        """Remove the relation registered under ``name``.

        Advances the catalog clock like any other mutation, so version
        observers see the change (the name is simply absent from the
        next :meth:`versions` snapshot and its :meth:`version` reads 0
        again); a later :meth:`add` of the same name gets a fresh tick,
        never an old version.  Unknown names raise
        :class:`~repro.errors.CatalogError`.
        """
        self.get(name)  # raises on an unknown name
        del self._relations[name]
        del self._versions[name]
        self._clock += 1

    def insert_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Add ``rows`` to the relation under ``name``; return the number
        actually inserted (set semantics: duplicates are dropped).

        Bumps only ``name``'s version, and only when the relation
        actually changed, so cached results for plans that do not scan
        ``name`` — and, on a no-op insert, *all* cached results — are
        retained.
        """
        current = self.get(name)
        addition = Relation(current.columns, rows)  # validates arity
        new_rows = current.rows | addition.rows
        inserted = len(new_rows) - current.cardinality
        if inserted:
            self._relations[name] = Relation._from_trusted(
                current.columns, new_rows
            )
            self._touch(name)
        return inserted

    def delete_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Remove ``rows`` from the relation under ``name``; return the
        number actually removed (absent rows are ignored).

        Like :meth:`insert_rows`, bumps only ``name``'s version and only
        when the relation actually changed.
        """
        current = self.get(name)
        arity = current.arity
        drop = set()
        for row in rows:
            row_tuple = tuple(row)
            if len(row_tuple) != arity:
                raise CatalogError(
                    f"row {row_tuple!r} has arity {len(row_tuple)}, "
                    f"relation {name!r} has arity {arity}"
                )
            drop.add(row_tuple)
        new_rows = current.rows - drop
        removed = current.cardinality - len(new_rows)
        if removed:
            self._relations[name] = Relation._from_trusted(
                current.columns, new_rows
            )
            self._touch(name)
        return removed

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def get(self, name: str) -> Relation:
        """Look up a relation; unknown names raise
        :class:`~repro.errors.CatalogError` listing what exists."""
        try:
            return self._relations[name]
        except KeyError:
            raise CatalogError(
                f"unknown relation {name!r}; catalog has {sorted(self._relations)}"
            ) from None

    def __getitem__(self, name: str) -> Relation:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def names(self) -> list[str]:
        """Sorted relation names."""
        return sorted(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def total_tuples(self) -> int:
        """Total number of stored tuples across all relations."""
        return sum(rel.cardinality for rel in self._relations.values())


def edge_database(
    colors: Sequence[Any] = (1, 2, 3), relation_name: str = "edge"
) -> Database:
    """The paper's k-COLOR database: one binary relation holding all pairs
    of *distinct* colors.

    For the default three colors this is the six-tuple ``edge`` relation of
    Section 2: a graph is 3-colorable iff the corresponding project-join
    query over this database is nonempty.
    """
    rows = [(a, b) for a in colors for b in colors if a != b]
    db = Database()
    db.add(relation_name, Relation(("u", "w"), rows))
    return db


def database_from_tuples(
    spec: Mapping[str, tuple[Sequence[str], Iterable[Sequence[Any]]]],
) -> Database:
    """Build a database from ``{name: (columns, rows)}`` — handy in tests."""
    db = Database()
    for name, (columns, rows) in spec.items():
        db.add(name, Relation(columns, rows))
    return db
