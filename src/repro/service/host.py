"""Per-database execution state (catalog, engines, statement registry),
the one delta-application routine, and the mapping from library
exceptions to wire error codes: what the front end and a pool worker
both run, importing neither server nor pool.
"""

from __future__ import annotations

import time

from repro.core.query import ConjunctiveQuery
from repro.errors import CatalogError, PlanError, QueryStructureError, ReproError
from repro.relalg.engine import DEFAULT_PLAN_CACHE_SIZE
from repro.relalg.database import Database
from repro.relalg.relation import Relation
from repro.service.prepared import PreparedStatement, PreparedStatementCache
from repro.service.protocol import ProtocolError


class _RequestError(Exception):
    """Internal: abort the current request with a protocol error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _map_exception(exc: Exception) -> tuple[str, str]:
    """Translate library exceptions into wire error codes."""
    if isinstance(exc, _RequestError):
        return exc.code, exc.message
    if isinstance(exc, ProtocolError):
        return exc.code, exc.message
    if isinstance(exc, CatalogError):
        return "unknown_relation", str(exc)
    if isinstance(exc, (PlanError, QueryStructureError)):
        return "query_error", str(exc)
    if isinstance(exc, ReproError):
        # DatalogSyntaxError subclasses SqlSyntaxError subclasses this.
        return "query_error", str(exc)
    if isinstance(exc, ValueError):
        return "bad_request", str(exc)
    return "internal", f"{type(exc).__name__}: {exc}"


def apply_catalog_delta(database, relation: str, insert, delete):
    """Apply one row-level delta; returns ``(inserted, deleted, error)``.

    The insert half runs before the delete half, and each half is
    atomic (the catalog validates before mutating), so the result —
    including the partial state left behind when the delete half fails
    after a successful insert — is a pure function of (catalog state,
    delta).  The owning worker and the front end's mirror both call
    this one function, which is what keeps the two copies identical.
    """
    inserted = deleted = 0
    error = None
    try:
        if insert:
            inserted = database.insert_rows(relation, insert)
        if delete:
            deleted = database.delete_rows(relation, delete)
    except Exception as exc:  # surfaced by the owner, swallowed by the mirror
        error = exc
    return inserted, deleted, error


class DatabaseHost:
    """Server-side state for one named database.

    The statement registry (``prepared``) is read and written by the
    front end on its event loop and never plans.  Everything that plans,
    binds, executes or touches the catalog runs on the one executor that
    serves this database — the service's executor thread, or a pool
    worker process (or single-threaded test code) — so it is synchronous
    and lock-free.
    """

    def __init__(
        self,
        name: str,
        database: Database,
        prepared_cache_size: int = 256,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
    ) -> None:
        self.name = name
        self.database = database
        self.prepared = PreparedStatementCache(capacity=prepared_cache_size)
        self.method_plans: dict[str, int] = {}
        self._plan_cache_size = plan_cache_size
        self._engines: dict[str, object] = {}

    def engine(self, engine_name: str):
        """The long-lived engine for ``engine_name`` (created on first
        use, then kept warm for the life of the server).  The backends are
        imported by the first engine made, so a pool front end, which
        never executes, never loads them."""
        engine = self._engines.get(engine_name)
        if engine is None:
            from repro.relalg.compiled import make_engine

            engine = make_engine(
                engine_name, self.database, plan_cache_size=self._plan_cache_size
            )
            self._engines[engine_name] = engine
        return engine

    def register(self, query: ConjunctiveQuery, method: str):
        """Find or assign the statement id of ``query``'s shape without
        planning it; returns the registry's ``(statement, values, hit,
        evicted)``."""
        statement, values, hit, evicted = self.prepared.prepare(query, method)
        if not hit:
            self.method_plans[method] = self.method_plans.get(method, 0) + 1
        return statement, values, hit, evicted

    def prepare(
        self, query: ConjunctiveQuery, method: str
    ) -> tuple[PreparedStatement, tuple, bool]:
        """Prepare (or fetch) and plan the statement for ``query``'s
        shape, for a caller that binds and executes on this host itself.

        Statements the LRU evicts to make room are unbound here, on the
        thread that binds: emptying their ``__param`` relations bumps
        those relations' versions, so every engine drops the units and
        cached results that scanned them at its next execution.  A shape
        that cannot be planned is not kept.
        """
        statement, values, hit, evicted = self.register(query, method)
        for victim in evicted:
            victim.unbind(self.database)
        try:
            statement.plan  # planned now, so its errors surface here
        except Exception:
            self.prepared.discard(statement)
            raise
        return statement, values, hit

    def execute_statement(
        self, statement: PreparedStatement, values: tuple, engine_name: str
    ) -> tuple[Relation, int, float]:
        """Bind ``values`` and run the statement's plan; returns
        ``(result, rebound_params, elapsed_seconds)``."""
        rebound = statement.bind(self.database, values)
        engine = self.engine(engine_name)
        started = time.perf_counter()
        result = engine.execute(statement.plan)
        elapsed = time.perf_counter() - started
        statement.uses += 1
        return result, rebound, elapsed

    def update(
        self, relation: str, insert: list, delete: list
    ) -> tuple[int, int]:
        """Apply a row-level delta; returns ``(inserted, deleted)``."""
        inserted, deleted, error = apply_catalog_delta(
            self.database, relation, insert, delete
        )
        if error is not None:
            raise error
        return inserted, deleted

    def info(self) -> dict:
        """Introspection block for the ``stats`` op."""
        db = self.database
        return {
            "relations": len(db),
            "total_tuples": db.total_tuples(),
            "generation": db.generation,
            "prepared": self.prepared.info(),
            "plans_by_method": dict(self.method_plans),
            "engines": {
                name: engine.cache_info()._asdict()
                for name, engine in sorted(self._engines.items())
            },
        }
