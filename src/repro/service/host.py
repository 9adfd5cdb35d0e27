"""Per-database execution state (catalog, engines, statement cache) and
the mapping from library exceptions to wire error codes: what the front
end and a pool worker both run, importing neither server nor pool.
"""

from __future__ import annotations

import time

from repro.core.query import ConjunctiveQuery
from repro.errors import CatalogError, PlanError, QueryStructureError, ReproError
from repro.relalg.compiled import DEFAULT_PLAN_CACHE_SIZE, make_engine
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


class DatabaseHost:
    """Server-side state for one named database.

    All methods that touch the catalog or an engine are called only from
    the service's single executor thread (or from single-threaded test
    code); they are deliberately synchronous and lock-free.
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
        use, then kept warm for the life of the server)."""
        engine = self._engines.get(engine_name)
        if engine is None:
            engine = make_engine(
                engine_name, self.database, plan_cache_size=self._plan_cache_size
            )
            self._engines[engine_name] = engine
        return engine

    def prepare(
        self, query: ConjunctiveQuery, method: str
    ) -> tuple[PreparedStatement, tuple, bool]:
        """Prepare (or fetch) the statement for ``query``'s shape.

        Statements the LRU evicts to make room are unbound here, on the
        thread that binds (the worker process does the same for its own
        store): emptying their ``__param`` relations bumps those
        relations' versions, so every engine drops the units and cached
        results that scanned them at its next execution.  On the pool
        front end's mirror nothing was ever bound and this is a no-op.
        """
        statement, values, hit, evicted = self.prepared.prepare(query, method)
        if not hit:
            self.method_plans[method] = self.method_plans.get(method, 0) + 1
        for victim in evicted:
            victim.unbind(self.database)
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
        inserted = (
            self.database.insert_rows(relation, insert) if insert else 0
        )
        deleted = (
            self.database.delete_rows(relation, delete) if delete else 0
        )
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
