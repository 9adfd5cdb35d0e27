"""Plan evaluator: executes logical plans against a database.

This is the reproduction's stand-in for the PostgreSQL backend.  Like the
paper's setup it fully materializes every operator output (PostgreSQL
materializes each ``SELECT DISTINCT`` subquery), evaluates joins with a
pluggable algorithm (hash join by default, matching the paper's forced
choice), and records the work counters that drive wall-clock cost.
"""

from __future__ import annotations

from repro.errors import PlanError, SchemaError
from repro.plans import (
    Join,
    Plan,
    Project,
    Scan,
    Semijoin,
    children,
    dependencies,
    plan_key,
)
from repro.relalg.cache import CacheInfo, CatalogVersionTracker, DependencyCache
from repro.relalg.database import Database
from repro.relalg.joins import JoinAlgorithm, hash_join
from repro.relalg.relation import Relation
from repro.relalg.stats import ExecutionStats

#: Default LRU capacity (in plan subtrees) of the engine's plan cache.
DEFAULT_PLAN_CACHE_SIZE = 256

#: Names of the execution backends (the keys of
#: :data:`repro.relalg.compiled.ENGINES`), accepted by every ``--engine``
#: flag.  Spelled out here so that a process validating an engine name —
#: the CLI, a pool front end — need not import the compiled engine.
ENGINE_NAMES: tuple[str, ...] = ("compiled", "interpreted", "vectorized")


class Engine:
    """Evaluates :mod:`repro.plans` trees over a :class:`Database`.

    Parameters
    ----------
    database:
        Catalog of base relations.
    join_algorithm:
        Binary join implementation; defaults to hash join.
    plan_cache_size:
        Capacity of the common-subexpression cache: an LRU memo from
        ``(plan_key(subtree), dependency-version-vector)`` to the
        subtree's result relation, shared across every :meth:`execute`
        call on this engine.  Structurally identical subtrees — within
        one plan or across repeated executions — are evaluated once.
        Invalidation is *selective*: each entry records the base
        relations its subtree scans (:func:`repro.plans.dependencies`)
        and the catalog's per-relation versions complete the key, so a
        catalog mutation evicts exactly the entries depending on the
        mutated relations and every other entry is retained and keeps
        hitting.  Each entry also carries a snapshot of the stats its
        subtree accumulated when first evaluated, replayed on every
        hit: the logical work counters in :class:`ExecutionStats` are
        identical whether or not the cache is warm, and only
        ``rows_built`` (plus the hit/miss counters) reflects cache
        state.  Pass ``0`` to disable caching entirely.

    Examples
    --------
    >>> from repro.relalg.database import edge_database
    >>> from repro.plans import Scan, Join, Project
    >>> db = edge_database()
    >>> plan = Project(Join(Scan("edge", ("a", "b")), Scan("edge", ("b", "c"))), ("a",))
    >>> Engine(db).execute(plan).cardinality
    3
    """

    def __init__(
        self,
        database: Database,
        join_algorithm: JoinAlgorithm = hash_join,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
    ) -> None:
        if plan_cache_size < 0:
            raise ValueError(f"plan_cache_size must be >= 0, got {plan_cache_size}")
        self._database = database
        self._join = join_algorithm
        self._cache_size = plan_cache_size
        self._cache = DependencyCache(plan_cache_size)
        self._tracker = CatalogVersionTracker(database)

    @property
    def database(self) -> Database:
        """The catalog this engine evaluates against."""
        return self._database

    @property
    def plan_cache_enabled(self) -> bool:
        """Whether the common-subexpression cache is active."""
        return self._cache_size > 0

    def clear_plan_cache(self) -> None:
        """Drop every cached subtree result."""
        self._cache.clear()

    def cache_info(self) -> CacheInfo:
        """Cumulative cache traffic and current retention (uniform
        across all engines): ``hits``, ``misses``, ``evictions``,
        ``entries``, ``capacity`` (the configured bound — this is the
        field's name, per docs/API.md), and ``units`` (always 0 here;
        the interpreted engine has no compiled units)."""
        cache = self._cache
        return CacheInfo(
            hits=cache.hits,
            misses=cache.misses,
            evictions=cache.evictions,
            entries=len(cache),
            capacity=self._cache_size,
            units=0,
        )

    def clear_cache(self) -> None:
        """Drop every cached entry and zero the traffic counters."""
        self._cache.reset()

    def execute(self, plan: Plan, stats: ExecutionStats | None = None) -> Relation:
        """Evaluate ``plan`` and return the result relation.

        If ``stats`` is provided, work counters are accumulated into it.
        """
        stats = stats if stats is not None else ExecutionStats()
        self._sync_catalog()
        return self._eval(plan, stats)

    def execute_with_stats(self, plan: Plan) -> tuple[Relation, ExecutionStats]:
        """Evaluate ``plan``; return both the result and fresh stats."""
        stats = ExecutionStats()
        self._sync_catalog()
        result = self._eval(plan, stats)
        return result, stats

    # ------------------------------------------------------------------
    def _sync_catalog(self) -> None:
        """Selectively evict entries invalidated by catalog mutations
        since the last execution.  Entries whose dependency footprint
        avoids every mutated relation are retained (and keep hitting);
        stale entries are evicted promptly rather than lingering until
        LRU pressure — and could not be served even if they lingered,
        because version vectors are part of the cache key."""
        changed = self._tracker.changed_relations()
        if changed:
            self._cache.evict_dependents(changed)

    def _eval(self, plan: Plan, stats: ExecutionStats) -> Relation:
        # Both paths are iterative (explicit stacks, post-order): plans
        # thousands of operators deep — left-deep chains at Figure 6
        # scale — evaluate without hitting the recursion limit.
        if not self._cache_size:
            return self._eval_uncached(plan, stats)
        return self._eval_cached(plan, stats)

    def _eval_uncached(self, plan: Plan, stats: ExecutionStats) -> Relation:
        root: list[Relation] = []
        # Frames are (node, destination, inputs); inputs is None until the
        # node's children have been scheduled, then collects their results.
        stack: list[tuple[Plan, list[Relation], list[Relation] | None]] = [
            (plan, root, None)
        ]
        while stack:
            node, dest, inputs = stack.pop()
            if inputs is None:
                inputs = []
                stack.append((node, dest, inputs))
                for child in reversed(children(node)):
                    stack.append((child, inputs, None))
            else:
                dest.append(self._apply_node(node, inputs, stats))
        return root[0]

    def _eval_cached(self, plan: Plan, stats: ExecutionStats) -> Relation:
        root: list[Relation] = []
        # Frames are (node, destination, sink, pending): ``sink`` is the
        # stats object this node's work lands in (the enclosing subtree's
        # accumulator); ``pending`` is None before the cache lookup and
        # ``(key, deps, subtree, inputs)`` once the node is scheduled for
        # real evaluation.
        stack: list[
            tuple[
                Plan,
                list[Relation],
                ExecutionStats,
                tuple[tuple, tuple[str, ...], ExecutionStats, list[Relation]]
                | None,
            ]
        ] = [(plan, root, stats, None)]
        cache = self._cache
        tracker = self._tracker
        while stack:
            node, dest, sink, pending = stack.pop()
            if pending is None:
                deps = dependencies(node)
                key = (plan_key(node), tracker.vector(deps))
                entry = cache.get(key)
                if entry is not None:
                    result, snapshot = entry
                    sink.cache_hits += 1
                    # Replay the subtree's logical work counters so stats
                    # match a cache-free evaluation; the snapshot's
                    # rows_built and cache counters are zeroed, so only
                    # those reflect cache state.
                    sink.merge(snapshot)
                    dest.append(result)
                    continue
                sink.cache_misses += 1
                subtree = ExecutionStats()
                inputs: list[Relation] = []
                stack.append((node, dest, sink, (key, deps, subtree, inputs)))
                for child in reversed(children(node)):
                    stack.append((child, inputs, subtree, None))
            else:
                key, deps, subtree, inputs = pending
                result = self._apply_node(node, inputs, subtree)
                sink.merge(subtree)
                # The subtree stats become the entry's replay snapshot:
                # logical counters are kept so a hit reports the same plan
                # cost as an uncached evaluation; rows_built and the cache
                # counters are zeroed because a hit materializes nothing
                # and hit/miss events are recorded per lookup, not
                # replayed.
                subtree.rows_built = 0
                subtree.cache_hits = 0
                subtree.cache_misses = 0
                cache.put(key, (result, subtree), deps)
                dest.append(result)
        return root[0]

    def _apply_node(
        self, plan: Plan, inputs: list[Relation], stats: ExecutionStats
    ) -> Relation:
        """Apply one operator to its already-evaluated child relations."""
        if isinstance(plan, Scan):
            result = self._eval_scan(plan)
            stats.scans += 1
        elif isinstance(plan, Project):
            result = inputs[0].project(plan.columns)
            stats.projections += 1
        elif isinstance(plan, Semijoin):
            left, right = inputs
            result = left.semijoin(right)
            stats.semijoins += 1
        elif isinstance(plan, Join):
            left, right = inputs
            result = self._join(left, right)
            stats.record_join(left.cardinality, right.cardinality, result.cardinality)
        else:  # pragma: no cover - exhaustive over the Plan union
            raise PlanError(f"unknown plan node {plan!r}")
        stats.record_output(result.cardinality, result.arity)
        return result

    def _eval_scan(self, scan: Scan) -> Relation:
        base = self._database.get(scan.relation)
        n_positions = len(scan.variables) + len(scan.constants)
        if n_positions != base.arity:
            raise SchemaError(
                f"atom over {scan.relation!r} binds {n_positions} positions, "
                f"relation has arity {base.arity}"
            )
        constant_positions = dict(scan.constants)
        # Assign variables to the non-constant positions, in order.
        variable_positions: list[tuple[int, str]] = []
        var_iter = iter(scan.variables)
        for position in range(base.arity):
            if position in constant_positions:
                continue
            variable_positions.append((position, next(var_iter)))
        relation = base
        # Constant selections first: they only shrink the relation.
        for position, value in scan.constants:
            relation = relation.select_eq(relation.columns[position], value)
        # Repeated variables induce equality selections between positions.
        first_position: dict[str, int] = {}
        for position, variable in variable_positions:
            if variable in first_position:
                relation = relation.select_col_eq(
                    relation.columns[first_position[variable]],
                    relation.columns[position],
                )
            else:
                first_position[variable] = position
        # Rename the first occurrence of each variable, then project away
        # constants and repeated positions.
        rename = {
            relation.columns[pos]: var for var, pos in first_position.items()
        }
        renamed = relation.rename(_disambiguate(rename, relation.columns))
        keep = [var for var in _scan_output_order(scan)]
        return renamed.project(keep)


def _scan_output_order(scan: Scan) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for variable in scan.variables:
        if variable not in seen:
            seen.add(variable)
            out.append(variable)
    return out


def _disambiguate(rename: dict[str, str], columns: tuple[str, ...]) -> dict[str, str]:
    """Extend a partial rename so no unrenamed column collides with a new
    variable name (e.g. base column ``u`` vs query variable ``u``)."""
    targets = set(rename.values())
    full = dict(rename)
    for name in columns:
        if name not in full and name in targets:
            fresh = f"__{name}"
            while fresh in targets:
                fresh = f"_{fresh}"
            full[name] = fresh
            targets.add(fresh)
    return full


def evaluate(
    plan: Plan,
    database: Database,
    join_algorithm: JoinAlgorithm = hash_join,
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
    engine: str = "interpreted",
) -> tuple[Relation, ExecutionStats]:
    """One-shot convenience: evaluate ``plan`` on ``database``.

    ``engine`` selects the execution backend: ``"interpreted"`` (this
    module's :class:`Engine`), or ``"compiled"`` / ``"vectorized"``, two
    names of :class:`repro.relalg.compiled.VectorizedEngine`, which
    requires the default hash join.  Returns the result relation
    together with its execution statistics.
    """
    if engine == "interpreted":
        backend = Engine(
            database, join_algorithm=join_algorithm, plan_cache_size=plan_cache_size
        )
        return backend.execute_with_stats(plan)
    from repro.relalg.compiled import make_engine

    backend = make_engine(
        engine,
        database,
        join_algorithm=join_algorithm,
        plan_cache_size=plan_cache_size,
    )
    return backend.execute_with_stats(plan)


def is_nonempty(plan: Plan, database: Database) -> bool:
    """Evaluate a (typically Boolean) query plan and report nonemptiness."""
    result, _ = evaluate(plan, database)
    return not result.is_empty()


__all__ = ["DEFAULT_PLAN_CACHE_SIZE", "Engine", "evaluate", "is_nonempty"]
