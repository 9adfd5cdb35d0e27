"""The compiled execution engine: plans lowered into fused units over
dictionary-encoded column batches.

The interpreted engine (:mod:`repro.relalg.engine`) pays Python-level
per-node dispatch, re-derives the operator layout (join columns, key
positions, output headers) on every execution, and materializes a full
:class:`~repro.relalg.relation.Relation` at *every* operator.  None of
that work depends on the data — only on the plan — so this module moves
it to a one-time compilation step: each plan tree is lowered, bottom-up,
into a tree of *units*, each a kernel specialized on precomputed
positions.  Executing a compiled plan runs the kernels over *batches* of
the global dictionary codes of :mod:`repro.relalg.columnar`; nothing is
dispatched on node types and no intermediate ``Relation`` exists until
the final answer is decoded.  :class:`VectorizedEngine` is the engine;
:func:`make_engine` serves it under the names ``compiled`` and
``vectorized``.

Fusion rules (what a unit covers):

- **Scan folding** — a :class:`~repro.plans.Scan`'s constant selections,
  repeated-variable equalities, and a projection on top become one
  *scan unit* whose batch is computed once per version of the base
  relation; a scan with no constants and no repeats is *zero-copy* (its
  batch is the base relation's column store).
- **Chain pipelines** — a run of joins and semijoins down a left spine
  whose right sides are scan units becomes one generated nested-loop
  kernel that never materializes the interior results.
- **Project-over-Join fusion** — the projected columns are emitted
  while probing; the wide join result is *counted* (the work counters
  need its cardinality) but never allocated.
- **Project-over-Semijoin fusion** — the semijoin filter and the
  projection run in one pass over the left operand.

Everything else (bare joins feeding joins, projections over dynamic
inputs) must still materialize its output: the logical work counters
report every operator's *distinct* output cardinality, and a distinct
count cannot be produced without building the distinct set.

**Stats-parity contract.**  The logical work counters of
:class:`~repro.relalg.stats.ExecutionStats` — ``joins``, ``semijoins``,
``projections``, ``scans``, ``total_intermediate_tuples``,
``max_intermediate_cardinality``, ``max_intermediate_arity``,
``peak_live_tuples``, and the arity trace — are byte-identical to the
interpreted engine's on every plan, because those counters drive the
paper's figures.  Fused-away outputs count as logical intermediates but
not toward ``rows_built``, so ``rows_built`` (a physical counter)
measures what fusion saved.  ``cache_hits``/``cache_misses`` are
cache-state counters and may differ from the interpreter's: this engine
caches at *unit* granularity (a fused Project-over-Join is one entry),
the interpreter at node granularity.

The common-subexpression cache mirrors the interpreted engine's: an LRU
memo keyed on ``(plan_key, dependency-version-vector)`` pairs, with
entries evicted selectively when the relations they depend on mutate
(see :mod:`repro.relalg.cache`) and per-entry stats snapshots replayed
on hits so the logical counters stay cache-state independent.

Both the compiler and the execution drivers are iterative (explicit
stacks), so plans thousands of operators deep — the Figure 6 scaling
regime — compile and run without touching the recursion limit.  See the
"Batches and kernels" section below for the batch format and its
distinctness invariant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import itemgetter
from types import CodeType, FunctionType
from typing import Any, Callable, Sequence

from repro.errors import PlanError, SchemaError
from repro.plans import Join, Plan, Project, Scan, Semijoin, dependencies, plan_key
from repro.relalg.cache import CacheInfo, CatalogVersionTracker, DependencyCache
from repro.relalg.columnar import (
    ColumnStore,
    _interned_pool_size,
    decode_column,
    lookup_code,
    numpy_module,
    pool_epoch,
)
from repro.relalg.database import Database
from repro.relalg.engine import DEFAULT_PLAN_CACHE_SIZE, ENGINE_NAMES, Engine
from repro.relalg.relation import Relation, intern_header, join_layout
from repro.relalg.stats import ExecutionStats

Row = tuple[Any, ...]

# ----------------------------------------------------------------------
# Closure generation helpers
# ----------------------------------------------------------------------
#: Source-text cache for generated closures: structurally identical plan
#: fragments (same positions, any data) share one code object.
_CODEGEN_CACHE: dict[str, Callable] = {}


def _gen(source: str) -> Callable:
    """Compile a tiny positional lambda (indices only — no user data ever
    reaches the generated source, so this is plain metaprogramming, not
    an injection surface)."""
    fn = _CODEGEN_CACHE.get(source)
    if fn is None:
        fn = eval(  # noqa: S307 - source is built from integers only
            compile(source, "<repro.relalg.compiled>", "eval"),
            {"__builtins__": {}},
        )
        _CODEGEN_CACHE[source] = fn
    return fn


def _tuple_extractor(positions: Sequence[int]) -> Callable[[Row], Row]:
    """Row -> tuple of the values at ``positions`` (always a tuple)."""
    if not positions:
        return _gen("lambda r: ()")
    if len(positions) == 1:
        return _gen(f"lambda r: (r[{positions[0]}],)")
    return itemgetter(*positions)


def _key_extractor(positions: Sequence[int]) -> Callable[[Row], Any]:
    """Row -> hash key: the bare value for one position, a tuple for
    several — the same two shapes as :meth:`ColumnStore.key_index`
    keys, so row-path probes can test membership in it directly."""
    if len(positions) == 1:
        return itemgetter(positions[0])
    return itemgetter(*positions)


def _pair_emitter(spec: Sequence[tuple[str, int]]) -> Callable[[Row, Row], Row]:
    """(left_row, extras) -> projected output row, per a compile-time
    spec of ``('l'|'e', index)`` parts."""
    if not spec:
        return _gen("lambda l, e: ()")
    body = ", ".join(f"{side}[{index}]" for side, index in spec)
    return _gen(f"lambda l, e: ({body},)")


class _cell:
    """Per-input-version cell: ``cell(x)`` is ``build(x)``, computed by the
    first call that sees the object ``x`` and kept until a call arrives
    with a different one.  Everything a unit derives from rows or codes
    lives in one of these, keyed on the object it was derived from (a
    base relation, a scan's batch): a write puts a new object in the
    catalog, so exactly the structures over the written relation are
    rebuilt, by the first execution that needs them, and the steady-state
    cost is one identity check.  With a ``source``, ``cell()`` fetches
    its own input: ``cell(source())``.

    One slotted object per cell, not a closure: units are made by the
    thousand, and what the collector has to walk is part of what a cold
    query costs.
    """

    __slots__ = ("build", "source", "seen", "value")

    def __init__(
        self, build: Callable[[Any], Any], source: Callable[[], Any] | None = None
    ) -> None:
        self.build = build
        self.source = source
        self.seen = self.value = None

    def __call__(self, x: Any = None) -> Any:
        if x is None:
            x = self.source()
        if x is not self.seen:
            self.value = self.build(x)
            self.seen = x
        return self.value


# ----------------------------------------------------------------------
# Compiled units
# ----------------------------------------------------------------------
@dataclass(eq=False, repr=False)
class _Unit:
    """One fused operator group: a closure plus its execution metadata.

    ``eq``/``repr`` are identity-based: the generated recursive ones
    would blow the recursion limit on deep unit trees.

    A unit holds only what the plan and the base *schemas* determine —
    layout, key and emit positions, generated code, the sticky row/array
    ``_mode`` of a pipeline — so it is lowered once per ``plan_key`` and
    outlives every write.  Rows and codes are read through the catalog
    at run time; what is derived from them lives in cells
    (:func:`_cell`).

    ``fn(stats, *child_batches)`` evaluates the group, records the
    logical stats of every plan node it covers (in the interpreter's
    post-order), and returns the output batch.  ``key`` is the
    ``plan_key`` of the group's *root* plan node — the CSE cache key.
    ``source``/``source_positions`` are set only for zero-copy scans
    (and projections folded onto one), so parents can reuse the base
    relation's memoized key index by column position; ``source()`` is
    the scanned relation as the catalog holds it now.
    """

    fn: Callable[..., Any]
    children: tuple["_Unit", ...]
    key: tuple
    header: tuple[str, ...]
    source: Callable[[], Relation] | None = None
    source_positions: dict[str, int] | None = None
    #: Set only on *scan units* (a scan, or a projection
    #: folded over one): ``bound()`` is ``(batch, (total, built,
    #: max_card))`` — the unit's output over the relation the catalog
    #: holds now and the data-dependent part of its stats — the same
    #: object until that relation is written.  Being a scan unit is what
    #: lets a parent keep build-side structures across executions and
    #: absorb the unit into a pipeline.
    bound: Callable[[], tuple] | None = None
    #: Lazily flattened post-order ``[(fn, nargs), ...]`` of the unit
    #: tree rooted here (uncached driver).
    program: list | None = None
    #: Set only on pipeline units: the scan units its stages
    #: probe, bottom-up.  The kernel reads their ``bound`` records
    #: itself, so the drivers never schedule them as children.
    stages: tuple["_Unit", ...] = ()
    #: Base-relation footprint of the group's root plan node
    #: (:func:`repro.plans.dependencies`), stamped at compile time: a
    #: cached result the unit produced is invalidated exactly when one
    #: of these relations mutates, the unit itself only when one of them
    #: is dropped or changes columns.
    deps: tuple[str, ...] = ()


def _scan_layout(scan: Scan, arity: int):
    """Compile-time layout of a scan over a base relation of ``arity``
    columns: the first position of each variable, repeated-variable
    equalities, and the positions that realize the scan's output
    header."""
    n_positions = len(scan.variables) + len(scan.constants)
    if n_positions != arity:
        raise SchemaError(
            f"atom over {scan.relation!r} binds {n_positions} positions, "
            f"relation has arity {arity}"
        )
    constant_positions = dict(scan.constants)
    variable_positions: list[tuple[int, str]] = []
    var_iter = iter(scan.variables)
    for position in range(arity):
        if position in constant_positions:
            continue
        variable_positions.append((position, next(var_iter)))
    first_position: dict[str, int] = {}
    equalities: list[tuple[int, int]] = []
    for position, variable in variable_positions:
        if variable in first_position:
            equalities.append((first_position[variable], position))
        else:
            first_position[variable] = position
    out_positions = [first_position[variable] for variable in scan.columns]
    return first_position, equalities, out_positions


def _join_layout(left_cols: tuple[str, ...], right_cols: tuple[str, ...]):
    """Compile-time layout shared by all join-shaped units (memoized in
    :func:`repro.relalg.relation.join_layout`; the output header, which
    join units take from the plan node, is dropped here)."""
    shared, _, left_key, right_key, right_extra = join_layout(left_cols, right_cols)
    return shared, left_key, right_key, right_extra


def _project_spec(
    columns: tuple[str, ...],
    left_cols: tuple[str, ...],
    extra_cols: tuple[str, ...],
) -> list[tuple[str, int]]:
    """Where each projected column lives in a (left_row, extras) pair."""
    left_index = {name: index for index, name in enumerate(left_cols)}
    extra_index = {name: index for index, name in enumerate(extra_cols)}
    spec: list[tuple[str, int]] = []
    for name in columns:
        if name in left_index:
            spec.append(("l", left_index[name]))
        else:
            spec.append(("e", extra_index[name]))
    return spec


# ----------------------------------------------------------------------
# Batches and kernels
# ----------------------------------------------------------------------
# Unit payloads are *batches* over the global dictionary codes of
# :mod:`repro.relalg.columnar`, never sets of decoded rows.  A batch is
# ``(nrows, payload)`` with two physical payload forms:
#
# - **row form** — a plain ``list`` of code tuples.  This is the
#   small-batch representation (and the only one without numpy): its
#   kernels are hash-join loops over dicts and sets, without per-output-
#   row set hashing, which the distinctness invariant (below) makes
#   unnecessary.
# - **array form** — a ``tuple`` of ``int64`` numpy arrays, one per
#   column.  Its kernels are whole-array operations: a k-column key is
#   the codes bit-packed into one ``int64`` while the interning pool fits
#   ``63 // k`` bits per code, void-dtype records (compared by memcmp)
#   over a larger pool (:func:`_npkeys`); matching and membership are
#   sort + searchsorted, gathers are fancy indexing, and dedup is
#   ``np.unique``.
#
# Each kernel dispatches per execution on its input cardinalities: if
# either side holds at least ``_ARRAY_MIN`` rows the array path runs
# (the per-call numpy overhead is amortized), otherwise the row path
# does (lists of small tuples beat arrays by a wide margin there).
# Payloads convert lazily at the representation boundary; the conversion
# cost is bounded by the batch being converted, and a mixed-size join
# only ever converts its small side.
#
# Scans are folded once per input version: a scan's batch depends only
# on the (immutable) relation object the catalog holds, so a *scan unit*
# — constant/equality selections and a projection on top included —
# keeps it in a cell keyed on that object (``_Unit.bound``).  Parents
# exploit scan-unit children the same way: a join whose right operand is
# one keeps its hash index (row path) and its sorted key array (array
# path) in cells keyed on the child's batch, each built by the first
# execution that takes its path, so the steady-state cost of those joins
# is the probe loop alone.  A write swaps the relation object, so the
# next execution refolds that scan and rebuilds the structures over it —
# and only those; the units themselves, and everything over untouched
# relations, stay.
#
# The load-bearing invariant: **every unit's output batch is distinct.**
# Base relations are sets; a filtered scan's dropped positions
# (constants and repeated variables) are functionally determined by the
# kept ones; a natural join of distinct inputs is distinct (key + extras
# is the full right row); semijoins and filter-joins select subsets.
# Only projection can create duplicates, so projection-shaped kernels
# are the only ones that deduplicate — every other kernel emits straight
# into a list or array without hashing its output rows.  Fused
# project-over-join goes further: it groups both sides by join key and
# emits per-key cross products of the *projected* distinct rows, so the
# wide join result is counted (for the stats contract) but never
# materialized.  The same invariant makes the logical cardinality of
# each output equal to its batch length, so the stats calls below
# reproduce the interpreter's counters exactly.

#: numpy as the last lowering found it (``None`` without it,
#: and before any): set by :func:`_sync_numpy`, so the process imports
#: numpy only once it lowers a plan that could take an array path.
_np: Any = None
_NP_EMPTY: Any = None


def _sync_numpy() -> None:
    """Point the kernels' ``_np`` at :func:`numpy_module`'s answer,
    importing numpy the first time this runs.  ``_NP_EMPTY`` is set
    first, so a thread that finds ``_np`` current finds it too."""
    global _np, _NP_EMPTY
    np = numpy_module()
    if np is not _np:
        _NP_EMPTY = None if np is None else np.empty(0, dtype=np.int64)
        _np = np


Batch = tuple[int, Any]

#: Input batches at least this large take the array kernels (when numpy
#: is available); anything smaller runs the row kernels.
_ARRAY_MIN = 512


def _to_rows(payload, nrows: int) -> list[tuple]:
    """Batch payload in row form (a list of code tuples)."""
    if type(payload) is list:
        return payload
    if not payload:
        return [()] * nrows
    if len(payload) == 1:
        return list(zip(payload[0].tolist()))
    return list(zip(*(col.tolist() for col in payload)))


def _to_cols(batch: Batch, arity: int):
    """Batch payload in array form (a tuple of ``int64`` columns)."""
    nrows, payload = batch
    if type(payload) is not list:
        return payload
    if not arity:
        return ()
    if not nrows:
        return tuple(_NP_EMPTY for _ in range(arity))
    stacked = _np.asarray(payload, dtype=_np.int64)
    return tuple(stacked[:, j] for j in range(arity))


def _batch_rows(batch: Batch) -> list[tuple]:
    """Row form of a whole batch."""
    return _to_rows(batch[1], batch[0])


def _bucket(rows: list[tuple], key: Callable, value: Callable | None = None) -> dict:
    """Hash index ``key(row) -> [value(row), ...]`` (the rows themselves
    without ``value``) — the build side of every row-path join kernel."""
    index: dict = {}
    get = index.get
    for row in rows:
        k = key(row)
        bucket = get(k)
        if bucket is None:
            index[k] = bucket = []
        bucket.append(row if value is None else value(row))
    return index


def _kept(unit: _Unit, build: Callable[[Batch], Any]) -> Callable[[Batch], Any]:
    """``build`` — a build-side structure as a function of ``unit``'s
    output batch — kept across executions when ``unit`` is a scan unit
    (its batch is one object until its relation is written), plain
    otherwise (a dynamic child's batch is new on every execution, and a
    cell would only pin the last one in memory).  Either way nothing is
    built before the first execution that takes the path needing it: a
    unit whose batches all stay under ``_ARRAY_MIN`` never pays for an
    array-side sort, one pinned to the array path never for a row dict."""
    return _cell(build) if unit.bound is not None else build


# ----------------------------------------------------------------------
# Array kernels' shared primitives (numpy-backed; optional)
# ----------------------------------------------------------------------
def _npkeys(cols, positions: Sequence[int], like=None):
    """Comparable 1-D key array for ``positions``: the ``int64`` column
    itself for one position (zero-copy).  For k >= 2 positions, the codes
    bit-packed into one ``int64``, ``b = 63 // k`` bits each, the first
    position most significant — exact while the interning pool holds at
    most ``2**b`` codes, since every code is below the pool size — and
    over a larger pool a void view of the stacked columns (one
    fixed-width record per row, memcmp-comparable).

    ``like`` — a right side's sorted keys — makes probe keys in that
    side's form rather than the current pool's.  Within an epoch the pool
    only grows, so a kept side built packed may meet rows holding a code
    at or above ``2**b``; such a row equals no packed key and gets ``-1``,
    which no packed key is.  A side built void is probed void."""
    k = len(positions)
    if k == 1:
        return cols[positions[0]]
    bits = 63 // k
    limit = 1 << bits
    pool = _interned_pool_size()
    void = pool > limit if like is None else like.dtype.kind == "V"
    if void:
        n = len(cols[positions[0]])
        stacked = _np.empty((n, k), dtype=_np.int64)
        for j, p in enumerate(positions):
            stacked[:, j] = cols[p]
        return stacked.view(f"V{8 * k}").ravel()
    keys = cols[positions[0]] << bits
    keys |= cols[positions[1]]
    for p in positions[2:]:
        keys <<= bits
        keys |= cols[p]
    if pool > limit:  # probing a side packed under a smaller pool
        wide = cols[positions[0]] >= limit
        for p in positions[1:]:
            wide |= cols[p] >= limit
        keys[wide] = -1
    return keys


def _npmask(lcols, left_key, rsorted):
    """Boolean membership mask of the rows of ``lcols`` on ``left_key``
    in the sorted, non-empty key array ``rsorted``."""
    lkeys = _npkeys(lcols, left_key, rsorted)
    pos = _np.searchsorted(rsorted, lkeys)
    _np.minimum(pos, len(rsorted) - 1, out=pos)
    return rsorted[pos] == lkeys


def _npmatch_sorted(lcols, left_key, order, rsorted):
    """All matching (left_row, right_row) index pairs of the rows of
    ``lcols`` on ``left_key`` against a pre-sorted right side:
    range-lookup each left key, expand the ranges arithmetically into two
    aligned ``int64`` index arrays."""
    lkeys = _npkeys(lcols, left_key, rsorted)
    lo = _np.searchsorted(rsorted, lkeys, side="left")
    hi = _np.searchsorted(rsorted, lkeys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if not total:
        return _NP_EMPTY, _NP_EMPTY
    lidx = _np.repeat(_np.arange(len(lkeys)), counts)
    within = _np.arange(total) - _np.repeat(_np.cumsum(counts) - counts, counts)
    ridx = order[_np.repeat(lo, counts) + within]
    return lidx, ridx


def _npmatch(lcols, left_key, rkeys):
    """:func:`_npmatch_sorted` with the right side sorted here."""
    order = _np.argsort(rkeys, kind="stable")
    return _npmatch_sorted(lcols, left_key, order, rkeys[order])


def _npdistinct_cols(cols, nrows: int):
    """Distinct rows of an array batch (the projection kernel): returns
    ``(cardinality, columns)``, reusing the input columns zero-copy when
    nothing collapsed."""
    if not cols:
        return (1 if nrows else 0), ()
    if not nrows:
        return 0, cols
    first = _np.unique(_npkeys(cols, range(len(cols))), return_index=True)[1]
    if len(first) == nrows:
        return nrows, cols
    return len(first), tuple(c[first] for c in cols)


def _npjoin_index(batch: Batch, right_key: Sequence[int], rarity: int):
    """Build side of :func:`_npmatch_sorted`: the batch's
    ``(order, sorted_keys)``."""
    rkeys = _npkeys(_to_cols(batch, rarity), right_key)
    order = _np.argsort(rkeys, kind="stable")
    return order, rkeys[order]


def _npsorted_keys(batch: Batch, right_key: Sequence[int], rarity: int):
    """Build side of :func:`_npmask`: the batch's sorted key array."""
    return _np.sort(_npkeys(_to_cols(batch, rarity), right_key))


def _npsemijoin_lookup(right_unit: _Unit, right_key: Sequence[int], rarity: int):
    """Sorted right-key array for array-path membership probes, as a
    function of the right batch (:func:`_kept` for a scan unit)."""
    return _kept(
        right_unit, lambda rbatch: _npsorted_keys(rbatch, right_key, rarity)
    )


def _decode_batch(header: tuple[str, ...], batch: Batch) -> Relation:
    """Final answer: decode a (distinct) batch into a ``Relation`` and
    attach the columnar payload so downstream consumers reuse it."""
    nrows, payload = batch
    if type(payload) is list:
        if header:
            cols = (
                tuple(map(list, zip(*payload)))
                if payload
                else tuple([] for _ in header)
            )
        else:
            cols = ()
    else:
        cols = payload
        if _np is not None:
            cols = tuple(
                col.tolist() if isinstance(col, _np.ndarray) else col
                for col in cols
            )
    header = intern_header(header)
    if not cols:
        rows: frozenset[Row] = frozenset([()]) if nrows else frozenset()
        result = Relation._from_trusted(header, rows)
        result._colstore = ColumnStore((), nrows)
        return result
    rows = frozenset(zip(*map(decode_column, cols)))
    result = Relation._from_trusted(header, rows)
    result._colstore = ColumnStore(tuple(cols), nrows)
    return result


class _Later:
    """A kernel's array path, made by the first call that takes it:
    ``make(*args)`` returns the array kernel, which then serves every
    call.  A unit whose batches all stay under ``_ARRAY_MIN`` never pays
    for its closure, cells or build sides."""

    __slots__ = ("make", "args", "kernel")

    def __init__(self, make: Callable[..., Callable], args: tuple) -> None:
        self.make, self.args, self.kernel = make, args, None

    def __call__(self, stats: ExecutionStats, *batches: Batch) -> Batch:
        if self.kernel is None:
            self.kernel = self.make(*self.args)
        return self.kernel(stats, *batches)


def _array_path(make: Callable[..., Callable], *args) -> _Later | None:
    """``make(*args)`` as a :class:`_Later`, or ``None`` without numpy
    (every batch then takes the row path)."""
    return _Later(make, args) if _np is not None else None


def _vsemijoin_lookup(
    right_unit: _Unit, shared: tuple[str, ...], right_key: Sequence[int]
):
    """Membership structure for row-path semijoin-shaped probes.

    A zero-copy scan probes the base relation's memoized
    :meth:`ColumnStore.key_index` spans dict (built once per base
    relation and key, shared across plan nodes, executions, and
    engines); anything else builds the key set from the right batch —
    each run, or once per batch for a scan unit (:func:`_kept`).  Both
    support ``key in lookup(...)`` with the shared key shapes (bare code
    / code tuple).
    """
    fetch = right_unit.source
    if fetch is not None:
        positions = tuple(right_unit.source_positions[name] for name in shared)
        return _cell(lambda rbatch: fetch().columnar().key_index(positions)[0])
    rkey = _key_extractor(right_key)
    return _kept(right_unit, lambda rbatch: set(map(rkey, _batch_rows(rbatch))))


# Each kernel shape below has a builder making the row kernel and only
# the cells it reads, and an ``*_np`` twin making the array kernel,
# called by the first batch at or above ``_ARRAY_MIN`` (_array_path).
def _vcompile_join(node: Join, key: tuple, children: tuple[_Unit, ...]) -> _Unit:
    left_cols, right_cols = node.left.columns, node.right.columns
    shared, left_key, right_key, right_extra = _join_layout(left_cols, right_cols)
    sizes = (len(left_cols), len(right_cols), len(node.columns))
    if not shared:
        fn = _vjoin_cross(*sizes)
    elif not right_extra:
        fn = _vjoin_filter(children[1], shared, left_key, right_key, *sizes)
    else:
        fn = _vjoin_hash(children, left_key, right_key, right_extra, *sizes)
    return _Unit(fn=fn, children=children, key=key, header=node.columns)


def _vjoin_cross(larity: int, rarity: int, arity: int) -> Callable:
    arrays = _array_path(_vjoin_cross_np, larity, rarity, arity)
    trace = (arity,)

    def run_cross(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if arrays is not None and (ln >= _ARRAY_MIN or rn >= _ARRAY_MIN):
            return arrays(stats, lbatch, rbatch)
        lrows = _to_rows(lbatch[1], ln)
        rrows = _to_rows(rbatch[1], rn)
        out = [lrow + rrow for lrow in lrows for rrow in rrows]
        cardinality = ln * rn
        stats.record_bulk(
            1, 0, 0, 0, cardinality, cardinality, cardinality,
            arity, ln + rn + cardinality, trace,
        )
        return cardinality, out

    return run_cross


def _vjoin_cross_np(larity: int, rarity: int, arity: int) -> Callable:
    trace = (arity,)

    def run_np(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        lcols = _to_cols(lbatch, larity)
        rcols = _to_cols(rbatch, rarity)
        cardinality = ln * rn
        out = tuple(_np.repeat(col, rn) for col in lcols) + tuple(
            _np.tile(col, ln) for col in rcols
        )
        stats.record_bulk(
            1, 0, 0, 0, cardinality, cardinality, cardinality,
            arity, ln + rn + cardinality, trace,
        )
        return cardinality, out

    return run_np


def _vjoin_filter(runit, shared, left_key, right_key, larity, rarity, arity):
    """Semijoin-shaped join: the output is the matching left rows."""
    lkey = _key_extractor(left_key)
    lookup = _vsemijoin_lookup(runit, shared, right_key)
    arrays = _array_path(
        _vjoin_filter_np, runit, left_key, right_key, larity, rarity, arity
    )
    trace = (arity,)

    def run_filter_join(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if arrays is not None and (ln >= _ARRAY_MIN or rn >= _ARRAY_MIN):
            return arrays(stats, lbatch, rbatch)
        if ln and rn:
            keys = lookup(rbatch)
            out = [
                lrow
                for lrow in _to_rows(lbatch[1], ln)
                if lkey(lrow) in keys
            ]
            cardinality = len(out)
            if cardinality == ln:
                out = lbatch[1]  # nothing filtered: reuse the payload
        else:
            cardinality = 0
            out = lbatch[1] if ln == 0 else []
        stats.record_bulk(
            1, 0, 0, 0, cardinality, cardinality, cardinality,
            arity, ln + rn + cardinality, trace,
        )
        return cardinality, out

    return run_filter_join


def _vjoin_filter_np(runit, left_key, right_key, larity, rarity, arity):
    nplookup = _npsemijoin_lookup(runit, right_key, rarity)
    trace = (arity,)

    def run_np(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if ln and rn:
            lcols = _to_cols(lbatch, larity)
            mask = _npmask(lcols, left_key, nplookup(rbatch))
            cardinality = int(mask.sum())
            out = (
                lbatch[1]  # nothing filtered: reuse the payload
                if cardinality == ln
                else tuple(col[mask] for col in lcols)
            )
        else:
            cardinality = 0
            out = lbatch[1] if ln == 0 else []
        stats.record_bulk(
            1, 0, 0, 0, cardinality, cardinality, cardinality,
            arity, ln + rn + cardinality, trace,
        )
        return cardinality, out

    return run_np


def _vjoin_hash(children, left_key, right_key, right_extra, larity, rarity, arity):
    lunit, runit = children
    lkey = _key_extractor(left_key)
    rkey = _key_extractor(right_key)
    rext = _tuple_extractor(right_extra)
    # Which side the row path indexes: a scan unit's, whose index is
    # then kept until its relation is written (the right one when both
    # are), else the smaller side of each execution.  Only the indexes
    # that choice can pick are made.
    rindex = lindex = None
    if runit.bound is not None or lunit.bound is None:
        rindex = _kept(runit, lambda rbatch: _bucket(_batch_rows(rbatch), rkey, rext))
    if runit.bound is None:
        lindex = _kept(lunit, lambda lbatch: _bucket(_batch_rows(lbatch), lkey))
    arrays = _array_path(
        _vjoin_hash_np, runit, left_key, right_key, right_extra, larity, rarity, arity
    )
    trace = (arity,)

    def run_join(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if arrays is not None and (ln >= _ARRAY_MIN or rn >= _ARRAY_MIN):
            return arrays(stats, lbatch, rbatch)
        out: list[tuple] = []
        append = out.append
        if lindex is None or (rindex is not None and ln > rn):
            get = rindex(rbatch).get
            for lrow in _to_rows(lbatch[1], ln):
                bucket = get(lkey(lrow))
                if bucket is not None:
                    for extra in bucket:
                        append(lrow + extra)
        else:
            get = lindex(lbatch).get
            for rrow in _to_rows(rbatch[1], rn):
                bucket = get(rkey(rrow))
                if bucket is not None:
                    extra = rext(rrow)
                    for lrow in bucket:
                        append(lrow + extra)
        cardinality = len(out)
        stats.record_bulk(
            1, 0, 0, 0, cardinality, cardinality, cardinality,
            arity, ln + rn + cardinality, trace,
        )
        return cardinality, out

    return run_join


def _vjoin_hash_np(runit, left_key, right_key, right_extra, larity, rarity, arity):
    np_rindex = (
        _cell(lambda rbatch: _npjoin_index(rbatch, right_key, rarity))
        if runit.bound is not None
        else None
    )
    trace = (arity,)

    def run_np(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if ln and rn:
            lcols = _to_cols(lbatch, larity)
            rcols = _to_cols(rbatch, rarity)
            if np_rindex is not None:
                lidx, ridx = _npmatch_sorted(lcols, left_key, *np_rindex(rbatch))
            else:
                lidx, ridx = _npmatch(lcols, left_key, _npkeys(rcols, right_key))
            cardinality = len(lidx)
            out = tuple(col[lidx] for col in lcols) + tuple(
                rcols[p][ridx] for p in right_extra
            )
        else:
            cardinality = 0
            out = []
        stats.record_bulk(
            1, 0, 0, 0, cardinality, cardinality, cardinality,
            arity, ln + rn + cardinality, trace,
        )
        return cardinality, out

    return run_np


def _vcompile_semijoin(
    node: Semijoin, key: tuple, children: tuple[_Unit, ...]
) -> _Unit:
    left_cols, right_cols = node.left.columns, node.right.columns
    shared, left_key, right_key, _ = _join_layout(left_cols, right_cols)
    header = node.columns
    arity = len(header)
    trace = (arity,)

    if not shared:

        def run_degenerate(
            stats: ExecutionStats, lbatch: Batch, rbatch: Batch
        ) -> Batch:
            out = lbatch if rbatch[0] else (0, [])
            n = out[0]
            stats.record_bulk(0, 1, 0, 0, n, 0, n, arity, 0, trace)
            return out

        return _Unit(fn=run_degenerate, children=children, key=key, header=header)

    lkey = _key_extractor(left_key)
    lookup = _vsemijoin_lookup(children[1], shared, right_key)
    arrays = _array_path(
        _vsemijoin_np, children[1], left_key, right_key,
        len(left_cols), len(right_cols), arity,
    )

    def run_semijoin(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if arrays is not None and (ln >= _ARRAY_MIN or rn >= _ARRAY_MIN):
            return arrays(stats, lbatch, rbatch)
        if ln and rn:
            keys = lookup(rbatch)
            out = [
                lrow for lrow in _to_rows(lbatch[1], ln) if lkey(lrow) in keys
            ]
        else:
            out = []
        matched = len(out)
        if matched == ln:
            stats.record_bulk(0, 1, 0, 0, ln, 0, ln, arity, 0, trace)
            return lbatch  # nothing filtered: reuse the input batch
        stats.record_bulk(0, 1, 0, 0, matched, matched, matched, arity, 0, trace)
        return matched, out

    return _Unit(fn=run_semijoin, children=children, key=key, header=header)


def _vsemijoin_np(runit, left_key, right_key, larity, rarity, arity):
    nplookup = _npsemijoin_lookup(runit, right_key, rarity)
    trace = (arity,)

    def run_np(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if ln and rn:
            lcols = _to_cols(lbatch, larity)
            mask = _npmask(lcols, left_key, nplookup(rbatch))
            matched = int(mask.sum())
            if matched == ln:
                stats.record_bulk(0, 1, 0, 0, ln, 0, ln, arity, 0, trace)
                return lbatch  # nothing filtered: reuse the input batch
            stats.record_bulk(
                0, 1, 0, 0, matched, matched, matched, arity, 0, trace
            )
            return matched, tuple(col[mask] for col in lcols)
        stats.record_bulk(0, 1, 0, 0, 0, 0, 0, arity, 0, trace)
        return lbatch if ln == 0 else (0, [])

    return run_np


@lru_cache(maxsize=1024)
def _fused_finish(join: bool, inner_arity: int, out_arity: int) -> Callable:
    """Stats of a projection fused over a join or a semijoin: the two
    nodes, in the interpreter's post-order, folded into one bulk update
    (the inner node with its unbuilt output, then the projection with
    its built one).  ``finish(stats, ln, rn, inner, out_card)`` takes the
    inner node's cardinality — the wide join's, or the semijoin's
    matches — and is static in its three arguments, so one closure
    serves every unit of the same shape."""
    joins, semis = (1, 0) if join else (0, 1)
    max_arity = inner_arity if inner_arity > out_arity else out_arity
    trace = (inner_arity, out_arity)

    def finish(
        stats: ExecutionStats, ln: int, rn: int, inner: int, out_card: int
    ) -> None:
        stats.record_bulk(
            joins, semis, 1, 0,
            inner + out_card, out_card,
            inner if inner > out_card else out_card,
            max_arity, ln + rn + inner if join else 0, trace,
        )

    return finish


def _pair_layout(spec: list[tuple[str, int]], right_extra: tuple[int, ...]):
    """How a fused projection that keeps right-hand columns emits: from
    (projected-left, projected-extra) row pairs.  Returns the positions
    each side projects, the pair emitter — ``None`` for a concat-shaped
    projection (all kept left columns, then all kept extras, each in
    order), whose row is plain ``lt + et`` — and the spec rewritten to
    side ordinals."""
    sides = "".join(side for side, _ in spec)
    ordinals = [(side, sides[:i].count(side)) for i, side in enumerate(sides)]
    lproj = tuple(index for side, index in spec if side == "l")
    eproj = tuple(right_extra[index] for side, index in spec if side == "e")
    emit = None if "el" not in sides else _pair_emitter(ordinals)
    return lproj, eproj, emit, ordinals


def _vcompile_project_join(
    node: Project, key: tuple, children: tuple[_Unit, ...]
) -> _Unit:
    join = node.child
    assert isinstance(join, Join)
    left_cols, right_cols = join.left.columns, join.right.columns
    shared, left_key, right_key, right_extra = _join_layout(left_cols, right_cols)
    header = node.columns
    spec = _project_spec(
        header, left_cols, tuple(right_cols[p] for p in right_extra)
    )
    sizes = (len(left_cols), len(right_cols))
    finish = _fused_finish(True, len(join.columns), len(header))
    if any(side == "e" for side, _ in spec):
        if not shared:
            fn = _vpj_cross(children[1], spec, right_extra, *sizes, finish)
        else:
            fn = _vpj_hash(
                children, spec, left_key, right_key, right_extra, *sizes, finish
            )
    else:
        positions = tuple(index for _, index in spec)
        if not shared:
            fn = _vpj_cross_left(positions, sizes[0], finish)
        elif not right_extra:
            fn = _vpj_filter(
                _plain_source(join.left, children[0]), children[1],
                shared, left_key, right_key, positions, *sizes, finish,
            )
        else:
            fn = _vpj_left(children, left_key, right_key, positions, *sizes, finish)
    return _Unit(fn=fn, children=children, key=key, header=header)


def _plain_source(node: Plan, unit: _Unit):
    """``unit.source`` when ``unit`` is a plain zero-copy scan of
    ``node`` — its batch the base store itself, row for row — else
    ``None`` (a folded projection keeps ``source`` but not the rows)."""
    return unit.source if isinstance(node, Scan) else None


def _vpj_cross_left(positions, larity, finish):
    """Cross product under a projection keeping left columns only."""
    eml = _tuple_extractor(positions)
    arrays = _array_path(_vpj_cross_left_np, positions, larity, finish)

    def run_cross_left(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if arrays is not None and (ln >= _ARRAY_MIN or rn >= _ARRAY_MIN):
            return arrays(stats, lbatch, rbatch)
        if ln and rn:
            distinct = list(dict.fromkeys(map(eml, _to_rows(lbatch[1], ln))))
            out = len(distinct), distinct
        else:
            out = 0, []
        finish(stats, ln, rn, ln * rn, out[0])
        return out

    return run_cross_left


def _vpj_cross_left_np(positions, larity, finish):
    def run_np(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if ln and rn:
            lcols = _to_cols(lbatch, larity)
            out = _npdistinct_cols(tuple(lcols[p] for p in positions), ln)
        else:
            out = 0, []
        finish(stats, ln, rn, ln * rn, out[0])
        return out

    return run_np


def _vpj_cross(runit, spec, right_extra, larity, rarity, finish):
    """Cross product under a projection keeping right columns:
    π(L × R) = π_l(L) × π_e(R).  Concatenations of distinct fixed-arity
    tuples are distinct, so the two deduplicated sides are crossed with
    no global dedup and never a wide materialization."""
    lproj, eproj, emit, ordinals = _pair_layout(spec, right_extra)
    emlp = _tuple_extractor(lproj)
    emep = _tuple_extractor(eproj)
    eset_of = _kept(
        runit, lambda rbatch: dict.fromkeys(map(emep, _batch_rows(rbatch)))
    )
    arrays = _array_path(
        _vpj_cross_np, lproj, eproj, ordinals, larity, rarity, finish
    )

    def run_cross_project(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if arrays is not None and (ln >= _ARRAY_MIN or rn >= _ARRAY_MIN):
            return arrays(stats, lbatch, rbatch)
        if ln and rn:
            lset = dict.fromkeys(map(emlp, _to_rows(lbatch[1], ln)))
            eset = eset_of(rbatch)
            if emit is None:
                out_rows = [lt + et for lt in lset for et in eset]
            else:
                out_rows = [emit(lt, et) for lt in lset for et in eset]
            out = len(out_rows), out_rows
        else:
            out = 0, []
        finish(stats, ln, rn, ln * rn, out[0])
        return out

    return run_cross_project


def _vpj_cross_np(lproj, eproj, ordinals, larity, rarity, finish):
    def run_np(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if ln and rn:
            lcols = _to_cols(lbatch, larity)
            rcols = _to_cols(rbatch, rarity)
            lcard, lu = _npdistinct_cols(tuple(lcols[p] for p in lproj), ln)
            ecard, eu = _npdistinct_cols(tuple(rcols[p] for p in eproj), rn)
            out_cols = tuple(
                _np.repeat(lu[o], ecard) if side == "l" else _np.tile(eu[o], lcard)
                for side, o in ordinals
            )
            out = lcard * ecard, out_cols
        else:
            out = 0, []
        finish(stats, ln, rn, ln * rn, out[0])
        return out

    return run_np


def _vpj_filter(
    lsource, runit, shared, left_key, right_key, positions, larity, rarity, finish
):
    """Semijoin-shaped join under a projection: filter and project in
    one pass, deduplicating only the surviving projected rows.
    ``lsource`` is the left side's ``source`` when that side is a plain
    zero-copy scan (its batch is the base store), else ``None``."""
    lkey = _key_extractor(left_key)
    eml = _tuple_extractor(positions)
    lookup = _vsemijoin_lookup(runit, shared, right_key)
    arrays = _array_path(
        _vpj_filter_np, runit, left_key, right_key, positions, larity, rarity, finish
    )
    probe = None
    if arrays is not None and lsource is not None and len(left_key) == 1:
        probe = partial(
            _vpj_probe, lsource, left_key[0], right_key[0], positions, finish
        )

    def run_filter_project(
        stats: ExecutionStats, lbatch: Batch, rbatch: Batch
    ) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if arrays is not None and (ln >= _ARRAY_MIN or rn >= _ARRAY_MIN):
            if probe is not None and rn and rn * 8 < ln:
                out = probe(stats, ln, rbatch)
                if out is not None:
                    return out
            return arrays(stats, lbatch, rbatch)
        wide = 0
        cand: dict = {}
        if ln and rn:
            keys = lookup(rbatch)
            for lrow in _to_rows(lbatch[1], ln):
                if lkey(lrow) in keys:
                    wide += 1
                    cand[eml(lrow)] = None
        out_rows = list(cand)
        finish(stats, ln, rn, wide, len(out_rows))
        return len(out_rows), out_rows

    return run_filter_project


def _vpj_probe(lsource, lpos, rpos, positions, finish, stats, ln, rbatch):
    """Few-match path of :func:`_vpj_filter` over a large zero-copy left
    scan and a small right side (an anchored statement's ``__param``
    row, say): look the right side's *distinct* keys up in the left
    relation's memoized sorted column (:meth:`ColumnStore.sorted_index`)
    and emit the matching rows from its code lists, instead of probing
    every left row.  Returns ``None`` when at least a sixteenth of the
    left rows match, and the array kernel runs instead.  The keys are
    deduplicated because the number of matching left rows is the
    logical cardinality of the fused join or semijoin, and a right side
    with extra columns can repeat a key."""
    rn, payload = rbatch
    if type(payload) is list:
        keys = _np.fromiter({row[rpos] for row in payload}, _np.int64)
    else:
        keys = _np.unique(payload[rpos])
    store = lsource().columnar()
    order, codes = store.sorted_index(lpos)
    lo = codes.searchsorted(keys, "left").tolist()
    hi = codes.searchsorted(keys, "right").tolist()
    wide = sum(hi) - sum(lo)
    if wide * 16 >= ln:
        return None
    if positions:
        ids = [i for a, b in zip(lo, hi) if a < b for i in order[a:b].tolist()]
        cols = [store.codes[p] for p in positions]
        rows = list(dict.fromkeys(zip(*[[col[i] for i in ids] for col in cols])))
    else:
        rows = [()] if wide else []
    finish(stats, ln, rn, wide, len(rows))
    return len(rows), rows


def _vpj_filter_np(runit, left_key, right_key, positions, larity, rarity, finish):
    nplookup = _npsemijoin_lookup(runit, right_key, rarity)

    def run_np(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if ln and rn:
            lcols = _to_cols(lbatch, larity)
            mask = _npmask(lcols, left_key, nplookup(rbatch))
            wide = int(mask.sum())
            out = _npdistinct_cols(tuple(lcols[p][mask] for p in positions), wide)
        else:
            wide = 0
            out = 0, []
        finish(stats, ln, rn, wide, out[0])
        return out

    return run_np


def _vpj_left(children, left_key, right_key, positions, larity, rarity, finish):
    """No right-hand column survives the projection: one candidate
    output row per matching left row, while the wide cardinality is the
    sum of right key multiplicities (right rows are distinct, so each
    key's extras are distinct — the multiplicity is counted without ever
    expanding a pair).  A scan-unit left side under a dynamic right one
    (the bucket-method towers) is the side the row path indexes, once
    per version of its relation, with the right rows streamed through."""
    lunit, runit = children
    lkey = _key_extractor(left_key)
    rkey = _key_extractor(right_key)
    eml = _tuple_extractor(positions)
    lbuckets = counts_of = None
    if runit.bound is None and lunit.bound is not None:
        lbuckets = _kept(lunit, lambda lbatch: _bucket(_batch_rows(lbatch), lkey, eml))
    else:
        counts_of = _kept(
            runit, lambda rbatch: Counter(map(rkey, _batch_rows(rbatch)))
        )
    arrays = _array_path(
        _vpj_left_np, runit, left_key, right_key, positions, larity, rarity, finish
    )

    def run_project_join_left(
        stats: ExecutionStats, lbatch: Batch, rbatch: Batch
    ) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if arrays is not None and (ln >= _ARRAY_MIN or rn >= _ARRAY_MIN):
            return arrays(stats, lbatch, rbatch)
        wide = 0
        cand: dict = {}
        if ln and rn:
            if lbuckets is not None:
                lget = lbuckets(lbatch).get
                added: set = set()
                add = added.add
                for rrow in _to_rows(rbatch[1], rn):
                    k = rkey(rrow)
                    bucket = lget(k)
                    if bucket is not None:
                        wide += len(bucket)
                        if k not in added:
                            add(k)
                            for lt in bucket:
                                cand[lt] = None
            else:
                get = counts_of(rbatch).get
                for lrow in _to_rows(lbatch[1], ln):
                    c = get(lkey(lrow))
                    if c:
                        wide += c
                        cand[eml(lrow)] = None
        out_rows = list(cand)
        finish(stats, ln, rn, wide, len(out_rows))
        return len(out_rows), out_rows

    return run_project_join_left


def _vpj_left_np(runit, left_key, right_key, positions, larity, rarity, finish):
    np_rsorted = _npsemijoin_lookup(runit, right_key, rarity)

    def run_np(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if ln and rn:
            lcols = _to_cols(lbatch, larity)
            rsorted = np_rsorted(rbatch)
            lkeys = _npkeys(lcols, left_key, rsorted)
            lo = _np.searchsorted(rsorted, lkeys, side="left")
            hi = _np.searchsorted(rsorted, lkeys, side="right")
            counts = hi - lo
            wide = int(counts.sum())
            mask = counts > 0
            out = _npdistinct_cols(
                tuple(lcols[p][mask] for p in positions), int(mask.sum())
            )
        else:
            wide = 0
            out = 0, []
        finish(stats, ln, rn, wide, out[0])
        return out

    return run_np


def _vpj_hash(children, spec, left_key, right_key, right_extra, larity, rarity, finish):
    """Probe a key -> projected-rows bucket index and emit the projected
    pair straight into the candidate dict: the wide join result is
    counted (bucket lengths are key multiplicities — rows are distinct
    before projection, and buckets keep duplicates) but never
    materialized.  The indexed side is a scan unit's when the left one
    is the only scan unit (see :func:`_vpj_left`), else the right."""
    lunit, runit = children
    lproj, eproj, emit, _ = _pair_layout(spec, right_extra)
    lkey = _key_extractor(left_key)
    rkey = _key_extractor(right_key)
    emlp = _tuple_extractor(lproj)
    emep = _tuple_extractor(eproj)
    lbuckets_of = rbuckets_of = None
    if runit.bound is None and lunit.bound is not None:
        lbuckets_of = _kept(
            lunit, lambda lbatch: _bucket(_batch_rows(lbatch), lkey, emlp)
        )
    else:
        rbuckets_of = _kept(
            runit, lambda rbatch: _bucket(_batch_rows(rbatch), rkey, emep)
        )
    arrays = _array_path(
        _vpj_hash_np, runit, spec, left_key, right_key, right_extra,
        larity, rarity, finish,
    )

    def run_project_join(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if arrays is not None and (ln >= _ARRAY_MIN or rn >= _ARRAY_MIN):
            return arrays(stats, lbatch, rbatch)
        wide = 0
        cand: dict = {}
        if ln and rn:
            if lbuckets_of is not None:
                lget = lbuckets_of(lbatch).get
                if emit is None:
                    for rrow in _to_rows(rbatch[1], rn):
                        bucket = lget(rkey(rrow))
                        if bucket is not None:
                            wide += len(bucket)
                            et = emep(rrow)
                            for lt in bucket:
                                cand[lt + et] = None
                else:
                    for rrow in _to_rows(rbatch[1], rn):
                        bucket = lget(rkey(rrow))
                        if bucket is not None:
                            wide += len(bucket)
                            et = emep(rrow)
                            for lt in bucket:
                                cand[emit(lt, et)] = None
                out_rows = list(cand)
                finish(stats, ln, rn, wide, len(out_rows))
                return len(out_rows), out_rows
            rget = rbuckets_of(rbatch).get
            if emit is None:
                for lrow in _to_rows(lbatch[1], ln):
                    bucket = rget(lkey(lrow))
                    if bucket is not None:
                        wide += len(bucket)
                        lt = emlp(lrow)
                        for et in bucket:
                            cand[lt + et] = None
            else:
                for lrow in _to_rows(lbatch[1], ln):
                    bucket = rget(lkey(lrow))
                    if bucket is not None:
                        wide += len(bucket)
                        lt = emlp(lrow)
                        for et in bucket:
                            cand[emit(lt, et)] = None
        out_rows = list(cand)
        finish(stats, ln, rn, wide, len(out_rows))
        return len(out_rows), out_rows

    return run_project_join


def _vpj_hash_np(runit, spec, left_key, right_key, right_extra, larity, rarity, finish):
    np_rindex = (
        _cell(lambda rbatch: _npjoin_index(rbatch, right_key, rarity))
        if runit.bound is not None
        else None
    )

    def run_np(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if ln and rn:
            lcols = _to_cols(lbatch, larity)
            rcols = _to_cols(rbatch, rarity)
            if np_rindex is not None:
                lidx, ridx = _npmatch_sorted(lcols, left_key, *np_rindex(rbatch))
            else:
                lidx, ridx = _npmatch(lcols, left_key, _npkeys(rcols, right_key))
            wide = len(lidx)
            wide_cols = tuple(
                lcols[i][lidx] if side == "l" else rcols[right_extra[i]][ridx]
                for side, i in spec
            )
            out = _npdistinct_cols(wide_cols, wide)
        else:
            wide = 0
            out = 0, []
        finish(stats, ln, rn, wide, out[0])
        return out

    return run_np


def _vcompile_project_semijoin(
    node: Project, key: tuple, children: tuple[_Unit, ...]
) -> _Unit:
    """The filter-shaped Project-over-Join kernels with a semijoin's
    stats: the same pass over the left rows, minus a wide output."""
    semi = node.child
    assert isinstance(semi, Semijoin)
    left_cols, right_cols = semi.left.columns, semi.right.columns
    shared, left_key, right_key, _ = _join_layout(left_cols, right_cols)
    header = node.columns
    positions = tuple(left_cols.index(name) for name in header)
    finish = _fused_finish(False, len(semi.columns), len(header))
    if shared:
        fn = _vpj_filter(
            _plain_source(semi.left, children[0]), children[1],
            shared, left_key, right_key, positions,
            len(left_cols), len(right_cols), finish,
        )
    else:
        fn = _vps_degenerate(positions, len(left_cols), finish)
    return _Unit(fn=fn, children=children, key=key, header=header)


def _vps_degenerate(positions, larity, finish):
    eml = _tuple_extractor(positions)
    arrays = _array_path(_vps_degenerate_np, positions, larity, finish)

    def run_degenerate(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if arrays is not None and ln >= _ARRAY_MIN:
            return arrays(stats, lbatch, rbatch)
        if rn:
            matched = ln
            distinct = list(dict.fromkeys(map(eml, _to_rows(lbatch[1], ln))))
            out = len(distinct), distinct
        else:
            matched = 0
            out = 0, []
        finish(stats, ln, rn, matched, out[0])
        return out

    return run_degenerate


def _vps_degenerate_np(positions, larity, finish):
    def run_np(stats: ExecutionStats, lbatch: Batch, rbatch: Batch) -> Batch:
        ln, rn = lbatch[0], rbatch[0]
        if rn:
            matched = ln
            lcols = _to_cols(lbatch, larity)
            out = _npdistinct_cols(tuple(lcols[p] for p in positions), ln)
        else:
            matched = 0
            out = 0, []
        finish(stats, ln, rn, matched, out[0])
        return out

    return run_np


def _vcompile_project(node: Project, key: tuple, children: tuple[_Unit, ...]) -> _Unit:
    child_cols = node.child.columns
    header = node.columns
    arity = len(header)
    carity = len(child_cols)
    positions = tuple(child_cols.index(name) for name in header)
    trace = (arity,)

    if positions == tuple(range(carity)):

        def run_identity(stats: ExecutionStats, cbatch: Batch) -> Batch:
            n = cbatch[0]
            stats.record_bulk(0, 0, 1, 0, n, 0, n, arity, 0, trace)
            return cbatch

        return _Unit(fn=run_identity, children=children, key=key, header=header)

    eml = _tuple_extractor(positions)
    arrays = _array_path(_vproject_np, positions, carity, arity)

    def run_project(stats: ExecutionStats, cbatch: Batch) -> Batch:
        nrows = cbatch[0]
        if arrays is not None and nrows >= _ARRAY_MIN:
            return arrays(stats, cbatch)
        out_rows = list(dict.fromkeys(map(eml, _to_rows(cbatch[1], nrows))))
        n = len(out_rows)
        stats.record_bulk(0, 0, 1, 0, n, n, n, arity, 0, trace)
        return n, out_rows

    return _Unit(fn=run_project, children=children, key=key, header=header)


def _vproject_np(positions, carity, arity):
    trace = (arity,)

    def run_np(stats: ExecutionStats, cbatch: Batch) -> Batch:
        nrows = cbatch[0]
        cols = _to_cols(cbatch, carity)
        out = _npdistinct_cols(tuple(cols[p] for p in positions), nrows)
        n = out[0]
        stats.record_bulk(0, 0, 1, 0, n, n, n, arity, 0, trace)
        return out

    return run_np


def _fold_scan(base: Relation) -> tuple:
    """:attr:`_Unit.bound` record of a zero-copy scan of ``base``: the
    batch is the base store's columns (no selection, and the scan's
    columns are the base's in order) — its int64
    arrays from the array threshold up, its row form below it, both
    memoized on the store, so every zero-copy scan of one relation
    shares one payload."""
    store = base.columnar()
    n = store.cardinality
    if _np is not None and n >= _ARRAY_MIN:
        payload: Any = store.arrays()
    else:
        payload = store.rows()
    return (n, payload), (n, 0, n)


def _fold_selection(constants, equalities, out_positions, base: Relation) -> tuple:
    """:attr:`_Unit.bound` record of a filtered scan of ``base``.
    Selections depend only on the (immutable) base relation, so the
    whole filtered batch is folded once per version of it — whole-column
    masks from the array threshold up, an index selection over the code
    lists below it."""
    store = base.columnar()
    # A never-interned constant cannot occur in any column.
    codes = [(p, lookup_code(value)) for p, value in constants]
    if any(code is None for _, code in codes):
        matched, rows = 0, []
    elif _np is not None and store.cardinality >= _ARRAY_MIN:
        cols = store.arrays()
        mask = None
        for position, code in codes:
            m = cols[position] == code
            mask = m if mask is None else mask & m
        for left, right in equalities:
            m = cols[left] == cols[right]
            mask = m if mask is None else mask & m
        matched = int(mask.sum())
        rows = tuple(cols[p][mask] for p in out_positions)
        if matched < _ARRAY_MIN:
            rows = _to_rows(rows, matched)
    else:
        cols = store.codes
        sel: Any = range(store.cardinality)
        for position, code in codes:
            col = cols[position]
            sel = [i for i in sel if col[i] == code]
        for left, right in equalities:
            ci, cj = cols[left], cols[right]
            sel = [i for i in sel if ci[i] == cj[i]]
        matched = len(sel)
        rows = [tuple(cols[p][i] for p in out_positions) for i in sel]
    # Kept positions functionally determine the dropped ones, so the
    # filtered batch is distinct — except at arity 0, where the output
    # collapses to a single empty tuple.
    if not out_positions:
        matched = 1 if matched else 0
        rows = [()] * matched
    return (matched, rows), (matched, matched, matched)


class _scan_cell(_cell):
    """The :attr:`_Unit.bound` cell of a scan unit, whose
    ``run`` is the unit's ``fn``.  ``trace`` — the arities of the scan
    and, for a folded projection, of the projection over it — is the
    static part of its stats; the batch and the data-dependent part come
    from the record, so one bulk update replays the unit's one or two
    events whatever the catalog holds."""

    __slots__ = ("projections", "max_arity", "trace")

    def __init__(self, build, source, trace: tuple[int, ...]) -> None:
        super().__init__(build, source)
        self.projections = len(trace) - 1
        self.max_arity = max(trace)
        self.trace = trace

    def run(self, stats: ExecutionStats) -> Batch:
        batch, (total, built, max_card) = self()
        stats.record_bulk(
            0, 0, self.projections, 1, total, built, max_card,
            self.max_arity, 0, self.trace,
        )
        return batch


def _fold_projection(positions: tuple[int, ...], s_arity: int, scanned: tuple) -> tuple:
    """:attr:`_Unit.bound` record of a projection of a scan, from the
    scan's.  The scan's own stats carry over (an identity scan passed
    the base store through unbuilt, a filtered one materialized its
    batch); an identity projection adds an unbuilt output."""
    sbatch, (s_n, s_built, _) = scanned  # a scan's total is its size
    if positions == tuple(range(s_arity)):
        return sbatch, (2 * s_n, s_built, s_n)
    if _np is not None and s_n >= _ARRAY_MIN:
        cols = _to_cols(sbatch, s_arity)
        batch = _npdistinct_cols(tuple(cols[p] for p in positions), s_n)
    else:
        eml = _tuple_extractor(positions)
        rows = list(dict.fromkeys(map(eml, _batch_rows(sbatch))))
        batch = (len(rows), rows)
    card = batch[0]
    return batch, (s_n + card, s_built + card, max(s_n, card))


def _vcompile_project_scan(
    node: Project, key: tuple, scan_unit: _Unit
) -> _Unit:
    """Fold a projection of a scan into one scan unit, given the (never
    stored) unit of the scan under it.

    A projected scan is a function of one immutable base relation — the
    same class of per-relation precomputation as the selection folding
    in ``_compile_scan`` — so its batch is computed once per version of
    that relation.  The unit records the scan's and projection's
    stats itself (keeping the interpreter's post-order trace), and
    passes the base relation's position map through so parents still
    probe the base key index zero-copy.
    """
    child_cols = node.child.columns
    header = node.columns
    positions = tuple(child_cols.index(name) for name in header)
    bound = _scan_cell(
        partial(_fold_projection, positions, len(child_cols)),
        scan_unit.bound,
        (len(child_cols), len(header)),
    )
    unit = _Unit(fn=bound.run, children=(), key=key, header=header, bound=bound)
    if scan_unit.source is not None:
        # Projection of a zero-copy scan: the set of key values on the
        # kept columns is unchanged by projection, so downstream
        # semijoin probes can still hit the base relation's memoized
        # key index.
        unit.source = scan_unit.source
        unit.source_positions = {
            name: scan_unit.source_positions[name] for name in header
        }
    return unit


# ----------------------------------------------------------------------
# Chain pipeline fusion
# ----------------------------------------------------------------------
#: Longest fused chain; deeper chains break into several pipeline units,
#: keeping generated nesting (and code size) bounded on the thousands-of-
#: atoms plans of the Figure 6 scaling regime.
_PIPE_MAX = 8

#: Bound of the process-wide code-object cache behind
#: :func:`_pipeline_code` (distinct kernel signatures kept).
_PIPE_CODE_CACHE_SIZE = 256

#: Per-unit globals of a pipeline kernel naming stage ``i``'s right-side
#: ``bound`` record and probe cell.
_STAGE_NAMES = tuple((f"_r{i}", f"_p{i}") for i in range(1, _PIPE_MAX + 1))


def _is_scan_unit(node: Plan) -> bool:
    """Whether the lowering makes ``node`` a scan unit: a
    scan, or a projection folded onto one."""
    return isinstance(node, Scan) or (
        isinstance(node, Project) and isinstance(node.child, Scan)
    )


def _chain(node: Plan) -> list[Join | Semijoin] | None:
    """The joins and semijoins one pipeline unit rooted at ``node`` fuses,
    top first: a run down the left spine (under ``node``'s projection,
    if it is one) of operators whose right side is a scan unit probed on
    shared columns, at most ``_PIPE_MAX`` long; ``None`` when fewer than
    two fuse.  It reads the plan alone, so fusion is decided before any
    unit is built."""
    top = node.child if isinstance(node, Project) else node
    chain: list[Join | Semijoin] = []
    while (
        len(chain) < _PIPE_MAX
        and isinstance(top, (Join, Semijoin))
        and _is_scan_unit(top.right)
        and _join_layout(top.left.columns, top.right.columns)[0]
    ):
        chain.append(top)
        top = top.left
    return chain if len(chain) > 1 else None


@dataclass(eq=False)
class _PipeStage:
    """One fused Join/Semijoin over a scan-unit right side."""

    kind: str  # 'join' | 'filterjoin' | 'semi'
    right: _Unit  # the right-side scan unit
    left_key: tuple[int, ...]  # positions into the chain columns here
    right_key: tuple[int, ...]
    right_extra: tuple[int, ...]
    arity: int  # stage output arity


def _pipe_stage(node: Join | Semijoin, runit: _Unit) -> _PipeStage:
    """Stage descriptor for ``node``, a link of a :func:`_chain`."""
    _, left_key, right_key, right_extra = _join_layout(
        node.left.columns, node.right.columns
    )
    if isinstance(node, Semijoin):
        kind, right_extra = "semi", ()
    else:
        kind = "join" if right_extra else "filterjoin"
    return _PipeStage(kind, runit, left_key, right_key, right_extra, len(node.columns))


def _pipe_finish(stages: list[_PipeStage], project_arity: int | None):
    """Per-execution stats closure of a fused chain.

    Replays the interpreter's post-order event sequence — each absorbed
    right subtree's own events, then its operator's — from the
    per-stage match counts, so every logical counter and the arity trace
    stay byte-identical to the other engines.  Interior stages record
    ``built=False``: the chain never materializes them.  The final stage
    keeps the standalone kernels' flags (materialized, except a semijoin
    that filtered nothing) unless a projection tops the chain, in which
    case the chain output is a fused-away wide result.

    The absorbed right sides are scan units: the shape of their stats
    (event counts, arities) is static and folded in here, the sizes come
    with each execution's ``rights`` — the stages' :attr:`_Unit.bound`
    records — and ``finish`` folds both plus the dynamic counts into a
    single :meth:`ExecutionStats.record_bulk` call instead of re-issuing
    each event.
    """
    trace: list[int] = []
    for st in stages:
        trace.extend(st.right.bound.trace)  # the right scan unit's events
        trace.append(st.arity)
    if project_arity is not None:
        trace.append(project_arity)
    is_join = tuple(st.kind != "semi" for st in stages)
    n_stages = len(stages)
    last = n_stages - 1
    bare = project_arity is None
    d_joins = sum(is_join)
    d_semis = n_stages - d_joins
    d_projs = len(trace) - 2 * n_stages  # folded into right sides, or on top
    d_max_arity = max(trace)
    d_trace = tuple(trace)

    def finish(stats: ExecutionStats, ln: int, counts, out_card: int, rights) -> None:
        total = built = max_card = peak = 0
        prev = ln
        for i in range(n_stages):
            (n_right, _), (r_total, r_built, r_max_card) = rights[i]
            c = counts[i]
            total += r_total + c
            built += r_built
            if r_max_card > max_card:
                max_card = r_max_card
            if c > max_card:
                max_card = c
            if is_join[i]:
                live = prev + n_right + c
                if live > peak:
                    peak = live
            prev = c
        if bare:
            c = counts[last]
            if is_join[last] or c != (ln if last == 0 else counts[last - 1]):
                built += c
        else:
            total += out_card
            built += out_card
            if out_card > max_card:
                max_card = out_card
        stats.record_bulk(
            d_joins, d_semis, d_projs, n_stages,
            total, built, max_card, d_max_arity, peak, d_trace,
        )

    return finish


@lru_cache(maxsize=1024)
def _stage_probe(join: bool, right_key: tuple[int, ...], right_extra: tuple[int, ...]):
    """Row-path probe structure of a stage as a function of its right
    side's bound record: the ``get`` of a key -> extras index for a join,
    the key set for a filter.  Positional, so shared by every stage of
    the same shape."""
    rkey = _key_extractor(right_key)
    if join:
        rext = _tuple_extractor(right_extra)
        return lambda bound: _bucket(_batch_rows(bound[0]), rkey, rext).get
    return lambda bound: set(map(rkey, _batch_rows(bound[0])))


def _stage_arrays(st: _PipeStage, extras: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """Array-path build side of one stage, same input: ``((order,
    sorted_keys), extra_columns)`` for a join — the right columns at
    ``extras`` — the sorted keys for a filter."""
    rarity = len(st.right.header)
    if st.kind == "join":

        def build(bound: tuple) -> tuple:
            rcols = _to_cols(bound[0], rarity)  # converted once, for both
            return (
                _npjoin_index((bound[0][0], rcols), st.right_key, rarity),
                tuple(rcols[p] for p in extras),
            )

        return build
    return lambda bound: _npsorted_keys(bound[0], st.right_key, rarity)


def _pipe_live(
    stages: list[_PipeStage], project: tuple[int, ...] | None
) -> list[tuple[int, ...]]:
    """The chain positions each stage's output must carry, ascending: the
    ones a later stage's ``left_key`` or the chain's output reads — the
    projection's positions, every column of a bare chain.  Early
    projection one level down: a column leaves the chain at the first
    stage after its last reader."""
    live = set(range(stages[-1].arity) if project is None else project)
    kept = []
    for st in reversed(stages):
        kept.append(tuple(sorted(p for p in live if p < st.arity)))
        live.update(st.left_key)
    return kept[::-1]


def _pipe_np(stages, arity0, finish, proj_positions):
    """The array path of a fused chain (:func:`_pipe_np_run` over the
    stages' build-side cells), made by the first call that takes it.
    Each stage's key, gather and extra positions are rewritten into the
    narrowed layout :func:`_pipe_live` leaves before it."""
    held = tuple(range(arity0))  # the chain positions the columns hold
    npstages = []
    for st, kept in zip(stages, _pipe_live(stages, proj_positions)):
        base = st.arity - len(st.right_extra)
        extras = tuple(st.right_extra[p - base] for p in kept if p >= base)
        npstages.append((
            st.kind == "join",
            tuple(map(held.index, st.left_key)),
            tuple(held.index(p) for p in kept if p < base),
            st.right.bound,
            _cell(_stage_arrays(st, extras)),
        ))
        held = kept
    out = None if proj_positions is None else tuple(map(held.index, proj_positions))
    return lambda stats, lbatch: _pipe_np_run(
        stats, lbatch, arity0, npstages, finish, out
    )


def _pipe_np_run(stats, lbatch, arity0, npstages, finish, proj_positions):
    """Array-path executor of a fused chain: per stage, one gather of the
    columns still live after it (:func:`_pipe_live`) — a filter that
    drops no row gathers nothing — with the match counts feeding the
    same ``finish`` bookkeeping as the generated row kernel."""
    ln = lbatch[0]
    cols = _to_cols(lbatch, arity0)
    counts = []
    rights = []
    n = ln
    for is_join, left_key, keep, right, arrays in npstages:
        bound = right()
        rights.append(bound)
        if n == 0 or bound[0][0] == 0:
            counts.append(0)
            n = 0
            continue
        if is_join:
            np_index, np_extras = arrays(bound)
            lidx, ridx = _npmatch_sorted(cols, left_key, *np_index)
            cols = tuple(cols[p][lidx] for p in keep) + tuple(
                e[ridx] for e in np_extras
            )
            n = len(lidx)
        else:
            mask = _npmask(cols, left_key, arrays(bound))
            matched = int(mask.sum())
            if matched == n:
                cols = tuple(cols[p] for p in keep)
            else:
                cols = tuple(cols[p][mask] for p in keep)
            n = matched
        counts.append(n)
    if proj_positions is not None:
        if n:
            card, payload = _npdistinct_cols(
                tuple(cols[p] for p in proj_positions), n
            )
        else:
            card, payload = 0, []
        finish(stats, ln, counts, card, rights)
        return card, payload
    finish(stats, ln, counts, n, rights)
    return n, (cols if n else [])


@lru_cache(maxsize=_PIPE_CODE_CACHE_SIZE)
def _pipeline_code(signature: tuple) -> CodeType:
    """Code object of the generated kernel for one positional signature
    ``(use_np, source_arity, stages, project)`` — ``stages`` holding each
    stage's ``(kind, left_key, number of extras)``, ``project`` the
    chain-column positions a projection top keeps (``None`` for a bare
    chain).  No names and no data enter it, so every chain of the same
    shape, in any plan, engine or catalog, shares one code object: the
    source is rendered and ``compile`` runs once per signature per
    process.

    The kernel iterates the dynamic source batch once; each stage is a
    dict/set probe, later stages read their key components straight out
    of the loop variables (source row ``r0``, stage extras ``e1``,
    ``e2``, ...), so no intermediate tuple is ever concatenated or
    appended.  Interior cardinalities — which the logical counters need
    exactly — are *counted* at each loop level: every iteration reaching
    stage *i* corresponds to one distinct row of intermediate *i-1* (the
    chain preserves the batch distinctness invariant), so ``c_i``
    accumulated as bucket lengths (joins) or survivors (filters) equals
    the intermediate's distinct cardinality.  Inputs at or above the
    array threshold divert to ``_npfall``, which runs the same chain
    with whole-column gathers.
    """
    use_np, arity0, stages, project = signature
    # Where each chain column is read (source row ``r0``, then each join
    # stage's extras), and each stage's probe-key expression.
    slots = [f"r0[{off}]" for off in range(arity0)]
    emit_segs = ["r0"]
    key_exprs: list[str] = []
    for i, (kind, left_key, n_extra) in enumerate(stages, 1):
        parts = [slots[p] for p in left_key]
        key_exprs.append(parts[0] if len(parts) == 1 else f"({', '.join(parts)})")
        if kind == "join":
            emit_segs.append(f"e{i}")
            slots.extend(f"e{i}[{off}]" for off in range(n_extra))

    n_stages = len(stages)
    lines = [
        "def run_pipe(stats, lbatch):",
        "    ln = lbatch[0]",
    ]
    if use_np:
        lines += [
            "    if ln >= _amin or _mode[0]:",
            "        return _npfall(stats, lbatch)",
        ]
    lines += [
        "    rows = lbatch[1]",
        "    if type(rows) is not list:",
        "        rows = _to_rows(rows, ln)",
    ]
    for i in range(1, n_stages + 1):
        lines.append(f"    q{i} = _r{i}()")
        lines.append(f"    p{i} = _p{i}(q{i})")
        lines.append(f"    c{i} = 0")
    if project is not None:
        lines.append("    cand = {}")
    else:
        lines.append("    out = []")
        lines.append("    _append = out.append")
    pad = "    "
    lines.append(pad + "for r0 in rows:")
    pad += "    "
    if use_np:
        # A small source can still blow up through the join stages; the
        # moment any intermediate crosses the array threshold, abandon
        # the partial row pass (stats are untouched until the end) and
        # redo the chain with whole-column kernels.  Filter stages only
        # shrink, so checking the join counters bounds every
        # intermediate; the wasted row work is at most one threshold's
        # worth per stage.
        guards = [
            f"c{i} >= _amin"
            for i, (kind, _, _) in enumerate(stages, 1)
            if kind == "join"
        ]
        if guards:
            lines.append(f"{pad}if {' or '.join(guards)}:")
            lines.append(f"{pad}    _mode[0] = 1")
            lines.append(f"{pad}    return _npfall(stats, lbatch)")
    for i, ((kind, _, _), kx) in enumerate(zip(stages, key_exprs), 1):
        if kind == "join":
            lines.append(f"{pad}b{i} = p{i}({kx})")
            lines.append(f"{pad}if b{i} is None:")
            lines.append(f"{pad}    continue")
            lines.append(f"{pad}c{i} += len(b{i})")
            lines.append(f"{pad}for e{i} in b{i}:")
            pad += "    "
        else:
            lines.append(f"{pad}if {kx} not in p{i}:")
            lines.append(f"{pad}    continue")
            lines.append(f"{pad}c{i} += 1")
    if project is not None:
        inner = ", ".join(slots[p] for p in project)
        emit = f"({inner},)" if len(project) == 1 else f"({inner})"
        lines.append(f"{pad}cand[{emit}] = None")
        lines.append("    out = list(cand)")
    else:
        lines.append(f"{pad}_append({' + '.join(emit_segs)})")

    def listed(prefix: str) -> str:
        return ", ".join(f"{prefix}{i}" for i in range(1, n_stages + 1)) + ","

    lines.append(
        f"    _finish(stats, ln, ({listed('c')}), len(out), ({listed('q')}))"
    )
    lines.append("    return len(out), out")
    module = compile("\n".join(lines), "<repro.relalg.pipeline>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _vcompile_pipeline(node: Plan, key: tuple, children: tuple[_Unit, ...]) -> _Unit:
    """Fuse the :func:`_chain` rooted at ``node`` (plus its projection,
    when ``node`` is one) into one generated nested-loop kernel over
    ``children``: the chain's source unit, then its stages' right-side
    scan units, bottom-up.

    What is paid where: the code object is per *signature*
    (:func:`_pipeline_code`); the globals dict a function over it reads
    — the stats closure, the sticky ``_mode`` cell, one empty probe cell
    per stage and the array path's maker — is per *unit*, built here and
    never again; what fills the cells — a stage's row probe, its
    array-path build side — is per *version* of that stage's relation,
    built by the first execution that takes the path over it.  A write
    to one stage's relation leaves the other stages' structures, and
    ``_mode``, alone.
    """
    links = _chain(node)[::-1]
    source, rights = children[0], children[1:]
    stages = list(map(_pipe_stage, links, rights))
    header = node.columns
    project = None
    if isinstance(node, Project):
        top = links[-1].columns
        project = tuple(top.index(name) for name in header)
    use_np = _np is not None
    signature = (
        use_np,
        len(source.header),
        tuple((st.kind, st.left_key, len(st.right_extra)) for st in stages),
        project,
    )
    finish = _pipe_finish(stages, None if project is None else len(header))
    ns: dict[str, Any] = {"_to_rows": _to_rows, "_finish": finish}
    for (r, p), st in zip(_STAGE_NAMES, stages):
        ns[r] = st.right.bound
        ns[p] = _cell(_stage_probe(st.kind == "join", st.right_key, st.right_extra))
    if use_np:
        ns["_npfall"] = _Later(
            _pipe_np, (stages, len(source.header), finish, project)
        )
        ns["_amin"] = _ARRAY_MIN
        # Sticky dispatch flag, set when a row pass trips the restart
        # guard: later executions, after writes too, go straight to the
        # array path instead of re-discovering the blow-up every time.
        ns["_mode"] = [0]
    return _Unit(
        fn=FunctionType(_pipeline_code(signature), ns),
        children=(source,),
        key=key,
        header=header,
        stages=rights,
    )


def _unit_children(node: Plan) -> tuple[Plan, ...]:
    """Child *plan* nodes of the fused unit rooted at ``node`` — the
    places where a materialized input is required.  A scan unit has
    none; a pipeline's are its chain's source and its stages' right
    sides, and the chain's interior nodes get no unit.  Which nodes get
    units at all is this choice, made before any is built."""
    if _is_scan_unit(node):
        return ()
    chain = _chain(node)
    if chain is not None:
        return (chain[-1].left,) + tuple(link.right for link in reversed(chain))
    if isinstance(node, Project):
        child = node.child
        if isinstance(child, (Join, Semijoin)):
            return (child.left, child.right)
        return (child,)
    if isinstance(node, (Join, Semijoin)):
        return (node.left, node.right)
    raise PlanError(f"unknown plan node {node!r}")


class VectorizedEngine:
    """Drop-in alternative to :class:`~repro.relalg.engine.Engine` that
    compiles each plan once into fused units over dictionary-encoded
    column batches and executes their kernels.  :func:`make_engine`
    serves it under both names, ``compiled`` and ``vectorized``.

    Parameters
    ----------
    database:
        Catalog of base relations.  Scans read their relation from it at
        run time, so a write invalidates only the cached *results* whose
        dependency footprint (:func:`repro.plans.dependencies`) includes
        the written relation; compiled units survive every write that
        keeps their relations' columns.
    plan_cache_size:
        Capacity of the common-subexpression result cache, with the same
        semantics as the interpreted engine's (LRU on
        ``(plan_key, dependency-version-vector)``, selective eviction on
        version change, logical stats replayed from per-entry snapshots
        on hits).  Pass ``0`` to disable result caching; compiled *code*
        is always reused until one of its base relations is dropped or
        changes columns.

    The join strategy is always hash-based (the paper's forced choice);
    there is no ``join_algorithm`` parameter.  Scans read the base
    relation's memoized :meth:`Relation.columnar` store — dictionary
    encoding happens once per base relation, and constant/equality
    selections are folded into a batch once per version of it, which
    join and semijoin parents exploit by keeping their probe structures
    for as long as that batch lives.  The logical :class:`ExecutionStats`
    counters are byte-identical to the interpreter's.

    Examples
    --------
    >>> from repro.relalg.database import edge_database
    >>> from repro.plans import Scan, Join, Project
    >>> db = edge_database()
    >>> plan = Project(Join(Scan("edge", ("a", "b")), Scan("edge", ("b", "c"))), ("a",))
    >>> VectorizedEngine(db).execute(plan).cardinality
    3
    """

    def __init__(
        self,
        database: Database,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
    ) -> None:
        if plan_cache_size < 0:
            raise ValueError(f"plan_cache_size must be >= 0, got {plan_cache_size}")
        self._database = database
        self._cache_size = plan_cache_size
        self._cache = DependencyCache(plan_cache_size)
        # Unbounded: compiled code is cheap to retain and is evicted
        # precisely when one of its base relations leaves the catalog or
        # changes columns (``_schemas``: what each was lowered against).
        self._units = DependencyCache(None)
        self._schemas: dict[str, tuple[str, ...]] = {}
        self._tracker = CatalogVersionTracker(database)
        self._pool_epoch = pool_epoch()
        #: Relation name -> the one cell every zero-copy scan unit of it
        #: shares (same batch, same events).
        self._zero_copy: dict[str, _scan_cell] = {}

    @property
    def database(self) -> Database:
        """The catalog this engine evaluates against."""
        return self._database

    @property
    def plan_cache_enabled(self) -> bool:
        """Whether the common-subexpression result cache is active."""
        return self._cache_size > 0

    def clear_plan_cache(self) -> None:
        """Drop every cached result (compiled code is kept)."""
        self._cache.clear()

    def clear_compiled(self) -> None:
        """Drop every compiled unit (and, since cached batches were
        produced by them, every cached result too)."""
        self._units.clear()
        self._cache.clear()

    def cache_info(self) -> CacheInfo:
        """Cumulative result-cache traffic and current retention:
        ``hits``, ``misses``, ``evictions``, ``entries``, ``capacity``
        (the configured bound — this is the field's name, per
        docs/API.md), and ``units``, the number of retained compiled
        units."""
        cache = self._cache
        return CacheInfo(
            hits=cache.hits,
            misses=cache.misses,
            evictions=cache.evictions,
            entries=len(cache),
            capacity=self._cache_size,
            units=len(self._units),
        )

    def clear_cache(self) -> None:
        """Drop every cached result and compiled unit; zero the traffic
        counters."""
        self._units.reset()
        self._cache.reset()

    def execute(self, plan: Plan, stats: ExecutionStats | None = None) -> Relation:
        """Compile (or reuse) and evaluate ``plan``.

        If ``stats`` is provided, work counters are accumulated into it.
        """
        stats = stats if stats is not None else ExecutionStats()
        self._sync_catalog()
        unit = self._compile(plan)
        if not self._cache_size:
            return _decode_batch(unit.header, self._run_uncached(unit, stats))
        batch = self._run_cached(unit, stats)
        # The root's entry keeps the decoded answer beside its batch
        # (parents still read the batch), so a warm repeat returns
        # without decoding again.
        key = (unit.key, self._tracker.vector(unit.deps))
        entry = self._cache.peek(key)  # the run just hit or put it
        if len(entry) > 2:
            return entry[2]
        result = _decode_batch(unit.header, batch)
        self._cache.replace_value(key, (batch, entry[1], result))
        return result

    def execute_with_stats(self, plan: Plan) -> tuple[Relation, ExecutionStats]:
        """Evaluate ``plan``; return both the result and fresh stats."""
        stats = ExecutionStats()
        result = self.execute(plan, stats=stats)
        return result, stats

    # ------------------------------------------------------------------
    # Catalog sync and execution drivers (iterative)
    # ------------------------------------------------------------------
    def _sync_catalog(self) -> None:
        """Bring both stores up to the catalog's current state.

        What is kept per what: a *unit* is per plan shape and base
        schema, so it goes only when a relation of its footprint has
        left the catalog or has other columns than the ones it was
        lowered against (and a shared zero-copy scan cell goes with the
        units of its relation); a cached *result* is per input version,
        so it goes whenever a relation of its footprint was written.
        What a surviving unit derived from the old rows sits in cells
        keyed on the object it was derived from and is rebuilt by the
        first execution that meets the new one.  Cached batches and
        cells are made of dictionary codes, which those objects do not
        show going stale, so both stores go wholesale when the interning
        pool epoch moved (:func:`repro.relalg.columnar.clear_interning`).
        """
        if self._pool_epoch != pool_epoch():
            self._units.clear()
            self._cache.clear()
            self._zero_copy.clear()
            self._pool_epoch = pool_epoch()
        changed = self._tracker.changed_relations()
        if not changed:
            return
        self._cache.evict_dependents(changed)
        database, schemas = self._database, self._schemas
        reshaped = [
            name
            for name in changed
            if name in schemas
            and (name not in database or database.get(name).columns != schemas[name])
        ]
        if reshaped:
            self._units.evict_dependents(reshaped)
            for name in reshaped:
                del schemas[name]
                self._zero_copy.pop(name, None)

    def _run_uncached(self, unit: _Unit, stats: ExecutionStats) -> Batch:
        # Flatten the unit tree into a post-order (fn, nargs) program
        # once per compiled unit, then drive it with a value stack: the
        # steady-state per-node cost is one indexed loop step.
        # Iterative on both passes, so arbitrarily deep plans stay safe.
        program = unit.program
        if program is None:
            program = []
            stack: list[tuple[_Unit, bool]] = [(unit, False)]
            while stack:
                u, expanded = stack.pop()
                if expanded or not u.children:
                    program.append((u.fn, len(u.children)))
                else:
                    stack.append((u, True))
                    for child in reversed(u.children):
                        stack.append((child, False))
            unit.program = program
        values: list = []
        append = values.append
        pop = values.pop
        for fn, nargs in program:
            if nargs == 2:
                right = pop()
                append(fn(stats, pop(), right))
            elif nargs:
                append(fn(stats, pop()))
            else:
                append(fn(stats))
        return values[0]

    def _run_cached(self, unit: _Unit, stats: ExecutionStats) -> Batch:
        # Same structure (and cache semantics) as Engine._eval_cached:
        # the lookup happens before a unit's children are scheduled, so a
        # hit skips the whole subtree; a miss evaluates into a fresh
        # subtree accumulator whose logical counters become the entry's
        # replay snapshot.
        root: list[Batch] = []
        stack: list[
            tuple[
                _Unit,
                list[Batch],
                ExecutionStats,
                tuple[tuple, ExecutionStats, list[Batch]] | None,
            ]
        ] = [(unit, root, stats, None)]
        cache = self._cache
        tracker = self._tracker
        while stack:
            u, dest, sink, pending = stack.pop()
            if pending is None:
                key = (u.key, tracker.vector(u.deps))
                entry = cache.get(key)
                if entry is not None:
                    # A root's entry carries its decoded answer third
                    # (execute).
                    batch, snapshot = entry[0], entry[1]
                    sink.cache_hits += 1
                    sink.merge(snapshot)
                    dest.append(batch)
                    continue
                sink.cache_misses += 1
                subtree = ExecutionStats()
                inputs: list[Batch] = []
                stack.append((u, dest, sink, (key, subtree, inputs)))
                for child in reversed(u.children):
                    stack.append((child, inputs, subtree, None))
            else:
                key, subtree, inputs = pending
                batch = u.fn(subtree, *inputs)
                sink.merge(subtree)
                subtree.rows_built = 0
                subtree.cache_hits = 0
                subtree.cache_misses = 0
                cache.put(key, (batch, subtree), u.deps)
                dest.append(batch)
        return root[0]

    # ------------------------------------------------------------------
    # Compilation (iterative, bottom-up over the fused unit tree)
    # ------------------------------------------------------------------
    def _compile(self, plan: Plan) -> _Unit:
        # Lowering is what asks for numpy: every row/array decision the
        # units and their kernels make reads the answer it leaves.
        _sync_numpy()
        # Unit lookups go through ``peek``: reusing compiled code is not
        # result-cache traffic, so it must not skew hit/miss counters.
        # Each node's ``plan_key`` is taken once, when the node is first
        # scheduled, and travels with it: to the second visit, to the
        # parent (which finds its child units by it) and into the
        # lowering function that stamps it on the unit.
        units = self._units
        peek = units.peek
        key = plan_key(plan)
        cached = peek(key)
        if cached is not None:
            return cached
        # One walk fills the footprint memo of every node; the per-node
        # reads below are then dict hits instead of a walk each.
        dependencies(plan)
        work: list[tuple[Plan, tuple, tuple[tuple, ...] | None]] = [
            (plan, key, None)
        ]
        pop = work.pop
        push = work.append
        while work:
            node, node_key, kid_keys = pop()
            if peek(node_key) is not None:
                continue
            if kid_keys is None:
                kids = _unit_children(node)
                kid_keys = tuple(map(plan_key, kids))
                if kids:
                    # Revisit once the children are built (a scan unit
                    # has none and is built on this first visit).
                    push((node, node_key, kid_keys))
                    for i in range(len(kids) - 1, -1, -1):
                        push((kids[i], kid_keys[i], None))
                    continue
            unit = self._build_unit(node, node_key, tuple(map(peek, kid_keys)))
            unit.deps = dependencies(node)
            units.put(node_key, unit, unit.deps)
        return peek(key)

    def _build_unit(
        self, node: Plan, key: tuple, children: tuple[_Unit, ...]
    ) -> _Unit:
        if isinstance(node, Scan):
            return self._compile_scan(node, key)
        if len(children) > 2:  # a source and two or more stages
            return _vcompile_pipeline(node, key, children)
        if isinstance(node, Join):
            return _vcompile_join(node, key, children)
        if isinstance(node, Semijoin):
            return _vcompile_semijoin(node, key, children)
        if isinstance(node, Project):
            child = node.child
            if isinstance(child, Join):
                return _vcompile_project_join(node, key, children)
            if isinstance(child, Semijoin):
                return _vcompile_project_semijoin(node, key, children)
            if isinstance(child, Scan):
                scan_unit = self._compile_scan(child, key)
                return _vcompile_project_scan(node, key, scan_unit)
            return _vcompile_project(node, key, children)
        raise PlanError(f"unknown plan node {node!r}")  # pragma: no cover

    def _compile_scan(self, scan: Scan, key: tuple) -> _Unit:
        # ``fetch()`` is the scanned relation as the catalog holds it at
        # the time of the call; the schema it has now is recorded, so
        # that _sync_catalog evicts the units lowered against it when it
        # changes.
        fetch = partial(self._database.get, scan.relation)
        columns = self._schemas[scan.relation] = fetch().columns
        first_position, equalities, out_positions = _scan_layout(scan, len(columns))
        header = scan.columns
        if scan.constants or equalities:
            fold = partial(_fold_selection, scan.constants, equalities, out_positions)
            bound = _scan_cell(fold, fetch, (len(header),))
            return _Unit(fn=bound.run, children=(), key=key, header=header, bound=bound)
        bound = self._zero_copy.get(scan.relation)
        if bound is None:
            bound = _scan_cell(_fold_scan, fetch, (len(header),))
            self._zero_copy[scan.relation] = bound
        return _Unit(
            fn=bound.run, children=(), key=key, header=header, bound=bound,
            source=bound.source, source_positions=first_position,
        )


# ----------------------------------------------------------------------
# Engine registry
# ----------------------------------------------------------------------
#: Execution backends selectable via ``--engine``: ``compiled`` is a
#: second name for the vectorized engine, kept for the CLI, the service
#: protocol and the benchmark.
ENGINES: dict[str, type] = {
    "interpreted": Engine,
    "compiled": VectorizedEngine,
    "vectorized": VectorizedEngine,
}


def make_engine(
    name: str,
    database: Database,
    join_algorithm=None,
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
):
    """Construct an execution backend by name (a key of :data:`ENGINES`).

    ``join_algorithm`` applies to the interpreted engine only; the
    compiled engine always uses the hash strategy, so passing any other
    algorithm with ``compiled`` or ``vectorized`` raises
    :class:`ValueError`.

    Examples
    --------
    >>> from repro.relalg.database import edge_database
    >>> from repro.plans import Scan, Join, Project
    >>> plan = Project(Join(Scan("edge", ("a", "b")), Scan("edge", ("b", "c"))), ("a",))
    >>> engine = make_engine("compiled", edge_database())
    >>> type(engine).__name__, engine.execute(plan).cardinality
    ('VectorizedEngine', 3)
    """
    from repro.relalg.joins import hash_join

    if name == "interpreted":
        return Engine(
            database,
            join_algorithm=join_algorithm if join_algorithm is not None else hash_join,
            plan_cache_size=plan_cache_size,
        )
    engine_cls = ENGINES.get(name)
    if engine_cls is None:
        raise ValueError(
            f"unknown engine {name!r}; expected one of {list(ENGINE_NAMES)}"
        )
    if join_algorithm is not None and join_algorithm is not hash_join:
        raise ValueError(
            f"the {name} engine always uses the hash-join strategy; "
            "--join-algorithm applies to the interpreted engine only"
        )
    return engine_cls(database, plan_cache_size=plan_cache_size)


def vectorized_evaluate(
    plan: Plan,
    database: Database,
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
) -> tuple[Relation, ExecutionStats]:
    """One-shot convenience mirroring :func:`repro.relalg.engine.evaluate`
    on the compiled engine."""
    engine = VectorizedEngine(database, plan_cache_size=plan_cache_size)
    return engine.execute_with_stats(plan)


__all__ = [
    "ENGINES",
    "ENGINE_NAMES",
    "VectorizedEngine",
    "make_engine",
    "vectorized_evaluate",
]
