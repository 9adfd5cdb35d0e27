"""Columnar physical layout: dictionary-encoded columns, int-array indexes.

This module is the physical substrate behind the vectorized execution
path (:class:`repro.relalg.compiled.VectorizedEngine`).  The logical
model is unchanged — a :class:`~repro.relalg.relation.Relation` is still
a header plus a set of rows — but its *physical* representation becomes
a :class:`ColumnStore`: one code list per column, where every value has
been interned into a process-wide dictionary (value -> small int).  The
design follows the succinct-structure idea of compact dictionary-encoded
representations driving cheap batch evaluation:

- **One global dictionary.**  Codes are drawn from a single process-wide
  pool, so codes from *different* relations are directly comparable:
  equal values have equal codes, distinct values distinct codes.  Joins,
  semijoins, and selections therefore operate on plain ints end to end —
  no per-row value hashing, no cross-relation translation tables.
- **Per-column domains.**  Each column's dictionary-encoded domain (the
  sorted array of distinct codes it contains) is computed once per
  relation and memoized — the succinct summary used for key-index
  construction and the compact-footprint accounting.
- **Key indexes as int arrays.**  A column store's hash index maps a key
  (the bare code for one column, a tuple of codes for several — the same
  two shapes as :func:`repro.relalg.relation._key_getter`) to a *span*
  of a flat ``array('q')`` of row ids, instead of a dict of tuple-lists.
  Indexes are memoized per position tuple, so a base relation probed
  repeatedly (across plan nodes, executions, and engines) pays for its
  index once.
- **Zero-copy column sharing.**  Selecting, permuting, or renaming
  columns shares the underlying code lists; no data moves.

Code lists are plain Python lists (the fastest random-access sequence
for the pure-Python batch kernels); :meth:`ColumnStore.nbytes` reports
what the store costs when packed into minimal-width ``array`` storage,
which is what the relation-size benchmark compares against the row
layout.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterable, Sequence

__all__ = [
    "ColumnStore",
    "clear_interning",
    "decode_column",
    "encode_value",
    "interning_info",
    "lookup_code",
    "numpy_module",
    "pool_epoch",
]

# ----------------------------------------------------------------------
# numpy, imported on first demand
# ----------------------------------------------------------------------
_UNASKED = object()
#: The numpy module, ``None`` when it cannot be imported, or ``_UNASKED``.
_numpy: Any = _UNASKED


def numpy_module() -> Any:
    """numpy, or ``None`` when it cannot be imported (the vectorized
    kernels then fall back to lists).  The import is tried by the first
    call and its outcome kept, so a process that never lowers a
    vectorized plan never loads numpy."""
    global _numpy
    if _numpy is _UNASKED:
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy = numpy
    return _numpy


# ----------------------------------------------------------------------
# Global value dictionary (append-only, process-wide)
# ----------------------------------------------------------------------
# The pool grows monotonically within an *epoch*; `clear_interning()`
# starts a new epoch, which invalidates every code handed out so far.
# ColumnStores stamp the epoch they were built under, so consumers
# (Relation.columnar(), the compiled engines) can detect and rebuild
# stale stores instead of comparing codes across incompatible pools.
_CODES: dict[Any, int] = {}
_VALUES: list[Any] = []
_POOL_EPOCH = 0


def encode_value(value: Any) -> int:
    """Intern ``value`` into the global dictionary and return its code."""
    code = _CODES.get(value)
    if code is None:
        code = len(_VALUES)
        _CODES[value] = code
        _VALUES.append(value)
    return code


def lookup_code(value: Any) -> int | None:
    """Code for ``value`` if it has ever been interned, else ``None``.

    Used by compiled constant selections: a constant that was never
    interned cannot occur in any column built so far, so the selection
    is statically empty — and looking it up must not grow the pool.
    """
    return _CODES.get(value)


def decode_column(codes: Iterable[int]) -> list[Any]:
    """Codes back to values (list-aligned with the input)."""
    return list(map(_VALUES.__getitem__, codes))


def _interned_pool_size() -> int:
    """Current dictionary size: every code of the current epoch is below
    it (the array kernels' key packing reads it)."""
    return len(_VALUES)


def pool_epoch() -> int:
    """Current interning epoch (bumped by :func:`clear_interning`).

    Codes are only comparable within one epoch; any structure that bakes
    codes (a :class:`ColumnStore`, a compiled vectorized unit) must be
    discarded when the epoch it was built under is no longer current.
    """
    return _POOL_EPOCH


def clear_interning() -> None:
    """Release the process-wide interning tables and start a new epoch.

    The dictionary is append-only by design — steady-state workloads
    reuse a stable value universe, so unbounded growth is not a leak —
    but long-lived processes that churn through many disjoint value
    domains (e.g. a driver streaming unrelated datasets) can use this
    hook to return the memory.  Every code handed out before the call
    becomes invalid: stores stamped with an older :func:`pool_epoch`
    are rebuilt on next use (:meth:`repro.relalg.relation.Relation.columnar`),
    and the compiled engines drop all vectorized units wholesale on
    their next execution.
    """
    global _POOL_EPOCH
    _CODES.clear()
    _VALUES.clear()
    _POOL_EPOCH += 1


def interning_info() -> dict[str, int]:
    """Footprint snapshot of the interning pool: distinct values
    currently interned and the current epoch."""
    return {"values": len(_VALUES), "epoch": _POOL_EPOCH}


# ----------------------------------------------------------------------
# Column stores
# ----------------------------------------------------------------------
def _min_typecode(max_code: int) -> str:
    """Smallest unsigned array typecode that holds ``max_code``."""
    if max_code < 1 << 8:
        return "B"
    if max_code < 1 << 16:
        return "H"
    if max_code < 1 << 32:
        return "L"
    return "Q"


class ColumnStore:
    """Dictionary-encoded columnar payload of one relation.

    ``codes`` holds one list of global codes per column; all lists have
    the same length (the cardinality) and row positions are aligned
    across columns.  Stores are immutable once built: derived stores
    (:meth:`share`) alias the same code lists rather than copying them.

    Every store is stamped with the interning :func:`pool_epoch` it was
    built under; codes from stores with different epochs are not
    comparable, and consumers rebuild stale-epoch stores on use.
    """

    __slots__ = (
        "codes",
        "cardinality",
        "pool_epoch",
        "_key_indexes",
        "_domains",
        "_arrays",
        "_rows",
    )

    def __init__(
        self,
        codes: tuple[list[int], ...],
        cardinality: int,
        epoch: int | None = None,
    ) -> None:
        self.codes = codes
        self.cardinality = cardinality
        self.pool_epoch = _POOL_EPOCH if epoch is None else epoch
        #: positions-tuple -> (spans dict, row-id array); see key_index().
        self._key_indexes: dict[tuple[int, ...], tuple[dict, array]] = {}
        self._domains: dict[int, array] = {}
        self._arrays: tuple | None = None
        self._rows: list[tuple] | None = None

    @classmethod
    def from_rows(cls, rows: Iterable[tuple], arity: int) -> "ColumnStore":
        """Encode row tuples into columns, a column at a time: one
        dictionary lookup per value, interning only the columns that
        hold a value the pool has not seen."""
        columns = list(zip(*rows)) if arity else []
        if not columns:
            n = 0 if arity else sum(1 for _ in rows)
            return cls(tuple([] for _ in range(arity)), n)
        code_of = _CODES.__getitem__
        encoded = []
        for column in columns:
            try:
                encoded.append(list(map(code_of, column)))
            except KeyError:
                encoded.append(list(map(encode_value, column)))
        return cls(tuple(encoded), len(columns[0]))

    def share(self, positions: Sequence[int]) -> "ColumnStore":
        """Zero-copy derived store: the selected columns, by reference.

        Key indexes and domains are position-keyed, so the derived store
        starts with fresh (empty) caches; the code lists themselves are
        shared, which is what makes ``project``/``reorder`` on an
        already-columnar relation free.
        """
        return ColumnStore(
            tuple(self.codes[p] for p in positions),
            self.cardinality,
            epoch=self.pool_epoch,
        )

    def domain(self, position: int) -> array:
        """Sorted distinct codes of one column (the encoded domain),
        computed once and memoized."""
        cached = self._domains.get(position)
        if cached is None:
            cached = array("q", sorted(set(self.codes[position])))
            self._domains[position] = cached
        return cached

    def key_index(self, positions: tuple[int, ...]) -> tuple[dict, array]:
        """Memoized hash index on ``positions``: ``(spans, row_ids)``.

        ``spans`` maps each key (bare code for a single position, tuple
        of codes otherwise) to a ``(start, end)`` slice of ``row_ids``,
        a flat ``array('q')`` listing the rows holding that key.
        Membership tests use ``key in spans``; probes take
        ``row_ids[start:end]``.
        """
        cached = self._key_indexes.get(positions)
        if cached is not None:
            return cached
        if len(positions) == 1:
            keys: Sequence[Any] = self.codes[positions[0]]
        else:
            keys = list(zip(*(self.codes[p] for p in positions)))
        buckets: dict[Any, list[int]] = {}
        setdefault = buckets.setdefault
        for i, k in enumerate(keys):
            setdefault(k, []).append(i)
        row_ids = array("q")
        spans: dict[Any, tuple[int, int]] = {}
        start = 0
        for k, ids in buckets.items():
            end = start + len(ids)
            spans[k] = (start, end)
            row_ids.extend(ids)
            start = end
        result = (spans, row_ids)
        self._key_indexes[positions] = result
        return result

    def arrays(self) -> tuple:
        """The code columns as ``int64`` numpy arrays, built once and
        memoized — the payload of the array-kernel execution path.
        Raises :class:`RuntimeError` when numpy is unavailable (callers
        gate on it and use the code lists directly instead)."""
        if self._arrays is None:
            np = numpy_module()
            if np is None:  # pragma: no cover - exercised only without numpy
                raise RuntimeError("numpy is not available")
            self._arrays = tuple(np.asarray(col, dtype=np.int64) for col in self.codes)
        return self._arrays

    def rows(self) -> list[tuple]:
        """The store as a list of code tuples, one per row, built once
        and memoized — the payload of the row-kernel execution path.
        Callers share the list and must not mutate it."""
        if self._rows is None:
            self._rows = (
                list(zip(*self.codes)) if self.codes else [()] * self.cardinality
            )
        return self._rows

    def nbytes(self) -> int:
        """Compact storage cost: every column packed into the smallest
        array typecode its codes fit, plus the per-column encoded
        domains.  This is what the relation-size benchmark reports as
        the columnar footprint."""
        total = 0
        for position, col in enumerate(self.codes):
            itemsize = array(_min_typecode(max(col, default=0))).itemsize
            total += len(col) * itemsize
            total += self.domain(position).buffer_info()[1] * 8
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnStore(columns={len(self.codes)}, "
            f"cardinality={self.cardinality})"
        )
