"""The columnar physical layout: dictionary encoding, indexes, sharing.

Pins the properties the vectorized engine's kernels rely on:

- global interning — equal values get equal codes across relations,
  lookups never grow the pool;
- :meth:`ColumnStore.key_index` — spans over a flat ``array('q')`` of
  row ids, with the same two key shapes as ``_key_getter``;
- memoization — one store per relation, one index per position tuple,
  one domain array per column;
- zero-copy sharing — ``project``/``rename``/``reorder`` alias the same
  code lists instead of re-encoding;
- header interning and the prefix projection fast path;
- the two-layout memory footprint report.
"""

import random
from array import array

import pytest

from repro.relalg.columnar import (
    ColumnStore,
    _interned_pool_size,
    _min_typecode,
    clear_interning,
    decode_column,
    encode_value,
    interning_info,
    lookup_code,
    pool_epoch,
)
from repro.relalg.relation import Relation, intern_header
from repro.workloads.coloring import coloring_instance
from repro.workloads.graphs import random_graph


class TestInterning:
    def test_equal_values_equal_codes_across_relations(self):
        r = Relation(("a",), [("v1",), ("v2",)])
        s = Relation(("b",), [("v2",), ("v3",)])
        rc = r.columnar().codes[0]
        sc = s.columnar().codes[0]
        assert set(rc) & set(sc)  # "v2" got the same code in both

    def test_decode_round_trip(self):
        values = [(1, "x"), (2.5, None), (1, "x")]
        codes = [encode_value(v) for v in values]
        assert decode_column(codes) == values

    def test_lookup_does_not_insert(self):
        assert lookup_code(("columnar-test", "never-interned")) is None
        code = encode_value(("columnar-test", "never-interned"))
        assert lookup_code(("columnar-test", "never-interned")) == code

    def test_min_typecode_widths(self):
        assert _min_typecode(0) == "B"
        assert _min_typecode(255) == "B"
        assert _min_typecode(256) == "H"
        assert _min_typecode(1 << 16) == "L"
        assert _min_typecode(1 << 32) == "Q"


class TestColumnStore:
    def test_from_rows_aligns_columns(self):
        rel = Relation(("a", "b"), [(1, "x"), (2, "y")])
        store = rel.columnar()
        assert store.cardinality == 2
        rows = set(zip(decode_column(store.codes[0]), decode_column(store.codes[1])))
        assert rows == {(1, "x"), (2, "y")}

    def test_from_rows_interns_only_unseen_columns(self):
        seen = [("from-rows", i) for i in range(4)]
        for value in seen:
            encode_value(value)
        before = _interned_pool_size()
        rows = [(seen[i], seen[3 - i]) for i in range(4)]
        store = ColumnStore.from_rows(iter(rows), 2)  # any iterable
        assert _interned_pool_size() == before  # lookups only
        assert store.cardinality == 4
        assert [decode_column(col) for col in store.codes] == [
            [row[0] for row in rows],
            [row[1] for row in rows],
        ]
        fresh = [(seen[0], ("from-rows", "new", i % 2)) for i in range(4)]
        store = ColumnStore.from_rows(fresh, 2)
        assert _interned_pool_size() == before + 2
        assert decode_column(store.codes[1]) == [row[1] for row in fresh]

    def test_from_rows_degenerate_shapes(self):
        assert ColumnStore.from_rows([(), ()], 0).cardinality == 2
        empty = ColumnStore.from_rows([], 3)
        assert empty.cardinality == 0 and empty.codes == ([], [], [])

    def test_store_is_memoized_on_relation(self):
        rel = Relation(("a",), [(1,)])
        assert rel.columnar() is rel.columnar()

    def test_key_index_single_position_uses_bare_codes(self):
        rel = Relation(("a", "b"), [(1, 10), (1, 11), (2, 12)])
        store = rel.columnar()
        spans, row_ids = store.key_index((0,))
        assert isinstance(row_ids, array) and row_ids.typecode == "q"
        code_one = lookup_code(1)
        start, end = spans[code_one]  # bare code, not a 1-tuple
        assert end - start == 2
        assert store.key_index((0,)) is not store.key_index((1,))
        assert store.key_index((0,))[0] is spans  # memoized

    def test_key_index_multi_position_uses_code_tuples(self):
        rel = Relation(("a", "b", "c"), [(1, 2, 30), (1, 2, 31), (1, 3, 32)])
        store = rel.columnar()
        spans, row_ids = store.key_index((0, 1))
        key = (lookup_code(1), lookup_code(2))
        start, end = spans[key]
        matched = {row_ids[i] for i in range(start, end)}
        assert len(matched) == 2

    def test_domains_are_sorted_and_memoized(self):
        rel = Relation(("a",), [(3,), (1,), (2,), (1,)])
        store = rel.columnar()
        domain = store.domain(0)
        assert list(domain) == sorted(set(store.codes[0]))
        assert store.domain(0) is domain

    def test_share_aliases_code_lists(self):
        rel = Relation(("a", "b", "c"), [(1, 2, 3)])
        store = rel.columnar()
        shared = store.share((2, 0))
        assert shared.codes[0] is store.codes[2]
        assert shared.codes[1] is store.codes[0]
        assert shared.cardinality == store.cardinality

    def test_nbytes_positive_and_width_sensitive(self):
        small = ColumnStore(([0, 1, 2],), 3)
        assert small.nbytes() > 0
        wide = ColumnStore(([0, 1, 1 << 20],), 3)
        assert wide.nbytes() > small.nbytes()


class TestZeroCopyThroughRelation:
    @pytest.fixture
    def rel(self):
        rel = Relation(("a", "b", "c"), [(1, 2, 3), (4, 5, 6)])
        rel.columnar()
        return rel

    def test_project_shares_columns_when_distinct(self, rel):
        projected = rel.project(("c", "a"))
        assert projected._colstore is not None
        assert projected._colstore.codes[0] is rel.columnar().codes[2]

    def test_project_with_collapse_does_not_share(self):
        rel = Relation(("a", "b"), [(1, 10), (1, 20)])
        rel.columnar()
        projected = rel.project(("a",))  # collapses to one row
        assert projected._colstore is None

    def test_rename_shares_whole_store(self, rel):
        renamed = rel.rename({"a": "x"})
        assert renamed._colstore is rel.columnar()

    def test_reorder_shares_columns(self, rel):
        reordered = rel.reorder(("b", "c", "a"))
        assert reordered._colstore is not None
        assert reordered._colstore.codes[0] is rel.columnar().codes[1]

    def test_project_without_store_builds_nothing(self):
        rel = Relation(("a", "b"), [(1, 2)])
        assert rel.project(("b",))._colstore is None


class TestHeaderInterning:
    def test_equal_headers_are_same_object(self):
        r = Relation(("alpha", "beta"), [(1, 2)])
        s = Relation(tuple("alpha beta".split()), [(3, 4)])
        assert r.columns is s.columns

    def test_intern_header_idempotent(self):
        header = intern_header(("gamma", "delta"))
        assert intern_header(("gamma", "delta")) is header

    def test_operator_outputs_reuse_interned_headers(self):
        r = Relation(("a", "b"), [(1, 2)])
        s = Relation(("b", "c"), [(2, 3)])
        first = r.natural_join(s)
        second = r.natural_join(s)
        assert first.columns is second.columns


class TestMemoryFootprint:
    def test_footprint_reports_both_layouts(self):
        rel = Relation(("a", "b"), [(i, i % 7) for i in range(100)])
        report = rel.memory_footprint()
        assert report["cardinality"] == 100
        assert report["arity"] == 2
        assert report["row_layout_bytes"] > 0
        assert report["columnar_bytes"] > 0
        assert report["value_bytes"] > 0

    def test_columnar_layout_is_smaller_on_wide_tables(self):
        # 1000 rows x 4 columns of small-domain ints: codes pack into
        # one byte each, while the row layout pays a tuple per row.
        rows = [(i % 5, i % 7, i % 11, i % 13) for i in range(1000)]
        rel = Relation(("a", "b", "c", "d"), set(rows))
        report = rel.memory_footprint()
        assert report["columnar_bytes"] < report["row_layout_bytes"]
        # The relation-size study's k-COLOR catalogs (k * (k - 1) edge
        # tuples) are small-domain too, from k = 3 up.
        graph = random_graph(10, 20, random.Random(42))
        for colors in (3, 4, 5, 6):
            database = coloring_instance(graph, colors=colors).database
            totals = {"columnar_bytes": 0, "row_layout_bytes": 0}
            for name in database.names():
                footprint = database.get(name).memory_footprint()
                for key in totals:
                    totals[key] += footprint[key]
            assert totals["columnar_bytes"] < totals["row_layout_bytes"], colors


class TestClearInterning:
    """The pool-release hook.  The interning tables are process-global
    and append-only within an epoch; ``clear_interning()`` must actually
    return the memory (footprint regression) and must not let codes from
    the dead epoch leak into comparisons (stale stores are rebuilt)."""

    def test_footprint_shrinks_and_epoch_advances(self):
        Relation(("a",), [((f"pool-reg-{i}",),) for i in range(64)]).columnar()
        before = interning_info()
        assert before["values"] == _interned_pool_size() >= 64
        epoch = pool_epoch()
        clear_interning()
        after = interning_info()
        assert after["values"] == 0
        assert after["epoch"] == pool_epoch() == epoch + 1

    def test_stale_store_is_rebuilt_on_use(self):
        rel = Relation(("a",), [("x",), ("y",)])
        stale = rel.columnar()
        clear_interning()
        fresh = rel.columnar()
        assert fresh is not stale
        assert fresh.pool_epoch == pool_epoch()
        assert rel.columnar() is fresh  # re-memoized under the new epoch
        assert set(decode_column(fresh.codes[0])) == {"x", "y"}

    def test_codes_comparable_only_within_an_epoch(self):
        r = Relation(("a",), [("shared-value",)])
        old = r.columnar()
        clear_interning()
        s = Relation(("b",), [("shared-value",), ("other",)])
        new = s.columnar()
        assert old.pool_epoch != new.pool_epoch
        # Rebuilding r under the current epoch restores comparability.
        assert set(r.columnar().codes[0]) <= set(new.codes[0])

    def test_share_propagates_epoch(self):
        rel = Relation(("a", "b"), [(1, 2)])
        store = rel.columnar()
        assert store.share((1,)).pool_epoch == store.pool_epoch
