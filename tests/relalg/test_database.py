"""Catalog behaviour: registration, lookup, convenience constructors."""

import pytest

from repro.errors import CatalogError, SchemaError
from repro.relalg.database import Database, database_from_tuples, edge_database
from repro.relalg.relation import Relation


def test_add_and_get():
    db = Database()
    rel = Relation(("a",), [(1,)])
    db.add("r", rel)
    assert db.get("r") is rel
    assert db["r"] is rel
    assert "r" in db


def test_double_add_rejected():
    db = Database()
    db.add("r", Relation(("a",)))
    with pytest.raises(CatalogError, match="already registered"):
        db.add("r", Relation(("a",)))


def test_replace_allows_overwrite():
    db = Database()
    db.add("r", Relation(("a",), [(1,)]))
    db.replace("r", Relation(("a",), [(2,)]))
    assert (2,) in db["r"]


def test_empty_name_rejected():
    db = Database()
    with pytest.raises(CatalogError):
        db.add("", Relation(("a",)))
    with pytest.raises(CatalogError):
        db.replace("", Relation(("a",)))


def test_unknown_lookup_lists_catalog():
    db = Database({"alpha": Relation(("a",))})
    with pytest.raises(CatalogError, match="alpha"):
        db.get("beta")


def test_constructor_mapping():
    db = Database({"r": Relation(("a",), [(1,)])})
    assert db["r"].cardinality == 1


def test_names_sorted_and_len():
    db = Database({"b": Relation(("x",)), "a": Relation(("y",))})
    assert db.names() == ["a", "b"]
    assert len(db) == 2


def test_total_tuples():
    db = Database(
        {"r": Relation(("a",), [(1,), (2,)]), "s": Relation(("b",), [(1,)])}
    )
    assert db.total_tuples() == 3


class TestEdgeDatabase:
    def test_three_colors_gives_six_tuples(self):
        db = edge_database()
        edge = db["edge"]
        assert edge.cardinality == 6
        assert edge.columns == ("u", "w")

    def test_no_monochromatic_pairs(self):
        for u, w in edge_database()["edge"].rows:
            assert u != w

    def test_k_colors(self):
        db = edge_database(colors=(1, 2, 3, 4))
        assert db["edge"].cardinality == 12

    def test_custom_relation_name(self):
        db = edge_database(relation_name="neq")
        assert "neq" in db


def test_database_from_tuples():
    db = database_from_tuples({"r": (("a", "b"), [(1, 2)])})
    assert db["r"].columns == ("a", "b")


class TestGeneration:
    def test_add_bumps_generation(self):
        db = Database()
        start = db.generation
        db.add("r", Relation(("a",), [(1,)]))
        assert db.generation == start + 1

    def test_replace_bumps_generation(self):
        db = database_from_tuples({"r": (("a",), [(1,)])})
        before = db.generation
        db.replace("r", Relation(("a",), [(2,)]))
        assert db.generation == before + 1

    def test_lookups_do_not_bump(self):
        db = database_from_tuples({"r": (("a",), [(1,)])})
        before = db.generation
        db.get("r")
        "r" in db
        db.names()
        assert db.generation == before

    def test_generation_is_max_version(self):
        db = Database()
        db.add("r", Relation(("a",), [(1,)]))
        db.add("s", Relation(("b",), [(2,)]))
        db.replace("r", Relation(("a",), [(3,)]))
        assert db.generation == max(db.versions().values())


class TestVersions:
    def test_unregistered_name_is_zero(self):
        assert Database().version("nope") == 0

    def test_mutations_bump_only_the_touched_relation(self):
        db = database_from_tuples(
            {"r": (("a",), [(1,)]), "s": (("b",), [(2,)])}
        )
        r_before, s_before = db.version("r"), db.version("s")
        db.replace("s", Relation(("b",), [(3,)]))
        assert db.version("r") == r_before
        assert db.version("s") > s_before

    def test_versions_never_reused(self):
        db = database_from_tuples(
            {"r": (("a",), [(1,)]), "s": (("b",), [(2,)])}
        )
        seen = {db.version("r"), db.version("s")}
        db.replace("r", Relation(("a",), [(9,)]))
        assert db.version("r") not in seen

    def test_versions_snapshot_is_a_copy(self):
        db = database_from_tuples({"r": (("a",), [(1,)])})
        snapshot = db.versions()
        db.replace("r", Relation(("a",), [(2,)]))
        assert snapshot["r"] != db.version("r")

    def test_version_vector_order_and_unknowns(self):
        db = database_from_tuples(
            {"r": (("a",), [(1,)]), "s": (("b",), [(2,)])}
        )
        vector = db.version_vector(("s", "nope", "r"))
        assert vector == (db.version("s"), 0, db.version("r"))


class TestDeltaAPIs:
    def test_insert_rows_returns_inserted_count(self):
        db = database_from_tuples({"r": (("a", "b"), [(1, 2)])})
        assert db.insert_rows("r", [(1, 2), (3, 4), (3, 4)]) == 1
        assert db["r"].rows == {(1, 2), (3, 4)}

    def test_noop_insert_is_version_neutral(self):
        db = database_from_tuples({"r": (("a", "b"), [(1, 2)])})
        before = db.version("r")
        assert db.insert_rows("r", [(1, 2)]) == 0
        assert db.version("r") == before

    def test_delete_rows_returns_removed_count(self):
        db = database_from_tuples({"r": (("a", "b"), [(1, 2), (3, 4)])})
        assert db.delete_rows("r", [(3, 4), (9, 9)]) == 1
        assert db["r"].rows == {(1, 2)}

    def test_noop_delete_is_version_neutral(self):
        db = database_from_tuples({"r": (("a", "b"), [(1, 2)])})
        before = db.version("r")
        assert db.delete_rows("r", [(9, 9)]) == 0
        assert db.version("r") == before

    def test_effective_delta_bumps_version(self):
        db = database_from_tuples({"r": (("a", "b"), [(1, 2)])})
        v0 = db.version("r")
        db.insert_rows("r", [(3, 4)])
        v1 = db.version("r")
        assert v1 > v0
        db.delete_rows("r", [(3, 4)])
        assert db.version("r") > v1

    def test_insert_arity_mismatch_rejected(self):
        db = database_from_tuples({"r": (("a", "b"), [(1, 2)])})
        with pytest.raises(SchemaError, match="arity"):
            db.insert_rows("r", [(1, 2, 3)])

    def test_delete_arity_mismatch_rejected(self):
        db = database_from_tuples({"r": (("a", "b"), [(1, 2)])})
        with pytest.raises(CatalogError, match="arity"):
            db.delete_rows("r", [(1,)])

    def test_delta_on_unknown_relation_rejected(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.insert_rows("nope", [(1,)])
        with pytest.raises(CatalogError):
            db.delete_rows("nope", [(1,)])

    def test_replace_always_bumps_even_when_equal(self):
        db = database_from_tuples({"r": (("a",), [(1,)])})
        before = db.version("r")
        db.replace("r", Relation(("a",), [(1,)]))
        assert db.version("r") > before


class TestPut:
    def test_put_creates_and_bumps(self):
        db = Database()
        assert db.put("r", Relation(("a",), [(1,)])) is True
        assert db.version("r") > 0

    def test_put_equal_relation_is_version_neutral(self):
        db = database_from_tuples({"r": (("a",), [(1,)])})
        before = db.version("r")
        assert db.put("r", Relation(("a",), [(1,)])) is False
        assert db.version("r") == before

    def test_put_different_rows_bumps(self):
        db = database_from_tuples({"r": (("a",), [(1,)])})
        before = db.version("r")
        assert db.put("r", Relation(("a",), [(2,)])) is True
        assert db.version("r") > before
        assert db["r"].rows == {(2,)}

    def test_put_different_columns_bumps(self):
        db = database_from_tuples({"r": (("a",), [(1,)])})
        assert db.put("r", Relation(("b",), [(1,)])) is True

    def test_put_empty_name_rejected(self):
        with pytest.raises(CatalogError):
            Database().put("", Relation(("a",)))


class TestDrop:
    def test_drop_removes_and_advances_the_clock(self):
        db = Database()
        db.add("r", Relation(("a",), [(1,)]))
        db.add("s", Relation(("b",), [(2,)]))
        clock = db.generation
        db.drop("r")
        assert "r" not in db and len(db) == 1
        assert db.generation > clock
        assert db.version("r") == 0
        assert "r" not in db.versions()

    def test_drop_unknown_name_rejected(self):
        db = Database()
        with pytest.raises(CatalogError, match="unknown relation"):
            db.drop("nope")

    def test_readd_never_reuses_a_version(self):
        db = Database()
        db.add("r", Relation(("a",), [(1,)]))
        seen = {db.version("r")}
        for _ in range(3):
            db.drop("r")
            db.add("r", Relation(("a",), [(1,)]))
            assert db.version("r") not in seen
            seen.add(db.version("r"))
