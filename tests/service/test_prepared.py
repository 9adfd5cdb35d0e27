"""Query shapes and prepared statements: canonicalization, the
param-relation rewrite, binding, and the LRU cache."""

import pytest

from repro.core.planner import plan_query
from repro.datalog import parse_rule
from repro.relalg.compiled import ENGINE_NAMES, make_engine
from repro.relalg.database import Database, edge_database
from repro.relalg.engine import evaluate
from repro.relalg.relation import Relation
from repro.service.prepared import (
    PARAM_RELATION_PREFIX,
    PreparedStatementCache,
    canonicalize_query,
)
from repro.service.server import DatabaseHost


def graph_db() -> Database:
    db = Database()
    rows = [(i, (i * 3 + 1) % 7) for i in range(7)] + [(1, 4), (2, 5)]
    db.add("graph", Relation(("u", "w"), rows))
    return db


class TestCanonicalization:
    def test_same_shape_across_constants(self):
        s1, v1 = canonicalize_query(parse_rule("q(X) :- graph(3, X)."))
        s2, v2 = canonicalize_query(parse_rule("q(X) :- graph(5, X)."))
        assert s1.key == s2.key
        assert (v1, v2) == ((3,), (5,))

    def test_same_shape_across_alpha_renaming(self):
        s1, _ = canonicalize_query(
            parse_rule("q(A) :- graph(A, B), graph(B, 2).")
        )
        s2, _ = canonicalize_query(
            parse_rule("q(X) :- graph(X, Y), graph(Y, 2).")
        )
        assert s1.key == s2.key

    def test_different_constant_positions_differ(self):
        s1, _ = canonicalize_query(parse_rule("q(X) :- graph(3, X)."))
        s2, _ = canonicalize_query(parse_rule("q(X) :- graph(X, 3)."))
        assert s1.key != s2.key

    def test_each_occurrence_is_its_own_hole(self):
        shape, values = canonicalize_query(
            parse_rule("q(X) :- graph(3, X), graph(X, 3).")
        )
        assert shape.hole_count == 2
        assert values == (3, 3)

    def test_free_variable_positions_matter(self):
        s1, _ = canonicalize_query(parse_rule("q(X, Y) :- graph(X, Y)."))
        s2, _ = canonicalize_query(parse_rule("q(Y, X) :- graph(X, Y)."))
        assert s1.key != s2.key

    def test_shape_text_shows_holes(self):
        shape, _ = canonicalize_query(parse_rule("q(X) :- graph(7, X)."))
        assert "$0" in shape.text
        assert "7" not in shape.text


class TestPreparedStatement:
    def test_param_atoms_follow_host_atoms(self):
        cache = PreparedStatementCache()
        statement, _, _, _ = cache.prepare(
            parse_rule("q(X) :- graph(2, X), graph(X, Y)."), "bucket"
        )
        relations = [atom.relation for atom in statement.query.atoms]
        assert relations[0] == "graph"
        assert relations[1].startswith(PARAM_RELATION_PREFIX)
        assert relations[2] == "graph"

    def test_bind_then_execute_matches_inline_constant(self):
        db = graph_db()
        cache = PreparedStatementCache()
        rule = "q(X) :- graph(2, X), graph(X, Y)."
        statement, values, _, _ = cache.prepare(parse_rule(rule), "bucket")
        statement.bind(db, values)
        import random

        expected, _ = evaluate(
            plan_query(parse_rule(rule), "bucket", rng=random.Random(0)),
            graph_db(),
        )
        engine = make_engine("compiled", db)
        assert engine.execute(statement.plan).rows == expected.rows

    def test_rebind_changes_answers(self):
        db = graph_db()
        cache = PreparedStatementCache()
        statement, _, _, _ = cache.prepare(
            parse_rule("q(X) :- graph(2, X)."), "bucket"
        )
        engine = make_engine("compiled", db)
        statement.bind(db, (2,))
        rows_for_2 = engine.execute(statement.plan).rows
        statement.bind(db, (1,))
        rows_for_1 = engine.execute(statement.plan).rows
        assert rows_for_2 != rows_for_1
        direct, _ = evaluate(
            plan_query(parse_rule("q(X) :- graph(1, X)."), "bucket"), graph_db()
        )
        assert rows_for_1 == direct.rows

    def test_bind_same_value_is_version_neutral(self):
        db = graph_db()
        cache = PreparedStatementCache()
        statement, _, _, _ = cache.prepare(
            parse_rule("q(X) :- graph(2, X)."), "bucket"
        )
        assert statement.bind(db, (2,)) == 1
        before = db.versions()
        assert statement.bind(db, (2,)) == 0  # same constant: no bump
        assert db.versions() == before

    def test_rebind_keeps_compiled_units_cached(self):
        """The tentpole claim: same shape + different constants reuses
        the compiled units — only param-dependent cache entries go."""
        db = graph_db()
        cache = PreparedStatementCache()
        statement, _, _, _ = cache.prepare(
            parse_rule("q(X) :- graph(2, X), graph(X, Y)."), "bucket"
        )
        engine = make_engine("compiled", db)
        statement.bind(db, (2,))
        engine.execute(statement.plan)
        units_after_first = engine.cache_info().units
        assert units_after_first > 0
        statement.bind(db, (5,))
        engine.execute(statement.plan)
        info = engine.cache_info()
        assert info.units == units_after_first  # no recompilation
        assert info.hits > 0

    def test_bind_arity_mismatch(self):
        db = graph_db()
        cache = PreparedStatementCache()
        statement, _, _, _ = cache.prepare(
            parse_rule("q(X) :- graph(2, X)."), "bucket"
        )
        with pytest.raises(ValueError, match="takes 1 parameter"):
            statement.bind(db, (1, 2))

    def test_unbind_clears_param_relations(self):
        db = graph_db()
        cache = PreparedStatementCache()
        statement, values, _, _ = cache.prepare(
            parse_rule("q(X) :- graph(2, X)."), "bucket"
        )
        statement.bind(db, values)
        name = statement.param_relations[0]
        assert db.get(name).cardinality == 1
        clock = db.generation
        statement.unbind(db)
        assert name not in db  # dropped, not left behind as an empty name
        assert db.generation > clock
        statement.unbind(db)  # nothing bound: a no-op, not an error

    def test_columns_positional(self):
        cache = PreparedStatementCache()
        statement, _, _, _ = cache.prepare(
            parse_rule("q(Y, X) :- graph(X, Y)."), "bucket"
        )
        assert len(statement.columns) == 2


class TestPreparedStatementCache:
    def test_hit_on_same_shape_different_constants(self):
        cache = PreparedStatementCache()
        first, _, hit1, _ = cache.prepare(parse_rule("q(X) :- graph(3, X)."), "bucket")
        second, _, hit2, _ = cache.prepare(parse_rule("q(X) :- graph(5, X)."), "bucket")
        assert (hit1, hit2) == (False, True)
        assert first is second
        assert cache.info()["hits"] == 1

    def test_method_is_part_of_the_key(self):
        cache = PreparedStatementCache()
        a, _, _, _ = cache.prepare(parse_rule("q(X) :- graph(3, X)."), "bucket")
        b, _, hit, _ = cache.prepare(parse_rule("q(X) :- graph(3, X)."), "early")
        assert not hit
        assert a is not b

    def test_lru_eviction(self):
        cache = PreparedStatementCache(capacity=2)
        s1, _, _, _ = cache.prepare(parse_rule("q(X) :- graph(1, X)."), "bucket")
        cache.prepare(parse_rule("q(X) :- graph(X, Y), graph(Y, 1)."), "bucket")
        *_, evicted = cache.prepare(parse_rule("q(X, Y) :- graph(X, Y)."), "bucket")
        assert evicted == (s1,)
        assert len(cache) == 2
        assert cache.info()["evictions"] == 1
        assert cache.by_id(s1.statement_id) is None

    def test_statement_ids_are_stable_handles(self):
        cache = PreparedStatementCache()
        statement, _, _, _ = cache.prepare(parse_rule("q(X) :- graph(3, X)."), "bucket")
        assert cache.by_id(statement.statement_id) is statement
        assert cache.by_id(999) is None

    def test_edge_database_shapes(self, edge_db):
        # Shapes with no constants work too (hole_count == 0).
        cache = PreparedStatementCache()
        statement, values, _, _ = cache.prepare(
            parse_rule("q(X) :- edge(X, Y), edge(Y, X)."), "bucket"
        )
        assert values == ()
        assert statement.param_count == 0
        assert statement.bind(edge_db, ()) == 0


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
class TestStatementEviction:
    """The in-process host unbinds what its statement LRU evicts, so an
    evicted statement leaves neither parameter rows nor engine state."""

    CAPACITY = 4
    ROUNDS = 5

    @staticmethod
    def chain(length: int, constant: int) -> str:
        """``q(X) :- graph(c, V1), graph(V1, V2), ..., graph(V<n-1>, X).``
        — one distinct shape per length."""
        names = [str(constant)] + [f"V{i}" for i in range(1, length)] + ["X"]
        body = ", ".join(
            f"graph({left}, {right})" for left, right in zip(names, names[1:])
        )
        return f"q(X) :- {body}."

    def test_evicted_statements_leave_nothing_behind(self, engine_name):
        database = graph_db()
        host = DatabaseHost("g", database, prepared_cache_size=self.CAPACITY)
        lengths = range(1, 3 * self.CAPACITY + 1)
        units_per_round = []
        catalog_per_round = []
        for round_number in range(self.ROUNDS):
            # Cycling through more shapes than the LRU holds misses every
            # time: each round evicts, and re-prepares under fresh
            # statement ids, every shape of the round before.
            for length in lengths:
                rule = self.chain(length, constant=1 + round_number % 3)
                statement, values, hit = host.prepare(parse_rule(rule), "bucket")
                assert not hit
                result, _, _ = host.execute_statement(
                    statement, values, engine_name
                )
                expected, _ = evaluate(
                    plan_query(parse_rule(rule), "bucket"), graph_db()
                )
                assert result.rows == expected.rows
            units_per_round.append(host.engine(engine_name).cache_info().units)
            catalog_per_round.append(len(host.database))

        assert host.prepared.info()["evictions"] == (
            self.ROUNDS * len(lengths) - self.CAPACITY
        )
        live = 0
        for name in database.names():
            if not name.startswith(PARAM_RELATION_PREFIX):
                continue
            statement_id = int(name[len(PARAM_RELATION_PREFIX):].split("_")[0])
            # Eviction drops the relation; it does not leave an empty name.
            assert host.prepared.by_id(statement_id) is not None, name
            live += database.get(name).cardinality
        assert live == self.CAPACITY  # one bound row per live statement
        # Units survive writes to their relations, so it is the drop that
        # lets go of an evicted statement's: retained units and catalog
        # names both stop growing once the LRU is full — every later round
        # ends where the first did.
        assert len(set(units_per_round)) == 1, units_per_round
        assert len(set(catalog_per_round)) == 1, catalog_per_round
        assert catalog_per_round[-1] == 1 + self.CAPACITY  # graph + live params
