"""Datalog front end: parsing, conventions, round-trips."""

import pytest

from repro.core.query import Atom, ConjunctiveQuery, Const
from repro.datalog import DatalogSyntaxError, parse_rule, render_datalog
from repro.errors import SqlSyntaxError


class TestParsing:
    def test_basic_rule(self):
        query = parse_rule("q(X, Z) :- edge(X, Y), edge(Y, Z).")
        assert query.free_variables == ("X", "Z")
        assert len(query.atoms) == 2
        assert query.atoms[0] == Atom("edge", ("X", "Y"))

    def test_boolean_head(self):
        query = parse_rule("q() :- edge(X, Y).")
        assert query.is_boolean

    def test_optional_period(self):
        assert parse_rule("q(X) :- r(X)") == parse_rule("q(X) :- r(X).")

    def test_underscore_variables(self):
        query = parse_rule("q(X) :- r(X, _tmp).")
        assert "_tmp" in query.variables

    def test_lowercase_is_symbol_constant(self):
        query = parse_rule("q(X) :- color(X, red).")
        assert query.atoms[0].terms[1] == Const("red")

    def test_number_constant(self):
        query = parse_rule("q(X) :- r(X, 42).")
        assert query.atoms[0].terms[1] == Const(42)

    def test_negative_number(self):
        query = parse_rule("q(X) :- r(X, -7).")
        assert query.atoms[0].terms[1] == Const(-7)

    def test_quoted_string_constant(self):
        query = parse_rule("q(X) :- r(X, 'New York').")
        assert query.atoms[0].terms[1] == Const("New York")

    def test_double_quoted(self):
        query = parse_rule('q(X) :- r(X, "hub").')
        assert query.atoms[0].terms[1] == Const("hub")

    def test_comment_skipped(self):
        query = parse_rule("q(X) :- % head\n r(X). % done")
        assert len(query.atoms) == 1

    def test_repeated_variable(self):
        query = parse_rule("q(X) :- r(X, X).")
        assert query.atoms[0].terms == ("X", "X")


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",                          # empty
            "q(X)",                      # no body
            "q(X) :- ",                  # dangling implies
            "q(X) :- r(X) extra",        # trailing garbage
            "q(X) :- r()",               # empty body atom
            "q(3) :- r(X).",             # constant in head
            "q(X) :- r(X,).",            # dangling comma
            "q(X) :- r('open.",          # unterminated string
            "q(Y) :- r(X).",             # head var not in body
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises((DatalogSyntaxError, Exception)):
            query = parse_rule(bad)
            # The last case raises at query construction, not parse time.
            assert query is not None

    def test_syntax_error_is_sql_syntax_error(self):
        with pytest.raises(SqlSyntaxError):
            parse_rule("q(X) :- @bad(X).")

    def test_position_reported(self):
        with pytest.raises(DatalogSyntaxError) as excinfo:
            parse_rule("q(X) :- r(X) ??")
        assert excinfo.value.position is not None

    @pytest.mark.parametrize(
        "text, position",
        [
            ("q(X) :- e(X, 1\u00b2).", 14),   # superscript two after a number
            ("q(X) :- e(X, \u00b2).", 13),    # ... and on its own
            ("q(X) :- e(X, \u0663).", 13),    # Arabic-Indic three
            ("q(X) :- e(X, -\u0663).", 13),   # the minus is what cannot start a token
        ],
    )
    def test_non_ascii_digit_is_a_positioned_syntax_error(self, text, position):
        """Number literals are ASCII digits; any other digit character is
        an unexpected character, not a bare ``ValueError`` from ``int()``."""
        with pytest.raises(DatalogSyntaxError, match="unexpected character") as excinfo:
            parse_rule(text)
        assert excinfo.value.position == position


class TestRender:
    def test_round_trip_simple(self):
        text = "q(X, Z) :- edge(X, Y), edge(Y, Z)."
        assert render_datalog(parse_rule(text)) == text

    def test_round_trip_constants(self):
        text = "q(X) :- r(X, 42), s(X, 'hub')."
        assert parse_rule(render_datalog(parse_rule(text))) == parse_rule(text)

    def test_lowercase_variables_get_prefixed(self):
        query = ConjunctiveQuery(
            atoms=(Atom("edge", ("v1", "v2")),), free_variables=("v1",)
        )
        text = render_datalog(query)
        assert "V_v1" in text
        reparsed = parse_rule(text)
        assert len(reparsed.atoms) == 1
        assert reparsed.free_variables == ("V_v1",)

    def test_boolean_render(self):
        query = ConjunctiveQuery(atoms=(Atom("edge", ("X", "Y")),))
        assert render_datalog(query) == "q() :- edge(X, Y)."

    def test_custom_head_name(self):
        query = parse_rule("q(X) :- r(X).")
        assert render_datalog(query, head_name="answer").startswith("answer(")


class TestIntegration:
    def test_parsed_rule_plans_and_runs(self):
        from repro.core.planner import plan_query
        from repro.relalg.database import edge_database
        from repro.relalg.engine import evaluate

        query = parse_rule("q(X) :- edge(X, Y), edge(Y, Z), edge(Z, X).")
        plan = plan_query(query, "bucket")
        result, _ = evaluate(plan, edge_database())
        assert result.cardinality == 3  # triangles exist in the color graph


class TestProgram:
    def test_facts_and_rule(self):
        from repro.datalog import parse_program

        program = """
        % facts
        edge(1, 2). edge(2, 3). edge(3, 1).
        q(X) :- edge(X, Y), edge(Y, Z), edge(Z, X).
        """
        query, database = parse_program(program)
        assert database["edge"].cardinality == 3
        assert query.free_variables == ("X",)

    def test_program_executes(self):
        from repro.core.planner import plan_query
        from repro.datalog import parse_program
        from repro.relalg.engine import evaluate

        query, database = parse_program(
            "edge(1, 2). edge(2, 1). q(X) :- edge(X, Y), edge(Y, X)."
        )
        result, _ = evaluate(plan_query(query, "bucket"), database)
        assert result.rows == {(1,), (2,)}

    def test_string_facts(self):
        from repro.datalog import parse_program

        query, database = parse_program(
            "flight('AUS', 'DFW'). q(X) :- flight(X, Y)."
        )
        assert ("AUS", "DFW") in database["flight"]

    def test_symbol_constants_in_facts(self):
        from repro.datalog import parse_program

        _, database = parse_program("color(node1, red). q(X) :- color(X, Y).")
        assert ("node1", "red") in database["color"]

    def test_variable_in_fact_rejected(self):
        from repro.datalog import DatalogSyntaxError, parse_program

        with pytest.raises(DatalogSyntaxError, match="ground"):
            parse_program("edge(X, 2). q(Y) :- edge(Y, Z).")

    def test_two_rules_rejected(self):
        from repro.datalog import DatalogSyntaxError, parse_program

        with pytest.raises(DatalogSyntaxError, match="exactly one"):
            parse_program("q(X) :- r(X). p(X) :- r(X). r(1).")

    def test_no_rule_rejected(self):
        from repro.datalog import DatalogSyntaxError, parse_program

        with pytest.raises(DatalogSyntaxError, match="no query rule"):
            parse_program("edge(1, 2).")

    def test_missing_relation_rejected(self):
        from repro.datalog import DatalogSyntaxError, parse_program

        with pytest.raises(DatalogSyntaxError, match="no facts"):
            parse_program("edge(1, 2). q(X) :- ghost(X, Y).")

    def test_inconsistent_arity_rejected(self):
        from repro.datalog import DatalogSyntaxError, parse_program

        with pytest.raises(DatalogSyntaxError, match="arities"):
            parse_program("edge(1, 2). edge(1). q(X) :- edge(X, Y).")

    def test_comment_only_lines(self):
        from repro.datalog import parse_program

        query, _ = parse_program(
            "% header comment\nedge(1, 2).\n% middle\nq(X) :- edge(X, Y).\n% end"
        )
        assert len(query.atoms) == 1
