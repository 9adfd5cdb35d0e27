"""Parser: the paper's SQL shapes, and rejection of malformed input."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql.ast import (
    ColumnRef,
    JoinExpr,
    Literal,
    SubqueryRef,
    TableRef,
    render,
)
from repro.sql.parser import parse


class TestNaiveShape:
    SQL = (
        "SELECT DISTINCT e1.v1 "
        "FROM edge e1 (v1,v2), edge e2 (v2,v3) "
        "WHERE e2.v2 = e1.v2;"
    )

    def test_parses(self):
        query = parse(self.SQL)
        assert query.distinct
        assert query.select == (ColumnRef("e1", "v1"),)
        assert len(query.from_items) == 2
        assert all(isinstance(item, TableRef) for item in query.from_items)
        assert len(query.where.equalities) == 1

    def test_table_ref_columns(self):
        query = parse(self.SQL)
        first = query.from_items[0]
        assert first.relation == "edge"
        assert first.alias == "e1"
        assert first.columns == ("v1", "v2")


class TestJoinShape:
    SQL = (
        "SELECT DISTINCT e2.v3 "
        "FROM edge e2 (v2,v3) JOIN edge e1 (v1,v2) ON ( e2.v2 = e1.v2 );"
    )

    def test_parses_join(self):
        query = parse(self.SQL)
        (item,) = query.from_items
        assert isinstance(item, JoinExpr)
        assert isinstance(item.left, TableRef)
        assert isinstance(item.right, TableRef)
        assert len(item.condition.equalities) == 1

    def test_nested_parenthesized_join(self):
        sql = (
            "SELECT DISTINCT e3.v4 "
            "FROM edge e3 (v3,v4) JOIN ("
            "edge e2 (v2,v3) JOIN edge e1 (v1,v2) ON ( e2.v2 = e1.v2 )"
            ") ON ( e3.v3 = e2.v3 );"
        )
        query = parse(sql)
        (outer,) = query.from_items
        assert isinstance(outer, JoinExpr)
        assert isinstance(outer.right, JoinExpr)

    def test_on_true(self):
        sql = (
            "SELECT DISTINCT e1.v1 "
            "FROM edge e1 (v1,v2) JOIN edge e2 (v3,v4) ON (TRUE);"
        )
        query = parse(sql)
        (item,) = query.from_items
        assert item.condition.is_true

    def test_left_associative_chain(self):
        sql = (
            "SELECT DISTINCT e1.a FROM edge e1 (a,b) "
            "JOIN edge e2 (b,c) ON ( e2.b = e1.b ) "
            "JOIN edge e3 (c,d) ON ( e3.c = e2.c );"
        )
        query = parse(sql)
        (item,) = query.from_items
        assert isinstance(item, JoinExpr)
        assert isinstance(item.left, JoinExpr)  # ((e1 J e2) J e3)


class TestSubqueryShape:
    SQL = (
        "SELECT DISTINCT t1.v1 "
        "FROM ( SELECT DISTINCT e1.v1, e1.v2 FROM edge e1 (v1,v2) ) AS t1 "
        "JOIN edge e2 (v2,v3) ON ( e2.v2 = t1.v2 );"
    )

    def test_parses_subquery(self):
        query = parse(self.SQL)
        (item,) = query.from_items
        assert isinstance(item.left, SubqueryRef)
        assert item.left.alias == "t1"
        assert item.left.query.output_columns == ("v1", "v2")

    def test_deeply_nested(self):
        sql = (
            "SELECT DISTINCT t2.a FROM ("
            "  SELECT DISTINCT t1.a FROM ("
            "    SELECT DISTINCT e1.a FROM r e1 (a, b)"
            "  ) AS t1"
            ") AS t2;"
        )
        query = parse(sql)
        (item,) = query.from_items
        assert isinstance(item, SubqueryRef)
        inner = item.query.from_items[0]
        assert isinstance(inner, SubqueryRef)


class TestLiterals:
    def test_literal_in_where(self):
        query = parse("SELECT DISTINCT e1.a FROM r e1 (a, b) WHERE e1.b = 3;")
        eq = query.where.equalities[0]
        assert eq.right == Literal(3)

    def test_string_literal(self):
        query = parse("SELECT DISTINCT e1.a FROM r e1 (a,b) WHERE e1.b = 'x';")
        assert query.where.equalities[0].right == Literal("x")


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",                                              # empty
            "SELECT FROM r e1 (a)",                          # missing select list
            "SELECT e1.a",                                   # missing FROM
            "SELECT e1.a FROM r e1",                         # missing column list
            "SELECT e1.a FROM r e1 (a) WHERE",               # dangling WHERE
            "SELECT e1.a FROM r e1 (a) extra",               # trailing garbage
            "SELECT e1.a FROM r e1 (a,)",                    # dangling comma
            "SELECT e1 FROM r e1 (a)",                       # unqualified ref
            "SELECT e1.a FROM (SELECT e1.a FROM r e1 (a))",  # subquery no alias
            "SELECT e1.a FROM r e1 (a) JOIN r e2 (a)",       # join without ON
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(SqlSyntaxError):
            parse(bad)

    @pytest.mark.parametrize(
        "bad, message, position",
        [
            ("", "expected SELECT, got None", 0),
            ("SELECT FROM r e1 (a)", "expected identifier, got 'FROM'", 7),
            ("SELECT e1.a", "expected FROM, got None", 11),
            ("SELECT e1 FROM r e1 (a)", "expected '.', got 'FROM'", 10),
            ("SELECT e1.a FROM r e1", "expected '(', got None", 21),
            ("SELECT e1.a FROM r e1 (a,)", "expected identifier, got ')'", 25),
            ("SELECT e1.a FROM r e1 (a b)", "expected ')', got 'b'", 25),
            ("SELECT e1.a FROM r e1 (a) WHERE", "expected identifier, got None", 31),
            ("SELECT e1.a FROM r e1 (a) WHERE e1.a 3", "expected '=', got 3", 37),
            ("SELECT e1.a FROM r e1 (a) extra", "unexpected trailing input 'extra'", 26),
            ("SELECT e1.a FROM r e1 (a); SELECT", "unexpected trailing input 'SELECT'", 27),
            ("SELECT e1.a FROM (SELECT e1.a FROM r e1 (a))", "expected AS, got None", 44),
            (
                "SELECT e1.a FROM (SELECT e1.a FROM r e1 (a);) AS t",
                "subquery must not end with ';'",
                43,
            ),
            ("SELECT e1.a FROM r e1 (a) JOIN r e2 (a)", "expected ON, got None", 39),
            (
                "SELECT e1.a FROM r e1 (a) JOIN r e2 (b) ON e2.b = e1.a",
                "expected '(', got 'e2'",
                43,
            ),
            (
                "SELECT e1.a FROM (r e1 (a) JOIN r e2 (b) ON (TRUE)",
                "expected ')', got None",
                50,
            ),
            (
                "SELECT e1.a FROM r e1 (a) WHERE EXISTS SELECT",
                "expected '(', got 'SELECT'",
                39,
            ),
            (
                "SELECT e1.a FROM r e1 (a) WHERE EXISTS (SELECT e2.b FROM r e2 (b);)",
                "EXISTS subquery must not end with ';'",
                65,
            ),
            # A string spelling a keyword or a punctuation mark is a string.
            (
                "SELECT e1.a FROM r e1 (a) WHERE e1.a = 'SELECT' AND 'x'.a = 1",
                "expected '=', got '.'",
                55,
            ),
            # Not an ASCII digit: the scanner's error, not int()'s.
            ("SELECT e1.a FROM r e1 (a) WHERE e1.a = \u00b2", "unexpected character '\u00b2'", 39),
        ],
    )
    def test_message_and_position(self, bad, message, position):
        """Every way the grammar can fail, with the text and position the
        token-object parser reported before the index-walking one."""
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse(bad)
        assert (str(excinfo.value), excinfo.value.position) == (message, position)

    def test_without_distinct(self):
        query = parse("SELECT e1.a FROM r e1 (a)")
        assert not query.distinct

    def test_optional_semicolon(self):
        assert parse("SELECT e1.a FROM r e1 (a)") == parse(
            "SELECT e1.a FROM r e1 (a);"
        )


class TestRenderRoundTrip:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT DISTINCT e1.v1 FROM edge e1 (v1,v2), edge e2 (v2,v3) "
            "WHERE e2.v2 = e1.v2;",
            "SELECT DISTINCT e2.v3 FROM edge e2 (v2,v3) JOIN edge e1 (v1,v2) "
            "ON ( e2.v2 = e1.v2 );",
            "SELECT DISTINCT t1.v1 FROM ( SELECT DISTINCT e1.v1 FROM edge e1 "
            "(v1,v2) ) AS t1 JOIN edge e2 (v1,v3) ON ( e2.v1 = t1.v1 );",
            "SELECT DISTINCT e1.a FROM r e1 (a,b) JOIN s e2 (c,d) ON (TRUE);",
        ],
    )
    def test_parse_render_parse_fixpoint(self, sql):
        ast = parse(sql)
        rendered = render(ast)
        assert parse(rendered) == ast
