"""Tokenizer behaviour, including error positions."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql.lexer import tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)]


def test_keywords_case_insensitive():
    tokens = tokenize("select Distinct FROM")
    assert [t.value for t in tokens[:-1]] == ["SELECT", "DISTINCT", "FROM"]
    assert all(t.kind == "KEYWORD" for t in tokens[:-1])


def test_identifiers_keep_case():
    tokens = tokenize("Edge e1")
    assert tokens[0].value == "Edge"
    assert tokens[0].kind == "IDENT"


def test_punctuation():
    assert values("( ) , . = ;")[:-1] == ["(", ")", ",", ".", "=", ";"]


def test_numbers():
    assert values("42 -7")[:-1] == [42, -7]


def test_string_literal():
    tokens = tokenize("'hello'")
    assert tokens[0].kind == "STRING"
    assert tokens[0].value == "hello"


def test_string_with_escaped_quote():
    assert tokenize("'it''s'")[0].value == "it's"


def test_unterminated_string():
    with pytest.raises(SqlSyntaxError, match="unterminated"):
        tokenize("'oops")


def test_comment_skipped():
    tokens = tokenize("SELECT -- a comment\n x.y")
    assert [t.kind for t in tokens[:-1]] == ["KEYWORD", "IDENT", "PUNCT", "IDENT"]


def test_comment_at_end_of_input():
    tokens = tokenize("x.y -- trailing")
    assert tokens[-1].kind == "EOF"


def test_unexpected_character_reports_position():
    with pytest.raises(SqlSyntaxError) as excinfo:
        tokenize("a.b @ c.d")
    assert excinfo.value.position == 4


def test_eof_token_always_present():
    assert tokenize("")[-1].kind == "EOF"


def test_underscore_identifiers():
    assert tokenize("cl_ppn")[0].value == "cl_ppn"


def test_qualified_ref_token_stream():
    assert kinds("e1.v2")[:-1] == ["IDENT", "PUNCT", "IDENT"]


@pytest.mark.parametrize(
    "text, position",
    [
        ("SELECT a.b FROM r a (b) WHERE a.b = \u00b2", 36),
        ("a.b = 1\u00b2", 7),
        ("a.b = \u0663", 6),
        ("a.b = -\u0663", 6),
        ("\u00bd", 0),
    ],
)
def test_non_ascii_digit_is_a_positioned_syntax_error(text, position):
    """Number literals are ASCII digits; any other digit or numeric
    character is an unexpected character, not a bare ``ValueError`` from
    ``int()``."""
    with pytest.raises(SqlSyntaxError, match="unexpected character") as excinfo:
        tokenize(text)
    assert excinfo.value.position == position


def test_non_ascii_digit_inside_a_word_is_part_of_the_identifier():
    assert [tuple(t) for t in tokenize("v\u00b2")] == [
        ("IDENT", "v\u00b2", 0),
        ("EOF", None, 2),
    ]


def test_non_ascii_letters_start_identifiers_and_spell_keywords():
    assert tokenize("\u00e9t\u00e9")[0] == ("IDENT", "\u00e9t\u00e9", 0)
    # str.upper() maps the long s to "S", and so did the old scanner.
    assert tokenize("\u017felect")[0] == ("KEYWORD", "SELECT", 0)


def test_unterminated_string_position_is_its_opening_quote():
    with pytest.raises(SqlSyntaxError, match="unterminated") as excinfo:
        tokenize("a.b = 'it''s")
    assert excinfo.value.position == 6
