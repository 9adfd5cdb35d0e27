"""The regex scanners against the character loops they replaced.

``repro.sql.lexer.tokenize`` and ``repro.datalog._tokenize`` must produce
the oracle's ``(kind, value, position)`` stream, or fail with the oracle's
error class, message and position, on any text.  The one exception is
deliberate: the oracles read digits with ``str.isdigit`` and so hand
non-ASCII digits to ``int()``, which takes some ("٣") and dies with a
bare ``ValueError`` on others ("²"); the scanners take ASCII digits only
and report the character as a positioned syntax error.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datalog import _tokenize
from repro.errors import SqlSyntaxError
from repro.sql.lexer import tokenize
from tests.scanner_oracles import datalog_tokenize, sql_tokenize

PIECES = [
    # identifiers and keywords in mixed case
    "e1", "v_2", "_x", "Edge", "T", "select", "SeLeCt", "DISTINCT", "from",
    "Where", "join", "ON", "and", "As", "true", "EXISTS",
    # digits, signs, quotes, comments, layout, punctuation
    "0", "7", "42", "-", "'", "''", '"', "--", "%", "\n", " ", "\t", "\r",
    "(", ")", ",", ".", "=", ";", ":-", ":", "@", "?",
    # non-ASCII letters (two of which upper() into ASCII), spaces, digits
    "é", "ß", "ſ", "ﬆ", "λ", " ", " ", "\x1c", "²", "٣", "½",
]
texts = st.lists(st.sampled_from(PIECES), max_size=12).map("".join)


def outcome(scanner, text):
    try:
        return [tuple(token) for token in scanner(text)]
    except SqlSyntaxError as error:
        return type(error), str(error), error.position


def is_foreign_digit(ch):
    return ch.isdigit() and not ch.isascii()


def check(scanner, oracle, text):
    found = outcome(scanner, text)  # never a bare ValueError
    if not any(map(is_foreign_digit, text)):
        assert found == outcome(oracle, text)
        return
    try:
        expected = outcome(oracle, text)
    except ValueError:
        expected = None
    if found != expected:
        # The digit fix: the scanner stops at a foreign digit (or at the
        # minus before one) the oracle would have read as a number.
        error_class, message, position = found
        assert issubclass(error_class, SqlSyntaxError)
        assert message.startswith("unexpected character")
        at = position + (text[position] == "-")
        assert is_foreign_digit(text[at])


@settings(max_examples=400)
@given(texts)
@example("'it''s")
@example("'a'''")
@example("x -- no newline")
@example("diﬆinct ſelect")
@example("1² -٣")
def test_sql_scanner_matches_the_character_loop(text):
    check(tokenize, sql_tokenize, text)


@settings(max_examples=400)
@given(texts)
@example("q(X) :- e(X, 'open")
@example('q(X) :- e(X, "a\'b").')
@example("q(X) :- e(X, 1²).")
@example("% only a comment")
def test_datalog_scanner_matches_the_character_loop(text):
    check(_tokenize, datalog_tokenize, text)
