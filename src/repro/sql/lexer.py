"""Tokenizer for the SQL subset.

One compiled regular expression finds every token; :func:`scan` returns
them as a flat list of plain tuples, which the parser walks by index
with one-token lookahead, and :func:`tokenize` as :class:`Token`.
Keywords are case-insensitive, identifiers keep their case.  Comments
(``-- ...``) are skipped so generated SQL can be annotated in examples.
"""

from __future__ import annotations

import re
from typing import Any, NamedTuple

from repro.errors import SqlSyntaxError

KEYWORDS = frozenset(
    {
        "SELECT",
        "DISTINCT",
        "FROM",
        "WHERE",
        "JOIN",
        "ON",
        "AND",
        "AS",
        "TRUE",
        "EXISTS",
    }
)

PUNCTUATION = frozenset({"(", ")", ",", ".", "=", ";"})


class Token(NamedTuple):
    """One lexical token.

    ``kind`` is ``KEYWORD``, ``IDENT``, ``NUMBER``, ``STRING``, ``PUNCT``,
    or ``EOF``; ``value`` is the keyword (uppercased), identifier text,
    parsed literal value, or punctuation character.
    """

    kind: str
    value: Any
    position: int


#: One token per match: the whitespace and comments before it, then exactly
#: one numbered alternative.  ``\w`` is ``str.isalnum`` plus ``_`` and
#: ``\s`` is ``str.isspace``; number literals are ASCII digits only, so
#: any other digit character is an error, never an ``int()`` failure.
_TOKEN = re.compile(
    r"""\s*(?:--[^\n]*\s*)*
    (?: ([A-Za-z_]\w*)           # 1  keyword or identifier
      | ([(),.=;])               # 2  punctuation
      | (-?[0-9]+)               # 3  number
      | '((?:[^']|'')*)'(?!')    # 4  string body; '' is an escaped quote
      | (\Z)                     # 5  end of input
      | ([^\W\d]\w*)             # 6  word starting outside ASCII
      | (.)                      # 7  anything else
    )""",
    re.VERBOSE | re.DOTALL,
)

def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`~repro.errors.SqlSyntaxError` with
    the offending position on bad input."""
    return list(map(Token._make, scan(text)))


def scan(text: str) -> list[tuple[str, Any, int]]:
    """:func:`tokenize` as plain ``(kind, value, position)`` tuples — what
    the parser walks, since a bare tuple is the cheapest token to build."""
    tokens: list[tuple[str, Any, int]] = []
    append = tokens.append
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        if group == 2:
            append(("PUNCT", match[2], match.start(2)))
        elif group == 1 or (group == 6 and match[6][0].isalpha()):
            word = match[group]
            upper = word.upper()
            if upper in KEYWORDS:
                append(("KEYWORD", upper, match.start(group)))
            else:
                append(("IDENT", word, match.start(group)))
        elif group == 3:
            append(("NUMBER", int(match[3]), match.start(3)))
        elif group == 4:
            append(("STRING", match[4].replace("''", "'"), match.start(4) - 1))
        elif group == 5:
            break
        else:
            # Group 6 also lands here for a non-ASCII digit or numeric such
            # as "²": alphanumeric for ``\w``, but it cannot start a word.
            position = match.start(group)
            ch = text[position]
            if ch == "'":
                raise SqlSyntaxError("unterminated string literal", position=position)
            raise SqlSyntaxError(f"unexpected character {ch!r}", position=position)
    append(("EOF", None, len(text)))
    return tokens
