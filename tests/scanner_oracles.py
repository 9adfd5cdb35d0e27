"""The character-loop scanners ``repro.sql.lexer.tokenize`` and
``repro.datalog._tokenize`` replaced, kept as test-only oracles.

Both return plain ``(kind, value, position)`` tuples.  They read a token's
digits with ``str.isdigit``, so a non-ASCII digit reaches ``int()`` and
may raise a bare ``ValueError`` — the one behaviour the regex scanners
deliberately do not share (they report a positioned syntax error).
"""

from __future__ import annotations

from repro.datalog import DatalogSyntaxError
from repro.errors import SqlSyntaxError
from repro.sql.lexer import KEYWORDS, PUNCTUATION

Token = tuple[str, object, int]


def sql_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("--", i):
            end = text.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch in PUNCTUATION:
            tokens.append(("PUNCT", ch, i))
            i += 1
            continue
        if ch == "'":
            i = _lex_string(text, i, tokens)
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            i = _lex_number(text, i, tokens)
            continue
        if ch.isalpha() or ch == "_":
            i = _lex_word(text, i, tokens)
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", position=i)
    tokens.append(("EOF", None, n))
    return tokens


def _lex_string(text: str, start: int, tokens: list[Token]) -> int:
    """Single-quoted string with ``''`` escaping."""
    i = start + 1
    pieces: list[str] = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                pieces.append("'")
                i += 2
                continue
            tokens.append(("STRING", "".join(pieces), start))
            return i + 1
        pieces.append(ch)
        i += 1
    raise SqlSyntaxError("unterminated string literal", position=start)


def _lex_number(text: str, start: int, tokens: list[Token]) -> int:
    i = start
    if text[i] == "-":
        i += 1
    while i < len(text) and text[i].isdigit():
        i += 1
    tokens.append(("NUMBER", int(text[start:i]), start))
    return i


def _lex_word(text: str, start: int, tokens: list[Token]) -> int:
    i = start
    while i < len(text) and (text[i].isalnum() or text[i] == "_"):
        i += 1
    word = text[start:i]
    upper = word.upper()
    if upper in KEYWORDS:
        tokens.append(("KEYWORD", upper, start))
    else:
        tokens.append(("IDENT", word, start))
    return i


def datalog_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "%":
            end = text.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if text.startswith(":-", i):
            tokens.append(("IMPLIES", ":-", i))
            i += 2
            continue
        if ch in "(),.":
            tokens.append(("PUNCT", ch, i))
            i += 1
            continue
        if ch == "'" or ch == '"':
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                j += 1
            if j >= n:
                raise DatalogSyntaxError("unterminated string literal", position=i)
            tokens.append(("STRING", text[i + 1 : j], i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("NUMBER", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], i))
            i = j
            continue
        raise DatalogSyntaxError(f"unexpected character {ch!r}", position=i)
    tokens.append(("EOF", None, n))
    return tokens
