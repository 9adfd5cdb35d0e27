"""A Datalog-style front end for conjunctive queries.

The literature writes project-join queries as single Datalog rules —
``q(X) :- edge(X, Y), edge(Y, Z).`` — and that is by far the friendliest
way to hand one to a library.  This module parses that syntax into
:class:`~repro.core.query.ConjunctiveQuery`:

- head: ``q(X, Z)`` names the free variables (an empty head ``q()`` is a
  Boolean query);
- body: comma-separated atoms over named relations;
- terms: identifiers starting with an uppercase letter (or ``_``) are
  variables, lowercase identifiers and quoted strings are string
  constants, digit sequences are integer constants (the standard Datalog
  convention);
- an optional trailing period; ``%`` starts a comment.

:func:`render_datalog` is the inverse, producing a canonical rule text
from a query (variables are capitalized on the way out if needed).
"""

from __future__ import annotations

import re

from repro.core.query import Atom, ConjunctiveQuery, Const, Term
from repro.errors import SqlSyntaxError


class DatalogSyntaxError(SqlSyntaxError):
    """Raised for malformed rule text (subclass of the SQL syntax error
    so one except clause covers both front ends)."""


# ----------------------------------------------------------------------
# Lexer
# ----------------------------------------------------------------------
#: One token per match: the whitespace and ``%`` comments before it, then
#: exactly one numbered alternative (the same scheme as
#: :mod:`repro.sql.lexer`; number literals are ASCII digits only).
_TOKEN = re.compile(
    r"""\s*(?:%[^\n]*\s*)*
    (?: ([A-Za-z_]\w*)           # 1  identifier
      | ([(),.])                 # 2  punctuation
      | (:-)                     # 3  implies
      | (-?[0-9]+)               # 4  number
      | '([^']*)' | "([^"]*)"    # 5, 6  string body
      | (\Z)                     # 7  end of input
      | ([^\W\d]\w*)             # 8  identifier starting outside ASCII
      | (.)                      # 9  anything else
    )""",
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    append = tokens.append
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        if group == 2:
            append(("PUNCT", match[2], match.start(2)))
        elif group == 1:
            append(("IDENT", match[1], match.start(1)))
        elif group == 3:
            append(("IMPLIES", ":-", match.start(3)))
        elif group == 4:
            append(("NUMBER", int(match[4]), match.start(4)))
        elif group == 5 or group == 6:
            append(("STRING", match[group], match.start(group) - 1))
        elif group == 7:
            break
        elif group == 8 and match[8][0].isalpha():
            append(("IDENT", match[8], match.start(8)))
        else:
            # Group 8 also lands here for a non-ASCII digit or numeric such
            # as "²": alphanumeric for ``\w``, but it cannot start a word.
            position = match.start(group)
            ch = text[position]
            if ch == "'" or ch == '"':
                raise DatalogSyntaxError("unterminated string literal", position=position)
            raise DatalogSyntaxError(f"unexpected character {ch!r}", position=position)
    append(("EOF", None, len(text)))
    return tokens


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _is_variable(name: str) -> bool:
    return name[0].isupper() or name[0] == "_"


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]]) -> None:
        self._tokens = tokens
        self._index = 0

    def peek(self) -> tuple[str, object, int]:
        return self._tokens[self._index]

    def advance(self) -> tuple[str, object, int]:
        token = self._tokens[self._index]
        if token[0] != "EOF":
            self._index += 1
        return token

    def expect(self, kind: str, value: object = None) -> tuple[str, object, int]:
        token = self.advance()
        if token[0] != kind or (value is not None and token[1] != value):
            raise DatalogSyntaxError(
                f"expected {value or kind}, got {token[1]!r}", position=token[2]
            )
        return token

    def parse_rule(self) -> ConjunctiveQuery:
        _, head_terms, head_position = self._parse_atom_parts()
        self.expect("IMPLIES")
        atoms = [self._body_atom()]
        while self.peek()[:2] == ("PUNCT", ","):
            self.advance()
            atoms.append(self._body_atom())
        if self.peek()[:2] == ("PUNCT", "."):
            self.advance()
        trailing = self.peek()
        if trailing[0] != "EOF":
            raise DatalogSyntaxError(
                f"unexpected trailing input {trailing[1]!r}", position=trailing[2]
            )
        if not all(isinstance(term, str) for term in head_terms):
            raise DatalogSyntaxError(
                "head terms must all be variables", position=head_position
            )
        free = tuple(term for term in head_terms if isinstance(term, str))
        return ConjunctiveQuery(atoms=tuple(atoms), free_variables=free)

    def _parse_atom_parts(self) -> tuple[str, list[Term], int]:
        kind, name, position = self.advance()
        if kind != "IDENT":
            raise DatalogSyntaxError(
                f"expected a relation name, got {name!r}", position=position
            )
        self.expect("PUNCT", "(")
        terms: list[Term] = []
        if self.peek()[:2] != ("PUNCT", ")"):
            terms.append(self.parse_term())
            while self.peek()[:2] == ("PUNCT", ","):
                self.advance()
                terms.append(self.parse_term())
        self.expect("PUNCT", ")")
        return str(name), terms, position

    def _body_atom(self) -> Atom:
        name, terms, position = self._parse_atom_parts()
        if not terms:
            raise DatalogSyntaxError(
                f"body atom {name!r} has no arguments", position=position
            )
        return Atom(name, tuple(terms))

    def parse_term(self) -> Term:
        kind, value, position = self.advance()
        if kind == "IDENT":
            name = str(value)
            if _is_variable(name):
                return name
            return Const(name)  # lowercase identifier: a symbol constant
        if kind == "NUMBER" or kind == "STRING":
            return Const(value)
        raise DatalogSyntaxError(f"expected a term, got {value!r}", position=position)


def parse_rule(text: str) -> ConjunctiveQuery:
    """Parse one Datalog rule into a conjunctive query.

    Examples
    --------
    >>> q = parse_rule("q(X, Z) :- edge(X, Y), edge(Y, Z).")
    >>> q.free_variables
    ('X', 'Z')
    >>> parse_rule("q() :- edge(X, Y).").is_boolean
    True
    """
    parser = _Parser(_tokenize(text))
    return parser.parse_rule()


def parse_program(text: str):
    """Parse a whole Datalog *program*: ground facts plus one query rule.

    Facts are ground atoms — ``edge(1, 2).`` — and populate the database
    (relation arities must be consistent); exactly one rule (a statement
    containing ``:-``) defines the query.  Comments (``%``) and blank
    lines are free.  Returns ``(query, database)``.

    Examples
    --------
    >>> program = '''
    ... edge(1, 2).  edge(2, 1).
    ... q(X) :- edge(X, Y).
    ... '''
    >>> query, database = parse_program(program)
    >>> database["edge"].cardinality
    2
    """
    from repro.relalg.database import Database
    from repro.relalg.relation import Relation

    statements = _split_statements(text)
    rule_text: str | None = None
    facts: dict[str, list[tuple]] = {}
    arities: dict[str, int] = {}
    for statement in statements:
        if ":-" in statement:
            if rule_text is not None:
                raise DatalogSyntaxError(
                    "program must contain exactly one query rule"
                )
            rule_text = statement
            continue
        name, terms, position = _Parser(_tokenize(statement))._parse_atom_parts()
        values = []
        for term in terms:
            if isinstance(term, str):
                raise DatalogSyntaxError(
                    f"fact {name!r} contains variable {term!r}; facts must "
                    "be ground",
                    position=position,
                )
            values.append(term.value)
        expected = arities.setdefault(name, len(values))
        if expected != len(values):
            raise DatalogSyntaxError(
                f"relation {name!r} used with arities {expected} and "
                f"{len(values)}",
                position=position,
            )
        facts.setdefault(name, []).append(tuple(values))
    if rule_text is None:
        raise DatalogSyntaxError("program contains no query rule")
    query = parse_rule(rule_text)
    database = Database()
    for name, rows in facts.items():
        columns = tuple(f"a{i + 1}" for i in range(arities[name]))
        database.add(name, Relation(columns, rows))
    missing = query.relation_names() - set(database.names())
    if missing:
        raise DatalogSyntaxError(
            f"rule references relations with no facts: {sorted(missing)}"
        )
    return query, database


def _split_statements(text: str) -> list[str]:
    """Split program text into period-terminated statements, respecting
    quotes and comments."""
    statements: list[str] = []
    current: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "%":
            end = text.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                j += 1
            if j >= n:
                raise DatalogSyntaxError("unterminated string literal", position=i)
            current.append(text[i : j + 1])
            i = j + 1
            continue
        if ch == ".":
            # A period ends a statement unless it's inside a number —
            # our grammar has no floats, so any '.' is a terminator.
            statement = "".join(current).strip()
            if statement:
                statements.append(statement)
            current = []
            i += 1
            continue
        current.append(ch)
        i += 1
    tail = "".join(current).strip()
    if tail:
        statements.append(tail)
    return statements


def render_datalog(query: ConjunctiveQuery, head_name: str = "q") -> str:
    """Render a query as a canonical Datalog rule.

    Variables that do not already follow the uppercase convention are
    prefixed with ``V_`` so the output reparses to an isomorphic query.
    """

    def show_var(name: str) -> str:
        return name if _is_variable(name) else f"V_{name}"

    def show_term(term: Term) -> str:
        if isinstance(term, str):
            return show_var(term)
        value = term.value
        if isinstance(value, int):
            return str(value)
        return f"'{value}'"

    head = f"{head_name}({', '.join(show_var(v) for v in query.free_variables)})"
    body = ", ".join(
        f"{atom.relation}({', '.join(show_term(t) for t in atom.terms)})"
        for atom in query.atoms
    )
    return f"{head} :- {body}."
