"""Recursive-descent parser for the SQL subset.

Grammar (see :mod:`repro.sql.ast` for the node types)::

    query       := SELECT [DISTINCT] select_list FROM from_list [WHERE cond] [";"]
    select_list := column_ref ("," column_ref)*
    from_list   := from_item ("," from_item)*
    from_item   := operand (JOIN operand ON "(" cond ")")*        -- left-assoc
    operand     := table_ref
                 | "(" query ")" AS ident                         -- subquery
                 | "(" from_item ")"                              -- grouped join
    table_ref   := ident ident "(" ident ("," ident)* ")"
    cond        := TRUE | conjunct (AND conjunct)*
    conjunct    := equality | EXISTS "(" query ")"
    equality    := atom "=" atom
    atom        := column_ref | NUMBER | STRING
    column_ref  := ident "." ident

The paper's nested join syntax — ``e5 JOIN ( e4 JOIN (...) ON (...) ) ON
(...)`` — parses through the grouped-join operand; explicit parentheses
are the only way join shape is expressed, exactly as in the listings.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SqlSyntaxError
from repro.sql.ast import (
    ColumnRef,
    Condition,
    Equality,
    Exists,
    FromItem,
    JoinExpr,
    Literal,
    Operand,
    SelectQuery,
    SubqueryRef,
    TableRef,
    too_deep,
)
from repro.sql.lexer import scan

_Token = tuple[str, Any, int]  # as repro.sql.lexer.scan makes them


class _Parser:
    """Walks the token list by index.

    The list ends with an ``EOF`` token that nothing consumes, so
    ``tokens[index]`` always exists, and ``tokens[index + 1]`` does
    whenever ``tokens[index]`` is not ``EOF``.
    """

    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # ------------------------------------------------------------------
    def _unexpected(self, expected: str, index: int) -> SqlSyntaxError:
        """The error for finding the token at ``index`` where ``expected``
        should be."""
        _, value, position = self._tokens[index]
        return SqlSyntaxError(f"expected {expected}, got {value!r}", position=position)

    def expect_keyword(self, keyword: str) -> None:
        kind, value, _ = self._tokens[self._index]
        if value != keyword or kind != "KEYWORD":
            raise self._unexpected(keyword, self._index)
        self._index += 1

    def expect_punct(self, punct: str) -> None:
        kind, value, _ = self._tokens[self._index]
        if value != punct or kind != "PUNCT":
            raise self._unexpected(repr(punct), self._index)
        self._index += 1

    def expect_ident(self) -> str:
        kind, value, _ = self._tokens[self._index]
        if kind != "IDENT":
            raise self._unexpected("identifier", self._index)
        self._index += 1
        return value

    def accept_keyword(self, keyword: str) -> bool:
        """Consume ``keyword`` if it is next; say whether it was."""
        kind, value, _ = self._tokens[self._index]
        if value != keyword or kind != "KEYWORD":
            return False
        self._index += 1
        return True

    def accept_punct(self, punct: str) -> bool:
        """Consume ``punct`` if it is next; say whether it was."""
        kind, value, _ = self._tokens[self._index]
        if value != punct or kind != "PUNCT":
            return False
        self._index += 1
        return True

    def reject_semicolon(self, what: str) -> None:
        kind, value, position = self._tokens[self._index]
        if value == ";" and kind == "PUNCT":
            raise SqlSyntaxError(f"{what} must not end with ';'", position=position)

    # ------------------------------------------------------------------
    def parse_query(self) -> SelectQuery:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        select = [self.parse_column_ref()]
        while self.accept_punct(","):
            select.append(self.parse_column_ref())
        self.expect_keyword("FROM")
        from_items = [self.parse_from_item()]
        while self.accept_punct(","):
            from_items.append(self.parse_from_item())
        where = Condition()
        if self.accept_keyword("WHERE"):
            where = self.parse_condition()
        return SelectQuery(
            select=tuple(select),
            from_items=tuple(from_items),
            where=where,
            distinct=distinct,
        )

    def parse_column_ref(self) -> ColumnRef:
        tokens, index = self._tokens, self._index
        kind, table, _ = tokens[index]
        if kind != "IDENT":
            raise self._unexpected("identifier", index)
        kind, value, _ = tokens[index + 1]
        if value != "." or kind != "PUNCT":
            raise self._unexpected("'.'", index + 1)
        kind, column, _ = tokens[index + 2]
        if kind != "IDENT":
            raise self._unexpected("identifier", index + 2)
        self._index = index + 3
        return ColumnRef(table, column)

    # ------------------------------------------------------------------
    def parse_from_item(self) -> FromItem:
        return self.parse_joins(self.parse_join_operand())

    def parse_joins(self, item: FromItem) -> FromItem:
        """The ``JOIN operand ON ( cond )`` tail after ``item``, left-assoc."""
        while self.accept_keyword("JOIN"):
            right = self.parse_join_operand()
            self.expect_keyword("ON")
            self.expect_punct("(")
            condition = self.parse_condition()
            self.expect_punct(")")
            item = JoinExpr(left=item, right=right, condition=condition)
        return item

    def parse_join_operand(self) -> FromItem:
        if not self.accept_punct("("):
            return self.parse_table_ref()
        # Subquery or grouped join — disambiguate on the token after "(".
        kind, value, _ = self._tokens[self._index]
        if value == "SELECT" and kind == "KEYWORD":
            query = self.parse_query()
            self.reject_semicolon("subquery")
            self.expect_punct(")")
            self.expect_keyword("AS")
            return SubqueryRef(query=query, alias=self.expect_ident())
        inner = self.parse_from_item()
        self.expect_punct(")")
        # A parenthesized join may itself be joined further.
        return self.parse_joins(inner)

    def parse_table_ref(self) -> TableRef:
        tokens, index = self._tokens, self._index
        kind, relation, _ = tokens[index]
        if kind != "IDENT":
            raise self._unexpected("identifier", index)
        kind, alias, _ = tokens[index + 1]
        if kind != "IDENT":
            raise self._unexpected("identifier", index + 1)
        kind, value, _ = tokens[index + 2]
        if value != "(" or kind != "PUNCT":
            raise self._unexpected("'('", index + 2)
        columns = []
        while True:
            # ``index`` is at the "(" or "," before the next column name.
            kind, column, _ = tokens[index + 3]
            if kind != "IDENT":
                raise self._unexpected("identifier", index + 3)
            columns.append(column)
            index += 2
            kind, value, _ = tokens[index + 2]
            if value != "," or kind != "PUNCT":
                break
        if value != ")" or kind != "PUNCT":
            raise self._unexpected("')'", index + 2)
        self._index = index + 3
        return TableRef(relation=relation, alias=alias, columns=tuple(columns))

    # ------------------------------------------------------------------
    def parse_condition(self) -> Condition:
        if self.accept_keyword("TRUE"):
            return Condition()
        equalities: list[Equality] = []
        exists: list[Exists] = []
        self.parse_conjunct(equalities, exists)
        while self.accept_keyword("AND"):
            self.parse_conjunct(equalities, exists)
        return Condition(tuple(equalities), tuple(exists))

    def parse_conjunct(
        self, equalities: list[Equality], exists: list[Exists]
    ) -> None:
        if self.accept_keyword("EXISTS"):
            self.expect_punct("(")
            query = self.parse_query()
            self.reject_semicolon("EXISTS subquery")
            self.expect_punct(")")
            exists.append(Exists(query))
        else:
            left = self.parse_operand()
            self.expect_punct("=")
            equalities.append(Equality(left, self.parse_operand()))

    def parse_operand(self) -> Operand:
        kind, value, _ = self._tokens[self._index]
        if kind == "NUMBER" or kind == "STRING":
            self._index += 1
            return Literal(value)
        return self.parse_column_ref()


def parse(text: str) -> SelectQuery:
    """Parse SQL text into a :class:`~repro.sql.ast.SelectQuery`.

    Raises :class:`~repro.errors.SqlSyntaxError` on malformed input,
    including trailing garbage after the statement and parentheses nested
    deeper than the interpreter's recursion limit lets the parser follow.
    """
    tokens = scan(text)
    parser = _Parser(tokens)
    try:
        query = parser.parse_query()
    except RecursionError:
        raise _too_deep(tokens) from None
    parser.accept_punct(";")
    kind, value, position = tokens[parser._index]
    if kind != "EOF":
        raise SqlSyntaxError(
            f"unexpected trailing input {value!r}", position=position
        )
    return query


def _too_deep(tokens: list[_Token]) -> SqlSyntaxError:
    depth = deepest = position = 0
    for kind, value, start in tokens:
        if kind == "PUNCT" and value == "(":
            depth += 1
            if depth > deepest:
                deepest, position = depth, start
        elif kind == "PUNCT" and value == ")":
            depth -= 1
    return SqlSyntaxError(too_deep(deepest), position=position)
