"""Recursive-descent parser for the mini-SQL dialect."""

from __future__ import annotations

from ..errors import SQLSyntaxError
from .ast import (
    Between,
    BinaryOp,
    ColumnRef,
    CreateIndexStatement,
    CreateTableStatement,
    Expression,
    FunctionCall,
    InList,
    InsertStatement,
    IsNull,
    JoinClause,
    Literal,
    OrderItem,
    Parameter,
    SelectItem,
    SelectStatement,
    Statement,
    TableRef,
    UnaryOp,
)
from .lexer import Token, TokenType, tokenize

_AGGREGATES = {"count", "sum", "avg", "min", "max"}


def parse(text: str) -> Statement:
    """Parse a single SQL statement."""
    return parse_parameterised(text)[0]


def parse_parameterised(text: str) -> tuple[Statement, int]:
    """Parse a single SQL statement; also the number of ``?`` placeholders in it."""
    parser = _Parser(tokenize(text))
    return parser.parse_statement(), parser.parameters


def parse_expression(text: str) -> Expression:
    """Parse a standalone expression (used in tests and layer filters)."""
    parser = _Parser(tokenize(text))
    expression = parser._parse_or()
    parser._expect_eof()
    return expression


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._position = 0
        self.parameters = 0  # placeholders met so far: the next one's index

    # -- token helpers -------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self._current
        self._position += 1
        return token

    def _error(self, message: str) -> SQLSyntaxError:
        return SQLSyntaxError(
            f"{message} (near {self._current.value!r})", self._current.position
        )

    def _accept_keyword(self, *names: str) -> bool:
        if self._current.is_keyword(*names):
            self._advance()
            return True
        return False

    def _expect_keyword(self, *names: str) -> Token:
        if not self._current.is_keyword(*names):
            raise self._error(f"expected {' or '.join(names).upper()}")
        return self._advance()

    def _accept_punct(self, value: str) -> bool:
        token = self._current
        if token.type is TokenType.PUNCTUATION and token.value == value:
            self._advance()
            return True
        return False

    def _accept_star(self) -> bool:
        """Accept a ``*`` token whether it was lexed as operator or punctuation."""
        if self._current.value == "*" and self._current.type in (
            TokenType.OPERATOR,
            TokenType.PUNCTUATION,
        ):
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> Token:
        if not (
            self._current.type is TokenType.PUNCTUATION
            and self._current.value == value
        ):
            raise self._error(f"expected {value!r}")
        return self._advance()

    def _expect_identifier(self) -> str:
        token = self._current
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return token.value
        # Non-reserved use of keywords as identifiers is allowed for a few
        # common column names (count, min, max ...) when followed by no '('.
        if token.type is TokenType.KEYWORD and token.value in _AGGREGATES:
            self._advance()
            return token.value
        raise self._error("expected an identifier")

    def _expect_eof(self) -> None:
        self._accept_punct(";")
        if self._current.type is not TokenType.EOF:
            raise self._error("unexpected trailing input")

    # -- statements -----------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self._current
        if token.is_keyword("select"):
            statement: Statement = self._parse_select()
        elif token.is_keyword("insert"):
            statement = self._parse_insert()
        elif token.is_keyword("create"):
            statement = self._parse_create()
        else:
            raise self._error("expected a statement")
        self._expect_eof()
        return statement

    # SELECT -------------------------------------------------------------------

    def _parse_select(self) -> SelectStatement:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        select_star = False
        items: list[SelectItem] = []
        if self._accept_star():
            select_star = True
        else:
            items.append(self._parse_select_item())
            while self._accept_punct(","):
                items.append(self._parse_select_item())

        table: TableRef | None = None
        joins: list[JoinClause] = []
        if self._accept_keyword("from"):
            table = self._parse_table_ref()
            while self._current.is_keyword("join", "inner", "left"):
                joins.append(self._parse_join())

        where = self._parse_or() if self._accept_keyword("where") else None

        group_by: list[Expression] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self._parse_or())
            while self._accept_punct(","):
                group_by.append(self._parse_or())

        order_by: list[OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())

        limit = None
        offset = None
        if self._accept_keyword("limit"):
            limit = self._parse_integer()
        if self._accept_keyword("offset"):
            offset = self._parse_integer()

        return SelectStatement(
            items=tuple(items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
            select_star=select_star,
        )

    def _parse_select_item(self) -> SelectItem:
        expression = self._parse_or()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_identifier()
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return SelectItem(expression=expression, alias=alias)

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_identifier()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_identifier()
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return TableRef(name=name, alias=alias)

    def _parse_join(self) -> JoinClause:
        # Accept JOIN / INNER JOIN / LEFT JOIN (all treated as inner equi-join;
        # Kyrix's tile queries only need the inner join of record and mapping
        # tables).
        if self._accept_keyword("inner") or self._accept_keyword("left"):
            self._expect_keyword("join")
        else:
            self._expect_keyword("join")
        table = self._parse_table_ref()
        self._expect_keyword("on")
        left = self._parse_column_ref()
        operator = self._advance()
        if operator.type is not TokenType.OPERATOR or operator.value not in ("=", "=="):
            raise self._error("only equi-joins are supported")
        right = self._parse_column_ref()
        return JoinClause(table=table, left=left, right=right)

    def _parse_order_item(self) -> OrderItem:
        expression = self._parse_or()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return OrderItem(expression=expression, descending=descending)

    def _parse_integer(self) -> int:
        token = self._current
        if token.type is not TokenType.NUMBER:
            raise self._error("expected an integer")
        self._advance()
        try:
            return int(token.value)
        except ValueError as exc:
            raise SQLSyntaxError(
                f"expected an integer, got {token.value!r}", token.position
            ) from exc

    # INSERT ------------------------------------------------------------------------

    def _parse_insert(self) -> InsertStatement:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._expect_identifier()
        columns: list[str] = []
        if self._accept_punct("("):
            columns.append(self._expect_identifier())
            while self._accept_punct(","):
                columns.append(self._expect_identifier())
            self._expect_punct(")")
        self._expect_keyword("values")
        rows: list[tuple[Expression, ...]] = []
        rows.append(self._parse_value_tuple())
        while self._accept_punct(","):
            rows.append(self._parse_value_tuple())
        return InsertStatement(table=table, columns=tuple(columns), rows=tuple(rows))

    def _parse_value_tuple(self) -> tuple[Expression, ...]:
        self._expect_punct("(")
        values = [self._parse_or()]
        while self._accept_punct(","):
            values.append(self._parse_or())
        self._expect_punct(")")
        return tuple(values)

    # CREATE ------------------------------------------------------------------------

    def _parse_create(self) -> Statement:
        self._expect_keyword("create")
        if self._accept_keyword("table"):
            return self._parse_create_table()
        unique = self._accept_keyword("unique")
        self._expect_keyword("index")
        return self._parse_create_index(unique=unique)

    def _parse_create_table(self) -> CreateTableStatement:
        table = self._expect_identifier()
        self._expect_punct("(")
        columns: list[tuple[str, str]] = []
        while True:
            name = self._expect_identifier()
            type_name = self._expect_identifier()
            columns.append((name, type_name))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return CreateTableStatement(table=table, columns=tuple(columns))

    def _parse_create_index(self, *, unique: bool) -> CreateIndexStatement:
        name = self._expect_identifier()
        self._expect_keyword("on")
        table = self._expect_identifier()
        self._expect_punct("(")
        column = self._expect_identifier()
        self._expect_punct(")")
        kind = "btree"
        if self._accept_keyword("using"):
            kind = self._expect_identifier()
        return CreateIndexStatement(
            name=name, table=table, column=column, kind=kind, unique=unique
        )

    # -- expressions (precedence-climbing) ----------------------------------------------

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._accept_keyword("or"):
            left = BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._accept_keyword("and"):
            left = BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self._accept_keyword("not"):
            return UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        token = self._current
        if token.type is TokenType.OPERATOR and token.value in (
            "=", "==", "!=", "<>", "<", "<=", ">", ">=",
        ):
            self._advance()
            operator = {"==": "=", "<>": "!="}.get(token.value, token.value)
            return BinaryOp(operator, left, self._parse_additive())
        if token.is_keyword("is"):
            self._advance()
            negated = self._accept_keyword("not")
            self._expect_keyword("null")
            return IsNull(operand=left, negated=negated)
        if token.is_keyword("between"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return Between(operand=left, low=low, high=high)
        if token.is_keyword("not") and self._tokens[self._position + 1].is_keyword(
            "in", "between"
        ):
            self._advance()
            if self._accept_keyword("between"):
                low = self._parse_additive()
                self._expect_keyword("and")
                high = self._parse_additive()
                return Between(operand=left, low=low, high=high, negated=True)
            self._expect_keyword("in")
            items = self._parse_value_tuple()
            return InList(operand=left, items=items, negated=True)
        if token.is_keyword("in"):
            self._advance()
            items = self._parse_value_tuple()
            return InList(operand=left, items=items)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while (
            self._current.type is TokenType.OPERATOR
            and self._current.value in ("+", "-")
        ):
            operator = self._advance().value
            left = BinaryOp(operator, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while (
            self._current.type is TokenType.OPERATOR
            and self._current.value in ("*", "/", "%")
        ) or (
            self._current.type is TokenType.PUNCTUATION and self._current.value == "*"
        ):
            operator = self._advance().value
            left = BinaryOp(operator, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expression:
        if self._current.type is TokenType.OPERATOR and self._current.value == "-":
            self._advance()
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._current
        if token.type is TokenType.NUMBER:
            self._advance()
            value = float(token.value)
            if value.is_integer() and "." not in token.value and "e" not in token.value.lower():
                return Literal(int(token.value))
            return Literal(value)
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)
        if token.type is TokenType.PLACEHOLDER:
            self._advance()
            self.parameters += 1
            return Parameter(self.parameters - 1)
        if token.is_keyword("null"):
            self._advance()
            return Literal(None)
        if token.is_keyword("true"):
            self._advance()
            return Literal(True)
        if token.is_keyword("false"):
            self._advance()
            return Literal(False)
        if token.is_keyword(*_AGGREGATES, "intersects"):
            return self._parse_function_call(token.value)
        if token.type is TokenType.IDENTIFIER:
            next_token = self._tokens[self._position + 1]
            if next_token.type is TokenType.PUNCTUATION and next_token.value == "(":
                return self._parse_function_call(token.value)
            return self._parse_column_ref()
        if token.type is TokenType.PUNCTUATION and token.value == "(":
            self._advance()
            expression = self._parse_or()
            self._expect_punct(")")
            return expression
        raise self._error("expected an expression")

    def _parse_function_call(self, name: str) -> FunctionCall:
        self._advance()  # function name
        self._expect_punct("(")
        if self._accept_star():
            self._expect_punct(")")
            return FunctionCall(name=name, args=(), star=True)
        args: list[Expression] = []
        if not self._accept_punct(")"):
            args.append(self._parse_or())
            while self._accept_punct(","):
                args.append(self._parse_or())
            self._expect_punct(")")
        return FunctionCall(name=name, args=tuple(args))

    def _parse_column_ref(self) -> ColumnRef:
        first = self._expect_identifier()
        if self._accept_punct("."):
            second = self._expect_identifier()
            return ColumnRef(column=second, table=first)
        return ColumnRef(column=first)
