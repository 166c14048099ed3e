"""Recursive-descent parser for the SQL subset.

Entry points:

* `parse(text)` — any supported statement (SELECT / INSERT / UPDATE / DELETE).
* `parse_select(text)` — a SELECT, raising if the text is another statement.
* `parse_expression(text)` — a bare scalar/boolean expression.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ParseError
from repro.sql.ast import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Delete,
    Expr,
    FuncCall,
    InList,
    Insert,
    IsNull,
    JoinClause,
    Like,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    Star,
    TableRef,
    UnaryOp,
    UnionSelect,
    Update,
)
from repro.sql.lexer import Token, string_value, tokenize

_COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        #: ``id(literal) -> (token index, negated)`` of each `Literal` read off
        #: a NUMBER / STRING token; a folded unary minus negates
        self.origins: dict = {}

    # -- token plumbing -----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept_keyword(self, *words: str) -> bool:
        if self.current.is_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            self.fail(f"expected {word}")

    def accept_op(self, *ops: str) -> Optional[str]:
        if self.current.is_op(*ops):
            return self.advance().value
        return None

    def expect_op(self, op: str) -> None:
        if self.accept_op(op) is None:
            self.fail(f"expected {op!r}")

    def expect_ident(self) -> str:
        token = self.current
        if token.kind == "IDENT":
            self.advance()
            return token.value
        # Permit non-reserved-looking keywords as identifiers where unambiguous.
        self.fail("expected identifier")

    def fail(self, message: str):
        token = self.current
        raise ParseError(
            f"{message}, found {token.kind}:{token.value!r}",
            position=token.position,
            text=self.text,
        )

    def expect_eof(self) -> None:
        if self.current.kind != "EOF":
            self.fail("unexpected trailing input")

    # -- statements ----------------------------------------------------------

    def parse_statement(self):
        if self.current.is_keyword("SELECT"):
            return self.parse_select_or_union()
        if self.current.is_keyword("INSERT"):
            return self.parse_insert()
        if self.current.is_keyword("UPDATE"):
            return self.parse_update()
        if self.current.is_keyword("DELETE"):
            return self.parse_delete()
        self.fail("expected SELECT, INSERT, UPDATE or DELETE")

    def parse_select_or_union(self):
        """A SELECT, or a UNION [ALL] chain of SELECTs.

        A trailing ORDER BY / LIMIT syntactically attaches to the last
        branch; per standard SQL it governs the whole union, so it is
        lifted onto the `UnionSelect` node.
        """
        selects = [self.parse_select_stmt()]
        union_all = None
        while self.accept_keyword("UNION"):
            this_all = self.accept_keyword("ALL")
            if union_all is None:
                union_all = this_all
            elif union_all != this_all:
                self.fail("mixing UNION and UNION ALL is not supported")
            selects.append(self.parse_select_stmt())
        if len(selects) == 1:
            return selects[0]
        from dataclasses import replace

        last = selects[-1]
        order_by, limit = last.order_by, last.limit
        selects[-1] = replace(last, order_by=(), limit=None)
        return UnionSelect(tuple(selects), bool(union_all), order_by, limit)

    def parse_select_stmt(self) -> Select:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        items = [self.parse_select_item()]
        while self.accept_op(","):
            items.append(self.parse_select_item())

        from_tables: list[TableRef] = []
        joins: list[JoinClause] = []
        if self.accept_keyword("FROM"):
            from_tables.append(self.parse_table_ref())
            while True:
                if self.accept_op(","):
                    from_tables.append(self.parse_table_ref())
                    continue
                join = self.maybe_parse_join()
                if join is None:
                    break
                joins.append(join)

        where = self.parse_expr() if self.accept_keyword("WHERE") else None

        group_by: list[Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())

        having = self.parse_expr() if self.accept_keyword("HAVING") else None

        order_by: list[OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.accept_op(","):
                order_by.append(self.parse_order_item())

        limit = None
        if self.accept_keyword("LIMIT"):
            token = self.current
            if token.kind != "NUMBER" or not isinstance(token.value, int):
                self.fail("expected integer LIMIT")
            limit = self.advance().value

        return Select(
            items=tuple(items),
            from_tables=tuple(from_tables),
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def parse_select_item(self) -> SelectItem:
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.current.kind == "IDENT":
            alias = self.advance().value
        return SelectItem(expr, alias)

    def parse_table_ref(self) -> TableRef:
        name = self.expect_ident()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.current.kind == "IDENT":
            alias = self.advance().value
        return TableRef(name, alias)

    def maybe_parse_join(self) -> Optional[JoinClause]:
        kind = None
        if self.current.is_keyword("JOIN"):
            self.advance()
            kind = "INNER"
        elif self.current.is_keyword("INNER"):
            self.advance()
            self.expect_keyword("JOIN")
            kind = "INNER"
        elif self.current.is_keyword("LEFT"):
            self.advance()
            self.accept_keyword("OUTER")
            self.expect_keyword("JOIN")
            kind = "LEFT"
        elif self.current.is_keyword("CROSS"):
            self.advance()
            self.expect_keyword("JOIN")
            table = self.parse_table_ref()
            return JoinClause(table, "INNER", None)
        if kind is None:
            return None
        table = self.parse_table_ref()
        self.expect_keyword("ON")
        condition = self.parse_expr()
        return JoinClause(table, kind, condition)

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self.accept_keyword("DESC"):
            ascending = False
        else:
            self.accept_keyword("ASC")
        return OrderItem(expr, ascending)

    def parse_insert(self) -> Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident()
        columns: list[str] = []
        if self.accept_op("("):
            columns.append(self.expect_ident())
            while self.accept_op(","):
                columns.append(self.expect_ident())
            self.expect_op(")")
        self.expect_keyword("VALUES")
        rows = [self.parse_value_row()]
        while self.accept_op(","):
            rows.append(self.parse_value_row())
        return Insert(table, tuple(columns), tuple(rows))

    def parse_value_row(self) -> tuple:
        self.expect_op("(")
        values = [self.parse_expr()]
        while self.accept_op(","):
            values.append(self.parse_expr())
        self.expect_op(")")
        return tuple(values)

    def parse_update(self) -> Update:
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments = [self.parse_assignment()]
        while self.accept_op(","):
            assignments.append(self.parse_assignment())
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return Update(table, tuple(assignments), where)

    def parse_assignment(self) -> tuple:
        name = self.expect_ident()
        self.expect_op("=")
        return (name, self.parse_expr())

    def parse_delete(self) -> Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return Delete(table, where)

    # -- expressions ----------------------------------------------------------
    # Precedence (low→high): OR, AND, NOT, comparison/IS/IN/LIKE/BETWEEN,
    # additive (+ - ||), multiplicative (* / %), unary minus, primary.

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.accept_keyword("OR"):
            left = BinaryOp("OR", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.accept_keyword("AND"):
            left = BinaryOp("AND", left, self.parse_not())
        return left

    def parse_not(self) -> Expr:
        if self.accept_keyword("NOT"):
            return UnaryOp("NOT", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        op = self.accept_op(*_COMPARISON_OPS)
        if op is not None:
            return BinaryOp(op, left, self.parse_additive())
        if self.accept_keyword("IS"):
            negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return IsNull(left, negated)
        negated = False
        if self.current.is_keyword("NOT"):
            nxt = self.tokens[self.pos + 1]
            if nxt.is_keyword("IN", "LIKE", "BETWEEN"):
                self.advance()
                negated = True
        if self.accept_keyword("IN"):
            self.expect_op("(")
            items = [self.parse_expr()]
            while self.accept_op(","):
                items.append(self.parse_expr())
            self.expect_op(")")
            return InList(left, tuple(items), negated)
        if self.accept_keyword("LIKE"):
            return Like(left, self.parse_additive(), negated)
        if self.accept_keyword("BETWEEN"):
            low = self.parse_additive()
            self.expect_keyword("AND")
            high = self.parse_additive()
            return Between(left, low, high, negated)
        if negated:
            self.fail("expected IN, LIKE or BETWEEN after NOT")
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while True:
            op = self.accept_op("+", "-", "||")
            if op is None:
                return left
            left = BinaryOp(op, left, self.parse_multiplicative())

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while True:
            op = self.accept_op("*", "/", "%")
            if op is None:
                return left
            left = BinaryOp(op, left, self.parse_unary())

    def parse_unary(self) -> Expr:
        if self.accept_op("-"):
            operand = self.parse_unary()
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                folded = Literal(-operand.value)
                origin = self.origins.pop(id(operand), None)
                if origin is not None:
                    self.origins[id(folded)] = (origin[0], not origin[1])
                return folded
            return UnaryOp("-", operand)
        self.accept_op("+")  # unary plus is a no-op
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        token = self.current
        if token.kind == "NUMBER" or token.kind == "STRING":
            literal = Literal(token.value if token.kind == "NUMBER" else string_value(token.value))
            self.origins[id(literal)] = (self.pos, False)
            self.advance()
            return literal
        if token.is_keyword("TRUE"):
            self.advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return Literal(False)
        if token.is_keyword("NULL"):
            self.advance()
            return Literal(None)
        if token.is_keyword("CASE"):
            return self.parse_case()
        if token.is_op("("):
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if token.is_op("*"):
            self.advance()
            return Star()
        if token.kind == "IDENT":
            return self.parse_identifier_expr()
        self.fail("expected expression")

    def parse_case(self) -> CaseWhen:
        self.expect_keyword("CASE")
        whens = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expr()
            self.expect_keyword("THEN")
            whens.append((cond, self.parse_expr()))
        if not whens:
            self.fail("CASE requires at least one WHEN")
        default = self.parse_expr() if self.accept_keyword("ELSE") else None
        self.expect_keyword("END")
        return CaseWhen(tuple(whens), default)

    def parse_identifier_expr(self) -> Expr:
        name = self.advance().value
        if self.current.is_op("("):
            self.advance()
            distinct = self.accept_keyword("DISTINCT")
            args: list[Expr] = []
            if not self.current.is_op(")"):
                args.append(self.parse_expr())
                while self.accept_op(","):
                    args.append(self.parse_expr())
            self.expect_op(")")
            return FuncCall(name.upper(), tuple(args), distinct)
        if self.accept_op("."):
            if self.accept_op("*"):
                return Star(qualifier=name)
            member = self.expect_ident()
            return ColumnRef(member, name)
        return ColumnRef(name)


def parse(text: str):
    """Parse any supported statement."""
    return parse_with_origins(text)[0]


def parse_with_origins(text: str) -> tuple:
    """``(statement, tokens, origins)``: `parse`, and what a template is learned
    from (`repro.sql.shape.learn`) - which token each `Literal` came from."""
    parser = _Parser(text)
    statement = parser.parse_statement()
    parser.expect_eof()
    return statement, parser.tokens, parser.origins


def parse_select(text: str) -> Select:
    """Parse a SELECT statement; raises ParseError on other statements."""
    statement = parse(text)
    if not isinstance(statement, Select):
        raise ParseError("expected a SELECT statement")
    return statement


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression (used in mappings and tests)."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr
