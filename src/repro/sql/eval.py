"""Compile AST expressions into row-evaluating closures.

`compile_expr(expr, schema)` returns a `row -> value` callable bound to
column positions at compile time, so per-row evaluation does no name
resolution. NULL follows SQL three-valued logic: comparisons and arithmetic
over NULL yield NULL, AND/OR use Kleene logic, and `compile_predicate` maps
the final UNKNOWN to False (the WHERE-clause rule).
"""

from __future__ import annotations

import datetime
import operator
import re
from functools import lru_cache
from typing import Callable

from repro.common.errors import PlanError, TypeMismatchError
from repro.common.schema import RelSchema
from repro.sql.ast import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    LiteralValues,
    Param,
    Star,
    UnaryOp,
)
from repro.sql.exprutil import SWAPPED_COMPARISONS, column_vs_literal
from repro.sql.functions import call_scalar, is_aggregate_name, remainder

_COMPARATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "%": remainder,
}

#: Ints up to this magnitude convert to float without rounding, so Python's
#: exact int/float `==` and hashing answer what `_align_numeric` followed by
#: a float `==` answers.
_FLOAT_EXACT_INT = 2**53

#: Literal types specialised at compile time (exact types, not subclasses).
_PLAIN_TYPES = frozenset((bool, int, float, str, datetime.date))


def compile_expr(expr: Expr, schema: RelSchema) -> Callable:
    """Compile `expr` against `schema` into a `row -> value` closure."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value

    if isinstance(expr, ColumnRef):
        index = schema.index_of(expr.name, expr.qualifier)
        return lambda row: row[index]

    if isinstance(expr, Star):
        raise PlanError("* is only valid in a select list or COUNT(*)")

    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, schema)

    if isinstance(expr, UnaryOp):
        inner = compile_expr(expr.operand, schema)
        if expr.op == "NOT":
            def evaluate_not(row):
                value = inner(row)
                return None if value is None else not value

            return evaluate_not
        if expr.op == "-":
            def evaluate_neg(row):
                value = inner(row)
                try:
                    return None if value is None else -value
                except TypeError as exc:
                    raise TypeMismatchError(f"cannot negate {value!r}") from exc

            return evaluate_neg
        raise PlanError(f"unknown unary operator {expr.op!r}")

    if isinstance(expr, FuncCall):
        if is_aggregate_name(expr.name):
            raise PlanError(
                f"aggregate {expr.name} outside of an Aggregate operator"
            )
        arg_fns = [compile_expr(arg, schema) for arg in expr.args]
        name = expr.name

        def evaluate_call(row):
            return call_scalar(name, [fn(row) for fn in arg_fns])

        return evaluate_call

    if isinstance(expr, IsNull):
        inner = compile_expr(expr.operand, schema)
        if expr.negated:
            return lambda row: inner(row) is not None
        return lambda row: inner(row) is None

    if isinstance(expr, InList):
        inner = compile_expr(expr.operand, schema)
        probe = _literal_probe(expr.items)
        # An all-literal list compiles its items only if the probe below ever
        # falls back: a bind join's hundreds of keys are probed, not visited.
        item_fns = None
        if probe is None:
            item_fns = [compile_expr(item, schema) for item in expr.items]
        negated = expr.negated

        def evaluate_in(row):
            nonlocal item_fns
            value = inner(row)
            if value is None:
                return None
            if item_fns is None:
                item_fns = [compile_expr(item, schema) for item in expr.items]
            found = False
            saw_null = False
            for fn in item_fns:
                item = fn(row)
                if item is None:
                    saw_null = True
                elif _values_equal(value, item):
                    found = True
                    break
            if found:
                return not negated
            if saw_null:
                return None
            return negated

        if probe is None:
            return evaluate_in
        keys, has_float, has_null = probe
        hit = not negated
        miss = None if has_null else negated

        def evaluate_in_probe(row):
            value = inner(row)
            if value is None:
                return None
            if has_float and isinstance(value, int) and not _float_exact(value):
                return evaluate_in(row)  # float(value) rounds, or overflows
            try:
                return hit if value in keys else miss
            except TypeError:  # unhashable operand
                return evaluate_in(row)

        return evaluate_in_probe

    if isinstance(expr, Like):
        inner = compile_expr(expr.operand, schema)
        pattern_fn = compile_expr(expr.pattern, schema)
        negated = expr.negated

        def evaluate_like(row):
            value = inner(row)
            pattern = pattern_fn(row)
            if value is None or pattern is None:
                return None
            try:
                matched = _like_regex(pattern).match(value) is not None
            except TypeError as exc:
                raise TypeMismatchError(
                    f"LIKE needs strings, got {value!r} LIKE {pattern!r}"
                ) from exc
            return matched != negated

        return evaluate_like

    if isinstance(expr, Between):
        inner = compile_expr(expr.operand, schema)
        low_fn = compile_expr(expr.low, schema)
        high_fn = compile_expr(expr.high, schema)
        negated = expr.negated

        def evaluate_between(row):
            value = inner(row)
            low = low_fn(row)
            high = high_fn(row)
            if value is None or low is None or high is None:
                return None
            try:
                result = low <= value <= high
            except TypeError as exc:
                raise TypeMismatchError(
                    f"cannot compare {value!r} with BETWEEN {low!r} AND {high!r}"
                ) from exc
            return result != negated

        return evaluate_between

    if isinstance(expr, CaseWhen):
        when_fns = [
            (compile_expr(cond, schema), compile_expr(value, schema))
            for cond, value in expr.whens
        ]
        default_fn = (
            compile_expr(expr.default, schema) if expr.default is not None else None
        )

        def evaluate_case(row):
            for cond_fn, value_fn in when_fns:
                if cond_fn(row):
                    return value_fn(row)
            return default_fn(row) if default_fn is not None else None

        return evaluate_case

    raise PlanError(f"cannot compile expression node {type(expr).__name__}")


def compile_predicate(expr: Expr, schema: RelSchema) -> Callable:
    """Compile a boolean expression, mapping NULL (UNKNOWN) to False."""
    inner = compile_expr(expr, schema)

    def predicate(row) -> bool:
        return bool(inner(row))

    return predicate


_NULL = type(None)

#: Literal type -> the exact types of column values (NULL aside, which a pass
#: drops first) under which the bare Python comparison neither raises nor
#: answers differently from `evaluate_cmp`'s `_align_numeric` + compare.
_EXACT_UNDER = {
    int: frozenset((int, float, _NULL)),  # float(literal) is exact: `_is_plain`
    float: frozenset((float, _NULL)),  # float() rounds an int beyond 2**53
    str: frozenset((str, _NULL)),
    datetime.date: frozenset((datetime.date, _NULL)),  # a `datetime` raises on <
    bool: frozenset((bool, int, float, _NULL)),  # a bool operand is never aligned
}

#: The same for `value in keys` (`evaluate_in_probe`): any plain scalar - but
#: no int once a key is a float, which can send the probe to the item loop.
_EXACT_IN = _PLAIN_TYPES | {_NULL}


def exact_under(literal):
    """The exact types a column may hold for a bare `column <op> literal` to be
    exact; None for a literal that never is (NULL, a subclass, an int `float()` rounds).
    A `Param`'s constant is one that lifts (`repro.sql.shape`): plain, its class says."""
    if literal.__class__ is Param:
        return _EXACT_UNDER.get(literal.kind)
    return _EXACT_UNDER[type(literal)] if _is_plain(literal) else None


def compile_filter_passes(conjuncts, schema: RelSchema):
    """One `(position, admits, test, operand)` pass per conjunct, or None.

    A pass keeps the rows whose value at `position` is not NULL and makes the
    C-level `test(operand, value)` true. While every value of the column is
    of a type in `admits` that is the verdict of the `compile_expr` closure
    and cannot raise, so neither conjunct order nor error order can show.
    Only `column <op> literal` (either way round) and a plain `column IN
    (literals)` have a pass; any other conjunct leaves all to the closure.
    A `Param` operand is the run's to read.
    """
    passes = []
    for conjunct in conjuncts:
        comparison = column_vs_literal(conjunct)
        if comparison is not None:
            column, op, operand = comparison
            admits = exact_under(operand)
            test = _COMPARATORS[SWAPPED_COMPARISONS[op]]  # operand first
        elif (
            isinstance(conjunct, InList)
            and not conjunct.negated
            and isinstance(conjunct.operand, ColumnRef)
            and (probe := in_pass(conjunct.items)) is not None
        ):
            column = conjunct.operand
            admits, operand = probe
            test = operator.contains
        else:
            return None
        if admits is None:
            return None
        passes.append((schema.index_of(column.name, column.qualifier), admits, test, operand))
    return passes


def _compile_binary(expr: BinaryOp, schema: RelSchema) -> Callable:
    op = expr.op
    if op in ("AND", "OR"):
        left = compile_expr(expr.left, schema)
        right = compile_expr(expr.right, schema)
        if op == "AND":
            def evaluate_and(row):
                lhs = left(row)
                if lhs is False:
                    return False
                rhs = right(row)
                if rhs is False:
                    return False
                if lhs is None or rhs is None:
                    return None
                return bool(lhs) and bool(rhs)

            return evaluate_and

        def evaluate_or(row):
            lhs = left(row)
            if lhs is True or (lhs is not None and lhs):
                return True
            rhs = right(row)
            if rhs is not None and rhs:
                return True
            if lhs is None or rhs is None:
                return None
            return False

        return evaluate_or

    left = compile_expr(expr.left, schema)
    right = compile_expr(expr.right, schema)

    if op in _COMPARATORS:
        compare = _COMPARATORS[op]

        def evaluate_cmp(row):
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return None
            lhs, rhs = _align_numeric(lhs, rhs)
            try:
                return compare(lhs, rhs)
            except TypeError as exc:
                raise TypeMismatchError(
                    f"cannot compare {lhs!r} with {rhs!r}"
                ) from exc

        return evaluate_cmp

    if op == "||":
        def evaluate_concat(row):
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return None
            return str(lhs) + str(rhs)

        return evaluate_concat

    if op == "/":
        def evaluate_div(row):
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return None
            if rhs == 0:
                return None  # SQL engines vary; we take the forgiving path
            result = lhs / rhs
            return result

        return evaluate_div

    if op in _ARITHMETIC:
        arith = _ARITHMETIC[op]

        def evaluate_arith(row):
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return None
            try:
                return arith(lhs, rhs)
            except TypeError as exc:
                raise TypeMismatchError(
                    f"bad operands for {op}: {lhs!r}, {rhs!r}"
                ) from exc

        return evaluate_arith

    raise PlanError(f"unknown binary operator {op!r}")


def _float_exact(value: int) -> bool:
    return -_FLOAT_EXACT_INT <= value <= _FLOAT_EXACT_INT


def _is_plain(value) -> bool:
    """An exact builtin scalar; if an int, one that `float()` keeps exact."""
    kind = type(value)
    return kind in _PLAIN_TYPES and (kind is not int or _float_exact(value))


def in_pass(items):
    """``(admits, keys)`` of the filter pass of `column IN (items)`, None if
    the list has none (see `_literal_probe`); a `Param`'s keys are a run's."""
    if items.__class__ is Param:
        return _EXACT_IN, items
    probe = _literal_probe(items)
    if probe is None:
        return None
    keys, has_float, _ = probe
    return (_EXACT_IN - {int} if has_float else _EXACT_IN), keys


def _literal_probe(items):
    """`(keys, has_float, has_null)` for an IN-list a frozenset can answer.

    `value in keys` gives the verdict of the `_values_equal` loop when every
    item is a plain literal or NULL and none is NaN (which `in` would match by
    identity). Otherwise - a non-literal item, a subclass, an unhashable
    value, an int beyond ±2**53 - returns None: the list keeps the loop.
    """
    if items.__class__ is LiteralValues:
        values = items.values  # a bind join's keys: read as they are, no `Literal` made
    elif all(isinstance(item, Literal) for item in items):
        values = [item.value for item in items]
    else:
        return None
    keys = [value for value in values if value is not None]
    if not all(_is_plain(value) and value == value for value in keys):
        return None
    has_null = len(keys) < len(values)
    # from the list, not the set: `1` and `1.0` collapse into one key
    has_float = any(type(key) is float for key in keys)
    return frozenset(keys), has_float, has_null


def _values_equal(a, b) -> bool:
    a, b = _align_numeric(a, b)
    try:
        return a == b
    except TypeError:
        return False


def _align_numeric(a, b):
    """Convert the int side of an int/float pair to float.

    A bool on either side skips the conversion only: it still compares as the
    int it is, so `TRUE = 1` and `TRUE = 1.0` both hold.
    """
    if isinstance(a, bool) or isinstance(b, bool):
        return a, b
    if isinstance(a, int) and isinstance(b, float):
        return float(a), b
    if isinstance(a, float) and isinstance(b, int):
        return a, float(b)
    return a, b


@lru_cache(maxsize=512)
def _like_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern to an anchored regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out) + r"\Z", re.DOTALL)
