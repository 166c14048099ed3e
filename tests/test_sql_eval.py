"""Unit tests for expression compilation and SQL NULL semantics."""

import datetime

import pytest

from repro.common.errors import PlanError, TypeMismatchError
from repro.common.schema import Column, RelSchema
from repro.common.types import DataType
from repro.sql import compile_expr, compile_predicate, parse_expression
from repro.engine.physical import HashAggregateOp, ValuesOp
from repro.sql.functions import AGGREGATE_FUNCTIONS, call_scalar

SCHEMA = RelSchema.of(
    ("t.a", DataType.INT),
    ("t.b", DataType.STRING),
    ("t.c", DataType.FLOAT),
    ("t.d", DataType.DATE),
)

ROW = (5, "hello", 2.5, datetime.date(2005, 6, 14))
NULL_ROW = (None, None, None, None)


def ev(text, row=ROW):
    return compile_expr(parse_expression(text), SCHEMA)(row)


class TestArithmetic:
    def test_add(self):
        assert ev("a + 2") == 7

    def test_precedence(self):
        assert ev("a + 2 * 3") == 11

    def test_division_is_true_division(self):
        assert ev("a / 2") == 2.5

    def test_division_by_zero_is_null(self):
        assert ev("a / 0") is None

    def test_modulo(self):
        assert ev("a % 3") == 2

    def test_null_propagates(self):
        assert ev("a + 1", NULL_ROW) is None

    def test_type_error_raises(self):
        with pytest.raises(TypeMismatchError):
            ev("b + 1")


class TestComparison:
    def test_numeric_cross_type(self):
        assert ev("a = 5.0") is True

    def test_inequality(self):
        assert ev("a <> 4") is True

    def test_null_comparison_unknown(self):
        assert ev("a = 5", NULL_ROW) is None

    def test_date_comparison(self):
        assert ev("d > '2005-01-01'") is True

    def test_incomparable_raises(self):
        with pytest.raises(TypeMismatchError):
            ev("b > 3")


class TestLogic:
    def test_and_short_circuit_false(self):
        # NULL AND FALSE is FALSE in Kleene logic
        assert ev("(a = 5) AND (1 = 2)", NULL_ROW) is False

    def test_and_with_unknown(self):
        assert ev("(a = 5) AND (1 = 1)", NULL_ROW) is None

    def test_or_true_dominates_unknown(self):
        assert ev("(a = 5) OR (1 = 1)", NULL_ROW) is True

    def test_or_unknown(self):
        assert ev("(a = 5) OR (1 = 2)", NULL_ROW) is None

    def test_not_unknown_is_unknown(self):
        assert ev("NOT (a = 5)", NULL_ROW) is None

    def test_predicate_maps_unknown_to_false(self):
        predicate = compile_predicate(parse_expression("a = 5"), SCHEMA)
        assert predicate(NULL_ROW) is False
        assert predicate(ROW) is True


class TestPredicates:
    def test_in_list(self):
        assert ev("a IN (1, 5, 9)") is True

    def test_not_in(self):
        assert ev("a NOT IN (1, 9)") is True

    def test_in_with_null_item_unknown_when_missing(self):
        assert ev("a IN (1, NULL)") is None

    def test_in_found_despite_null(self):
        assert ev("a IN (5, NULL)") is True

    def test_literal_in_list_compiles_its_items_only_on_fallback(self, monkeypatch):
        """A bind join's IN-list is hundreds of literals the frozenset probe
        answers; their per-item closures are built by the first row that
        needs the per-item loop (an int `float()` would round), and once."""
        from repro.sql import eval as evaluator
        from repro.sql.ast import ColumnRef, InList, Literal

        compiled = []
        compile_one = evaluator.compile_expr
        monkeypatch.setattr(
            evaluator, "compile_expr",
            lambda expr, schema: compiled.append(expr) or compile_one(expr, schema),
        )
        schema = RelSchema.of(("v", DataType.ANY))
        keys = tuple(Literal(key) for key in range(399)) + (Literal(0.5),)
        fn = compile_one(InList(ColumnRef("v"), keys), schema)
        assert compiled == [ColumnRef("v")]
        assert fn((7,)) is True and fn((400,)) is False and fn((None,)) is None
        assert compiled == [ColumnRef("v")]
        assert fn((2**53 + 1,)) is False  # beyond the probe: visits every item
        assert compiled == [ColumnRef("v"), *keys]
        assert fn((2**53 + 3,)) is False
        assert len(compiled) == 401

    def test_like_percent(self):
        assert ev("b LIKE 'he%'") is True

    def test_like_underscore(self):
        assert ev("b LIKE 'h_llo'") is True

    def test_like_escapes_regex_chars(self):
        schema = RelSchema.of(("s", DataType.STRING))
        fn = compile_expr(parse_expression("s LIKE 'a.b'"), schema)
        assert fn(("axb",)) is False
        assert fn(("a.b",)) is True

    def test_not_like(self):
        assert ev("b NOT LIKE 'z%'") is True

    def test_between(self):
        assert ev("a BETWEEN 1 AND 10") is True
        assert ev("a NOT BETWEEN 6 AND 10") is True

    def test_between_incomparable_raises_typed(self):
        with pytest.raises(TypeMismatchError):
            ev("a BETWEEN 'a' AND 'z'")

    def test_like_on_non_string_raises_typed(self):
        with pytest.raises(TypeMismatchError):
            ev("a LIKE '5%'")

    def test_negating_non_number_raises_typed(self):
        with pytest.raises(TypeMismatchError):
            ev("-b")

    def test_is_null(self):
        assert ev("a IS NULL", NULL_ROW) is True
        assert ev("a IS NOT NULL") is True

    def test_case_when(self):
        assert ev("CASE WHEN a > 3 THEN 'big' ELSE 'small' END") == "big"

    def test_case_no_match_no_default(self):
        assert ev("CASE WHEN a > 100 THEN 1 END") is None

    def test_concat(self):
        assert ev("b || '!'") == "hello!"
        assert ev("b || '!'", NULL_ROW) is None


class TestFunctions:
    def test_upper_lower_length(self):
        assert ev("UPPER(b)") == "HELLO"
        assert ev("LOWER(UPPER(b))") == "hello"
        assert ev("LENGTH(b)") == 5

    def test_substr_is_one_based(self):
        assert ev("SUBSTR(b, 2, 3)") == "ell"
        assert ev("SUBSTR(b, 2)") == "ello"

    def test_round(self):
        assert ev("ROUND(c)") == 2
        assert ev("ROUND(c, 1)") == 2.5

    def test_date_parts(self):
        assert ev("YEAR(d)") == 2005
        assert ev("MONTH(d)") == 6
        assert ev("DAY(d)") == 14

    def test_coalesce(self):
        assert ev("COALESCE(a, 0)", NULL_ROW) == 0
        assert ev("COALESCE(a, 0)") == 5

    def test_null_propagation_in_scalars(self):
        assert ev("UPPER(b)", NULL_ROW) is None

    def test_unknown_function(self):
        with pytest.raises(TypeMismatchError):
            call_scalar("NO_SUCH_FN", [1])

    def test_aggregate_outside_aggregate_op_rejected(self):
        with pytest.raises(PlanError):
            compile_expr(parse_expression("SUM(a)"), SCHEMA)


class TestAggregates:
    """The folds of `AGGREGATE_FUNCTIONS`, fed as `HashAggregateOp` feeds them:
    one group's column, its NULLs dropped and, under DISTINCT, its repeats."""

    def feed(self, name, values, distinct=False):
        column = ValuesOp(RelSchema([Column("v", DataType.ANY)]), [(value,) for value in values])
        schema = RelSchema([Column("a", DataType.ANY)])
        op = HashAggregateOp(column, None, [(name, distinct, 0)], schema)
        assert op.folds[0][0] is AGGREGATE_FUNCTIONS[name]
        ((answer,),) = op.run()
        return answer

    def test_count_skips_nulls(self):
        assert self.feed("COUNT", [1, None, 2]) == 2

    def test_sum(self):
        assert self.feed("SUM", [1, 2, None]) == 3

    def test_sum_all_null_is_null(self):
        assert self.feed("SUM", [None, None]) is None

    def test_avg(self):
        assert self.feed("AVG", [2, 4]) == 3.0

    def test_avg_empty_is_null(self):
        assert self.feed("AVG", []) is None

    def test_min_max(self):
        assert self.feed("MIN", [3, 1, 2]) == 1
        assert self.feed("MAX", [3, 1, 2]) == 3

    def test_distinct_sum(self):
        assert self.feed("SUM", [1, 1, 2, 2], distinct=True) == 3

    def test_distinct_count(self):
        assert self.feed("COUNT", ["a", "a", "b", None], distinct=True) == 2
