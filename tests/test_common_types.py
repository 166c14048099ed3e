"""Unit tests for the value type system and the wire-size model."""

import datetime

import pytest

from repro.common.errors import TypeMismatchError
from repro.common.types import (
    DataType,
    coerce_value,
    infer_type,
    row_size,
    value_size,
)


class TestInferType:
    def test_int(self):
        assert infer_type(7) is DataType.INT

    def test_bool_not_int(self):
        assert infer_type(True) is DataType.BOOL

    def test_float(self):
        assert infer_type(1.5) is DataType.FLOAT

    def test_string(self):
        assert infer_type("x") is DataType.STRING

    def test_date(self):
        assert infer_type(datetime.date(2005, 6, 14)) is DataType.DATE

    def test_none_is_any(self):
        assert infer_type(None) is DataType.ANY

    def test_unsupported_raises(self):
        with pytest.raises(TypeMismatchError):
            infer_type(object())


class TestCoerce:
    def test_identity(self):
        assert coerce_value(3, DataType.INT) == 3

    def test_none_passes_any_type(self):
        assert coerce_value(None, DataType.INT) is None

    def test_int_widens_to_float(self):
        result = coerce_value(3, DataType.FLOAT)
        assert result == 3.0
        assert isinstance(result, float)

    def test_string_to_int(self):
        assert coerce_value(" 42 ", DataType.INT) == 42

    def test_string_to_float(self):
        assert coerce_value("2.5", DataType.FLOAT) == 2.5

    def test_string_to_bool_true_variants(self):
        for text in ("true", "T", "1", "yes", "Y"):
            assert coerce_value(text, DataType.BOOL) is True

    def test_string_to_bool_false_variants(self):
        for text in ("false", "F", "0", "no", "N"):
            assert coerce_value(text, DataType.BOOL) is False

    def test_string_to_date(self):
        assert coerce_value("2005-06-14", DataType.DATE) == datetime.date(2005, 6, 14)

    def test_value_to_string(self):
        assert coerce_value(True, DataType.STRING) == "true"
        assert coerce_value(datetime.date(2005, 6, 14), DataType.STRING) == "2005-06-14"
        assert coerce_value(12, DataType.STRING) == "12"

    def test_bad_parse_raises(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("not-a-number", DataType.INT)

    def test_float_to_int_rejected(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(1.5, DataType.INT)

    def test_any_accepts_everything(self):
        assert coerce_value([1], DataType.ANY) == [1]


class TestAccepts:
    def test_same_type(self):
        assert DataType.INT.accepts(DataType.INT)

    def test_float_accepts_int(self):
        assert DataType.FLOAT.accepts(DataType.INT)

    def test_int_rejects_float(self):
        assert not DataType.INT.accepts(DataType.FLOAT)

    def test_any_accepts_all(self):
        assert DataType.ANY.accepts(DataType.STRING)
        assert DataType.STRING.accepts(DataType.ANY)


class TestWireSizes:
    def test_null_costs_only_framing(self):
        assert value_size(None) == 2

    def test_int_fixed(self):
        assert value_size(5) == 10

    def test_string_length_dependent(self):
        assert value_size("abcd") == 2 + 4

    def test_unicode_counts_bytes_not_chars(self):
        assert value_size("é") == 2 + 2

    def test_row_size_sums(self):
        assert row_size((5, "abcd", None)) == 10 + 6 + 2

    @pytest.mark.parametrize(
        "value, expected",
        [
            (None, 2),
            (True, 2 + 1),
            (7, 2 + 8),
            (2**70, 2 + 8),
            (1.5, 2 + 8),
            ("abcd", 2 + 4),
            ("naïve €", 2 + 10),
            (datetime.date(2005, 6, 14), 2 + 8),
            (datetime.datetime(2005, 6, 14, 12, 30), 2 + 8),  # a date subclass
        ],
    )
    def test_value_size_of_every_supported_type(self, value, expected):
        assert value_size(value) == expected
        assert row_size((value, value)) == 2 * expected

    def test_subclasses_size_as_their_base(self):
        class Code(str):
            pass

        class Count(int):
            pass

        assert value_size(Code("é")) == 2 + 2
        assert value_size(Count(3)) == 2 + 8

    def test_unsupported_type_still_raises(self):
        with pytest.raises(TypeMismatchError):
            value_size(object())
        with pytest.raises(TypeMismatchError):
            row_size((1, [2]))
