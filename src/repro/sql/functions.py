"""Scalar and aggregate function registries.

Wrappers consult `SCALAR_FUNCTIONS`/`AGGREGATE_FUNCTIONS` membership when
deciding whether an expression can be pushed to a source dialect; the local
engine uses the implementations directly.

Scalar functions follow SQL NULL semantics: any NULL argument yields NULL,
except COALESCE / IFNULL which exist to handle NULLs.
"""

from __future__ import annotations

import datetime
import math

from repro.common.errors import TypeMismatchError

_NULL_TOLERANT = {"COALESCE", "IFNULL"}


def _upper(s):
    return s.upper()


def _lower(s):
    return s.lower()


def _length(s):
    return len(s)


def _abs(x):
    return abs(x)


def _round(x, digits=0):
    result = round(x, int(digits))
    return result if digits else int(result)


def _floor(x):
    return math.floor(x)


def _ceil(x):
    return math.ceil(x)


def _substr(s, start, length=None):
    # SQL SUBSTR is 1-based; negative/zero starts clamp to the beginning.
    begin = max(int(start) - 1, 0)
    if length is None:
        return s[begin:]
    return s[begin : begin + max(int(length), 0)]


def _trim(s):
    return s.strip()


def _concat(*parts):
    return "".join(str(part) for part in parts)


def _replace(s, old, new):
    return s.replace(old, new)


def _year(d: datetime.date):
    return d.year


def _month(d: datetime.date):
    return d.month


def _day(d: datetime.date):
    return d.day


def _coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


def _ifnull(value, default):
    return default if value is None else value


def _mod(a, b):
    return a % b


def _power(a, b):
    return a ** b


def _sqrt(x):
    return math.sqrt(x)


def _sign(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


SCALAR_FUNCTIONS = {
    "UPPER": _upper,
    "LOWER": _lower,
    "LENGTH": _length,
    "ABS": _abs,
    "ROUND": _round,
    "FLOOR": _floor,
    "CEIL": _ceil,
    "SUBSTR": _substr,
    "SUBSTRING": _substr,
    "TRIM": _trim,
    "CONCAT": _concat,
    "REPLACE": _replace,
    "YEAR": _year,
    "MONTH": _month,
    "DAY": _day,
    "COALESCE": _coalesce,
    "IFNULL": _ifnull,
    "MOD": _mod,
    "POWER": _power,
    "SQRT": _sqrt,
    "SIGN": _sign,
}


def propagates_null(name: str) -> bool:
    """Whether scalar function `name` yields NULL for any NULL argument."""
    name = name.upper()
    return name in SCALAR_FUNCTIONS and name not in _NULL_TOLERANT


def call_scalar(name: str, args: list):
    """Invoke a scalar function with SQL NULL propagation."""
    func = SCALAR_FUNCTIONS.get(name)
    if func is None:
        raise TypeMismatchError(f"unknown scalar function {name!r}")
    if name not in _NULL_TOLERANT and any(arg is None for arg in args):
        return None
    try:
        return func(*args)
    except (TypeError, AttributeError) as exc:
        raise TypeMismatchError(f"{name} got invalid arguments {args!r}") from exc


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


class Aggregate:
    """Incremental aggregate: add values one at a time, then finish().

    NULLs are skipped per SQL semantics (except COUNT(*) which is handled by
    the engine feeding a non-NULL marker).
    """

    def add(self, value) -> None:
        raise NotImplementedError

    def finish(self):
        raise NotImplementedError


class CountAgg(Aggregate):
    def __init__(self):
        self.count = 0

    def add(self, value):
        if value is not None:
            self.count += 1

    def finish(self):
        return self.count


class SumAgg(Aggregate):
    def __init__(self):
        self.total = None

    def add(self, value):
        if value is None:
            return
        self.total = value if self.total is None else self.total + value

    def finish(self):
        return self.total


class AvgAgg(Aggregate):
    def __init__(self):
        self.total = 0.0
        self.count = 0

    def add(self, value):
        if value is None:
            return
        self.total += value
        self.count += 1

    def finish(self):
        return self.total / self.count if self.count else None


class MinAgg(Aggregate):
    def __init__(self):
        self.best = None

    def add(self, value):
        if value is None:
            return
        if self.best is None or value < self.best:
            self.best = value

    def finish(self):
        return self.best


class MaxAgg(Aggregate):
    def __init__(self):
        self.best = None

    def add(self, value):
        if value is None:
            return
        if self.best is None or value > self.best:
            self.best = value

    def finish(self):
        return self.best


class DistinctAgg(Aggregate):
    """Wraps another aggregate, feeding it each distinct value once."""

    def __init__(self, inner: Aggregate):
        self.inner = inner
        self.seen: set = set()

    def add(self, value):
        if value is None or value in self.seen:
            return
        self.seen.add(value)
        self.inner.add(value)

    def finish(self):
        return self.inner.finish()


AGGREGATE_FUNCTIONS = {
    "COUNT": CountAgg,
    "SUM": SumAgg,
    "AVG": AvgAgg,
    "MIN": MinAgg,
    "MAX": MaxAgg,
}


def is_aggregate_name(name: str) -> bool:
    return name.upper() in AGGREGATE_FUNCTIONS


def make_aggregate(name: str, distinct: bool = False) -> Aggregate:
    cls = AGGREGATE_FUNCTIONS.get(name.upper())
    if cls is None:
        raise TypeMismatchError(f"unknown aggregate {name!r}")
    agg = cls()
    return DistinctAgg(agg) if distinct else agg
