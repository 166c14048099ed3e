"""Scalar and aggregate function registries.

Wrappers consult `SCALAR_FUNCTIONS`/`AGGREGATE_FUNCTIONS` membership when
deciding whether an expression can be pushed to a source dialect. The local
engine calls a scalar per row through `call_scalar`, and an aggregate's fold
once per group: `AGGREGATE_FUNCTIONS` maps each name to the function folding
a group's non-NULL values, read as one list (`HashAggregateOp`).

Scalar functions follow SQL NULL semantics: any NULL argument yields NULL,
except COALESCE / IFNULL which exist to handle NULLs.
"""

from __future__ import annotations

import datetime
import math
from functools import reduce
from operator import add, iadd
from typing import Any, Callable

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


def remainder(a, b):
    """SQL's `a % b` (and MOD): the truncated remainder, which takes the
    dividend's sign (`-7 % 2` is -1); NULL for a zero divisor, as `/` gives."""
    if b == 0:
        return None
    if isinstance(a, float) or isinstance(b, float):
        return math.nan if math.isinf(a) else math.fmod(a, b)  # fmod refuses an infinite dividend
    magnitude = abs(a) % abs(b)
    return -magnitude if a < 0 else magnitude


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


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
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
    "MOD": remainder,
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
#
# A fold takes a group's non-NULL argument values, in row order (distinct
# ones, first appearances, under DISTINCT), as one list, and answers for the
# group: NULL over none, or 0 for COUNT. Each is one C-level sweep. Float
# SUM and AVG stay a left fold: never `sum()` or `fsum`, which 3.12 and
# `math` compensate.


def _sum(values):
    return reduce(add, values) if values else None


def _avg(values):
    return reduce(iadd, values, 0.0) / len(values) if values else None


def _min(values):
    return min(values) if values else None  # keeps the first of equal values


def _max(values):
    return max(values) if values else None


AGGREGATE_FUNCTIONS: dict[str, Callable[[list], Any]] = {
    "COUNT": len,
    "SUM": _sum,
    "AVG": _avg,
    "MIN": _min,
    "MAX": _max,
}


def is_aggregate_name(name: str) -> bool:
    return name.upper() in AGGREGATE_FUNCTIONS
