"""Table and column statistics for cost-based optimization.

Per column: null fraction, number of distinct values, min/max for orderable
types, and an equi-depth histogram; per table: row count and the average
wire size of a sampled row. They are read off a `Tally` - per column a value
`Counter`, the count of each exact type and the sorted non-null values, per
row slot its `row_size` - and a write can update a tally exactly, so a
`Table` written after its statistics were read keeps one and stops sweeping
its heap (`TableStats.collect` tallies rows once and reads the tally). They
are exact, not approximate, because sim seconds are priced from them. The
selectivity estimators follow the classical System-R conventions with
histogram refinement where one is available.
"""

from __future__ import annotations

import datetime
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import eq, is_not, itemgetter
from typing import Optional, Sequence, cast

from repro.common.errors import TypeMismatchError
from repro.common.types import row_size, row_sizes

DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.25
HISTOGRAM_BUCKETS = 16


@dataclass
class Histogram:
    """Equi-depth histogram: bucket boundaries plus per-bucket row count."""

    boundaries: list  # len == buckets + 1; boundaries[i] <= bucket i < boundaries[i+1]
    counts: list

    @property
    def total(self) -> int:
        return sum(self.counts)

    def fraction_below(self, value) -> float:
        """Estimated fraction of (non-null) values strictly below `value`."""
        if not self.counts or self.total == 0:
            return DEFAULT_RANGE_SELECTIVITY
        below = 0.0
        for i, count in enumerate(self.counts):
            low, high = self.boundaries[i], self.boundaries[i + 1]
            if value <= low:
                break
            if value >= high:
                below += count
                continue
            # partial bucket: linear interpolation where the domain allows it
            try:
                span = high - low
                fraction = (value - low) / span if span else 0.5
            except TypeError:
                fraction = 0.5
            below += count * fraction
            break
        return min(max(below / self.total, 0.0), 1.0)


@dataclass
class ColumnStats:
    name: str
    null_fraction: float = 0.0
    distinct: int = 1
    min_value: object = None
    max_value: object = None
    histogram: Optional[Histogram] = None

    def eq_selectivity(self, value=None) -> float:
        """Selectivity of `col = value` (value optional)."""
        if self.distinct <= 0:
            return DEFAULT_EQ_SELECTIVITY
        base = (1.0 - self.null_fraction) / self.distinct
        if value is not None and self.min_value is not None:
            try:
                if value < self.min_value or value > self.max_value:
                    return 0.0
            except TypeError:
                pass
        return min(base, 1.0)

    def range_selectivity(self, op: str, value) -> float:
        """Selectivity of `col <op> value` for <, <=, >, >=."""
        if self.histogram is not None and value is not None:
            below = self.histogram.fraction_below(value)
            at = self.eq_selectivity(value)
            if op == "<":
                sel = below
            elif op == "<=":
                sel = below + at
            elif op == ">":
                sel = 1.0 - below - at
            else:  # >=
                sel = 1.0 - below
            return min(max(sel * (1.0 - self.null_fraction), 0.0), 1.0)
        return DEFAULT_RANGE_SELECTIVITY


@dataclass
class TableStats:
    row_count: int = 0
    columns: dict = field(default_factory=dict)  # name(lower) -> ColumnStats
    avg_row_bytes: int = 64

    @classmethod
    def collect(cls, schema, rows: Sequence[tuple]) -> "TableStats":
        """Compute full statistics over materialized rows."""
        return Tally(schema, rows).stats(rows)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())

    def scaled(self, factor: float) -> "TableStats":
        """Stats for a filtered subset (used to propagate cardinalities)."""
        scaled = TableStats(
            row_count=max(int(self.row_count * factor), 0),
            avg_row_bytes=self.avg_row_bytes,
        )
        for name, col in self.columns.items():
            scaled.columns[name] = ColumnStats(
                name=col.name,
                null_fraction=col.null_fraction,
                distinct=max(min(col.distinct, scaled.row_count), 1),
                min_value=col.min_value,
                max_value=col.max_value,
                histogram=col.histogram,
            )
        return scaled


#: the kinds a column may mix and still order
_NUMBERS = frozenset({int, float})
#: exact types whose equal values are indistinguishable: where one sits
#: among its equals in a sorted column cannot change what is read off it
_PLAIN = frozenset({int, str, bytes, datetime.date})


def _orders(kinds) -> bool:
    """Whether a column holding `kinds` (exact types, no NULL) sorts: only
    non-bool numbers, or one kind that is not bool. Decided by the set, so
    it does not depend on which value comes first."""
    return kinds.keys() <= _NUMBERS or (len(kinds) == 1 and bool not in kinds)


class ColumnTally:
    """One column's values in the form its statistics are read off and a
    write can update: a `Counter` of the non-null values (None when one is
    unhashable), the NULL count, a `Counter` of their exact types, and the
    non-null values in sorted order (None when the kinds do not order, or
    when values of one kind do not compare, as complex numbers do not)."""

    __slots__ = ("counts", "nulls", "kinds", "ordered", "kept")

    def __init__(self, values: list):
        kinds = Counter(map(type, values))
        self.nulls = kinds.pop(type(None), 0)
        self.kinds = kinds
        present = [value for value in values if value is not None] if self.nulls else values
        try:
            self.counts: Optional[Counter] = Counter(present)
        except TypeError:
            self.counts = None
        #: whether a write can keep it exact: every value hashes and sorts,
        #: and none is NaN, which sorts wherever the heap order put it
        self.kept = self.counts is not None and (
            kinds.keys() <= _PLAIN or all(map(eq, self.counts, self.counts))
        )
        try:
            self.ordered: Optional[list] = sorted(present) if _orders(kinds) else None
        except TypeError:  # of one kind, but they do not compare: unorderable
            self.ordered, self.kept = None, False

    def add(self, value, last: bool) -> bool:
        """Count `value` in - a new last row when `last` - or say (False)
        that the tally cannot stay exact and must be built again."""
        if not self.kept:
            return False
        if value is None:
            self.nulls += 1
            return True
        if value != value:
            return False
        try:
            cast(Counter, self.counts)[value] += 1  # kept: every value so far hashed
        except TypeError:
            return False
        kinds = self.kinds
        kinds[type(value)] += 1
        ordered = self.ordered
        if ordered is None:
            return True
        if not _orders(kinds):
            self.ordered = None
            return True
        try:
            at = bisect_right(ordered, value)  # after its equals: a stable sort's place for a last row
            among_equals = at and not ordered[at - 1] < value
        except TypeError:  # of one kind, but they do not compare
            return False
        if among_equals and not last and not (len(kinds) == 1 and type(value) in _PLAIN):
            return False  # its place among equals it can be told from follows heap order
        ordered.insert(at, value)
        return True

    def remove(self, value) -> bool:
        """Count `value` out, or say (False) that the tally cannot stay exact."""
        if not self.kept:
            return False
        if value is None:
            self.nulls -= 1
            return True
        kinds, kind = self.kinds, type(value)
        plain = len(kinds) == 1 and kind in _PLAIN
        _count_out(cast(Counter, self.counts), value)
        _count_out(kinds, kind)
        ordered = self.ordered
        if ordered is None:
            return not _orders(kinds)  # the last value that kept it unordered went
        at = bisect_left(ordered, value)
        if not plain and bisect_right(ordered, value) - at > 1:
            return False  # which of its equals goes depends on heap order
        del ordered[at]
        return True

    def stats(self, name: str, rows: int) -> ColumnStats:
        if not rows:
            return ColumnStats(name=name)
        present = rows - self.nulls
        counts, ordered = self.counts, self.ordered
        distinct = len(counts) if counts is not None else max(present // 2, 1)
        stats = ColumnStats(
            name=name,
            null_fraction=1.0 - present / rows,
            distinct=max(distinct, 1),
        )
        if ordered:
            stats.min_value = ordered[0]
            stats.max_value = ordered[-1]
            stats.histogram = _equi_depth(ordered)
        return stats


class Tally:
    """A table's rows in the form its statistics are read off: a
    `ColumnTally` per column and each row slot's `row_size` (None for a
    tombstone or a row `row_size` cannot price). `slots` may hold `None`
    tombstones; `add` and `remove` follow a write to one slot, and a column
    they cannot keep exact is tallied again from the slots when read."""

    __slots__ = ("schema", "rows", "sizes", "unsized", "columns", "stale")

    def __init__(self, schema, slots: Sequence):
        live = _live(slots)
        self.schema = schema
        self.rows = len(live)
        columns = [list(map(itemgetter(at), live)) for at in range(len(schema))]
        self.columns = list(map(ColumnTally, columns))
        try:
            sizes = row_sizes(columns, self.rows)
        except (TypeMismatchError, UnicodeEncodeError):  # a row it cannot price
            sizes = list(map(_sized, live))
        if len(slots) != self.rows:  # tombstones keep their slots
            sized = iter(sizes)
            sizes = [None if row is None else next(sized) for row in slots]
        self.sizes = sizes
        self.unsized = sizes.count(None) - (len(slots) - self.rows)
        self.stale: set = set()  # columns to tally again before a read

    def add(self, rid: int, row: tuple) -> None:
        """`row` was put in slot `rid`, a new last slot when past the end."""
        sizes, last = self.sizes, rid == len(self.sizes)
        size = _sized(row)
        if last:
            sizes.append(size)
        else:
            sizes[rid] = size
        self.unsized += size is None
        self.rows += 1
        stale = self.stale
        for at, (column, value) in enumerate(zip(self.columns, row)):
            if at not in stale and not column.add(value, last):
                stale.add(at)

    def remove(self, rid: int, row: tuple) -> None:
        """`row` left slot `rid`."""
        self.unsized -= self.sizes[rid] is None
        self.sizes[rid] = None
        self.rows -= 1
        stale = self.stale
        for at, (column, value) in enumerate(zip(self.columns, row)):
            if at not in stale and not column.remove(value):
                stale.add(at)

    def stats(self, slots: Sequence) -> TableStats:
        """The statistics of `slots` - the rows tallied, as updated since."""
        if self.stale:
            live = _live(slots)
            for at in self.stale:
                self.columns[at] = ColumnTally(list(map(itemgetter(at), live)))
            self.stale.clear()
        rows = self.rows
        stats = TableStats(row_count=rows)
        if rows:
            stats.avg_row_bytes = self._avg_row_bytes(slots)
        for column, tally in zip(self.schema, self.columns):
            stats.columns[column.name.lower()] = tally.stats(column.name, rows)
        return stats

    def _avg_row_bytes(self, slots: Sequence) -> int:
        """The mean `row_size` of every `rows // 1000`-th live row."""
        step = max(self.rows // 1000, 1)
        if self.unsized:  # price the sample again: raises if it holds such a row
            rows = _live(slots)[::step]
            return max(sum(map(row_size, rows)) // len(rows), 1)
        sizes = self.sizes
        if len(sizes) != self.rows:
            sizes = [size for size in sizes if size is not None]
        sampled = sizes[::step]
        return max(sum(sampled) // len(sampled), 1)


def _count_out(counter: Counter, key) -> None:
    if counter[key] == 1:
        del counter[key]
    else:
        counter[key] -= 1


def _live(slots: Sequence) -> list:
    return list(compress(slots, map(is_not, slots, repeat(None))))


def _sized(row: tuple) -> Optional[int]:
    try:
        return row_size(row)
    except (TypeMismatchError, UnicodeEncodeError):
        return None


def _equi_depth(ordered: list, buckets: int = HISTOGRAM_BUCKETS) -> Histogram:
    n = len(ordered)
    buckets = min(buckets, n) or 1
    boundaries = [ordered[0]]
    counts = []
    step = n / buckets
    start = 0
    for b in range(buckets):
        end = int(round((b + 1) * step))
        end = max(end, start + 1)
        end = min(end, n)
        counts.append(end - start)
        boundaries.append(ordered[end - 1] if end == n else ordered[end])
        start = end
        if start >= n:
            break
    # Drop empty trailing buckets introduced by rounding.
    counts = [c for c in counts if c > 0]
    boundaries = boundaries[: len(counts) + 1]
    return Histogram(boundaries=boundaries, counts=counts)
