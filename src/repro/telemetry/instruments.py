"""Typed metric instruments and the registry that owns them.

Three instrument kinds, deliberately mirroring the Prometheus data model
so the text-exposition exporter is a straight rendering:

* `MonotonicCounter` — only ever goes up (retries, fetches, bytes);
* `Gauge` — a settable level (queue depth, breaker state, free workers);
* `Histogram` — fixed cumulative buckets plus sum/count (latencies).

Instruments are identified by ``(name, sorted label items)``; the
registry hands out one instance per identity, so every call site that
says ``registry.counter("eii_fetches_total", source="crm")`` shares one
counter. All iteration orders are sorted — exports are deterministic by
construction, never by accident of insertion order.
"""

from __future__ import annotations

import bisect
import copy
import math
from typing import Iterable, Optional, Tuple

from repro.telemetry.stats import safe_rate

LabelItems = Tuple[Tuple[str, str], ...]

#: Default latency buckets (simulated seconds). Chosen for the repo's
#: netsim scale: sub-millisecond cache hits up to multi-second stragglers.
DEFAULT_LATENCY_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _labels(labels: dict) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Instrument:
    """Common identity plumbing for all instrument kinds."""

    kind = "instrument"

    def __init__(self, name: str, labels: LabelItems, description: str = ""):
        self.name = name
        self.labels = labels
        self.description = description

    @property
    def key(self) -> tuple:
        return (self.name, self.labels)

    def label_string(self) -> str:
        if not self.labels:
            return ""
        return "{" + ",".join(f'{k}="{v}"' for k, v in self.labels) + "}"

    def value(self):
        raise NotImplementedError

    def snapshot(self):
        """JSON-safe value for time-series windows (overridden as needed)."""
        return self.value()

    def __repr__(self):
        return f"{type(self).__name__}({self.name}{self.label_string()}={self.value()!r})"


class MonotonicCounter(Instrument):
    """A counter that only increases; negative increments are rejected."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems, description: str = ""):
        super().__init__(name, labels, description)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc({amount!r}))"
            )
        self._value += amount

    def value(self) -> float:
        return self._value


class Gauge(Instrument):
    """A level that may move in either direction."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems, description: str = ""):
        super().__init__(name, labels, description)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def add(self, amount: float) -> None:
        self._value += amount

    def value(self) -> float:
        return self._value


class Histogram(Instrument):
    """Fixed-bucket cumulative histogram (Prometheus-style le buckets).

    `observe` is O(log buckets); the per-bucket counts are *cumulative*
    at export time (each bucket counts observations ≤ its bound, with an
    implicit +Inf bucket equal to `count`). `quantile` reports the upper
    bound of the bucket where the cumulative count crosses the rank — the
    standard fixed-bucket estimate: cheap, deterministic, and honest
    about its resolution.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        description: str = "",
        buckets: Optional[Iterable[float]] = None,
    ):
        super().__init__(name, labels, description)
        bounds = tuple(sorted(set(buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS)))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        self.bounds = bounds
        self._bucket_counts = [0] * len(bounds)  # per-bucket, not cumulative
        self.count = 0
        self.sum = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value > self._max:
            self._max = value
        index = bisect.bisect_left(self.bounds, value)
        if index < len(self._bucket_counts):
            self._bucket_counts[index] += 1
        # values above the last bound land only in the implicit +Inf bucket

    def cumulative_buckets(self) -> list:
        """``[(le_bound, cumulative_count), ...]`` ending at +Inf."""
        out = []
        running = 0
        for bound, bucket_count in zip(self.bounds, self._bucket_counts):
            running += bucket_count
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def quantile(self, fraction: float) -> float:
        """Upper bucket bound holding the nearest-rank quantile (0 empty)."""
        if self.count == 0:
            return 0.0
        if fraction >= 1.0:
            return self._max
        rank = max(1, math.ceil(fraction * self.count))
        running = 0
        for bound, bucket_count in zip(self.bounds, self._bucket_counts):
            running += bucket_count
            if running >= rank:
                return bound
        return self._max  # beyond the last bound: report the observed max

    @property
    def mean(self) -> float:
        return safe_rate(self.sum, self.count)

    @property
    def max(self) -> float:
        return self._max

    def value(self) -> float:
        return self.sum

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "max": round(self._max, 9),
            "p50": round(self.quantile(0.50), 9),
            "p95": round(self.quantile(0.95), 9),
        }

    def copy(self) -> "Histogram":
        twin = copy.copy(self)
        twin._bucket_counts = list(self._bucket_counts)
        return twin


def counter_at(name: str, value: float, description: str = "", **labels) -> MonotonicCounter:
    """A counter standing at `value`, as a read-time source reports one."""
    counter = MonotonicCounter(name, _labels(labels), description)
    counter.inc(value)
    return counter


class MetricsRegistry:
    """The single home of every instrument in one telemetry plane: those written
    here, and those a collector (the Prometheus client's custom-collector
    pattern) computes from a record kept elsewhere when read."""

    def __init__(self):
        self._instruments: dict[tuple, Instrument] = {}
        self._collectors: list = []

    def register_collector(self, collect) -> None:
        """Every read below also sees `collect()`'s instruments, computed then."""
        self._collectors.append(collect)

    def _all(self) -> dict:
        merged = dict(self._instruments)
        for collect in self._collectors:
            merged.update((instrument.key, instrument) for instrument in collect())
        return merged

    def _get(self, cls, name: str, labels: dict, description: str, **kwargs):
        key = (name, _labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1], description=description, **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as {instrument.kind}, "
                f"requested as {cls.kind}"
            )
        return instrument

    def counter(self, name: str, description: str = "", **labels) -> MonotonicCounter:
        return self._get(MonotonicCounter, name, labels, description)

    def gauge(self, name: str, description: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, labels, description)

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Optional[Iterable[float]] = None,
        **labels,
    ) -> Histogram:
        return self._get(Histogram, name, labels, description, buckets=buckets)

    # -- introspection -----------------------------------------------------------

    def instruments(self) -> list:
        """Every instrument, sorted by (name, labels) for stable exports."""
        instruments = self._all()
        return [instruments[key] for key in sorted(instruments)]

    def families(self) -> list:
        """Instruments grouped by metric name (Prometheus families)."""
        out: dict[str, list] = {}
        for instrument in self.instruments():
            out.setdefault(instrument.name, []).append(instrument)
        return sorted(out.items())

    def get(self, name: str, **labels) -> Optional[Instrument]:
        return self._all().get((name, _labels(labels)))

    def snapshot(self) -> dict:
        """Flat ``{"name{labels}": value}`` map of every instrument."""
        return {
            instrument.name + instrument.label_string(): instrument.snapshot()
            for instrument in self.instruments()
        }

    def __len__(self) -> int:
        return len(self._all())


__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsRegistry",
    "MonotonicCounter",
    "counter_at",
]
