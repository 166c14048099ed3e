"""Metrics collection for federated execution.

Every remote interaction of the federation layer funnels through
`MetricsCollector.record_transfer` / `record_source_query(_queries)`, which
the benchmark harness reads to report bytes shipped, rows moved, per-source
query counts and simulated elapsed time. The cache hierarchy reports its
per-query telemetry (plan/fetch hits, work saved) through the same
collector so EXPLAIN output and benchmarks see one coherent account.

A `MetricsCollector` is **single-writer** by contract: it is not locked,
so exactly one thread may mutate it. The federated engine honors this by
giving each query its own collectors, written and merged on the thread that
runs the query. `bind_owner()` turns the contract into a checked
assertion (debug-only; zero cost when unbound), and the race sanitizer
(`repro.analysis.concurrency.sanitizer`) binds it automatically, turning
a cross-thread write into an EII507 diagnostic instead of silent loss.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from functools import reduce
from itertools import repeat
from operator import add
from typing import Callable, Optional

from repro.netsim.network import NetworkModel, WireFormat

#: when set (by the sanitizer), called with (collector, writer_thread)
#: instead of raising — lets the checker report rather than crash
_OWNER_VIOLATION_HOOK: Optional[Callable] = None


@dataclass
class TransferRecord:
    src: str
    dst: str
    rows: int
    payload_bytes: int
    wire_bytes: int
    seconds: float
    description: str = ""


@dataclass
class MetricsCollector:
    """Accumulates federation-side counters for one query (or one run)."""

    network: NetworkModel = field(default_factory=NetworkModel)
    transfers: list = field(default_factory=list)
    source_queries: Counter = field(default_factory=Counter)
    simulated_seconds: float = 0.0
    rows_shipped: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    # cache telemetry (populated by the cache hierarchy / federated engine)
    plan_cache_hits: int = 0
    fetch_cache_hits: int = 0
    fetch_cache_misses: int = 0
    result_cache_hits: int = 0
    cache_seconds_saved: float = 0.0
    cache_bytes_saved: int = 0
    # resilience telemetry (populated by the federation resilience layer)
    retries: int = 0
    backoff_seconds: float = 0.0
    source_failures: int = 0
    breaker_short_circuits: int = 0
    failovers: int = 0
    degraded_fetches: int = 0
    stale_cache_hits: int = 0
    # adaptive-execution telemetry (populated by the federated engine)
    replans: int = 0
    lpt_reorders: int = 0
    # answering-queries-using-views telemetry (populated by the engine's
    # view-answering path; absent from summary() when views are off)
    view_hits: int = 0
    view_stale_serves: int = 0
    view_fallbacks: int = 0

    def __post_init__(self):
        # not a dataclass field on purpose: merge()/reset() iterate fields
        # generically and must never sum or zero the owner binding
        self.owner_thread: Optional[threading.Thread] = None

    def bind_owner(self, thread: Optional[threading.Thread] = None) -> "MetricsCollector":
        """Restrict mutation to `thread` (default: the calling thread).

        Debug mode only — unbound collectors (the default) skip the check
        entirely. Violations raise AssertionError, or report through
        `_OWNER_VIOLATION_HOOK` when the race sanitizer is active.
        """
        self.owner_thread = thread if thread is not None else threading.current_thread()
        return self

    def unbind_owner(self) -> None:
        self.owner_thread = None

    def _check_owner(self) -> None:
        owner = self.owner_thread
        if owner is None or owner is threading.current_thread():
            return
        if _OWNER_VIOLATION_HOOK is not None:
            _OWNER_VIOLATION_HOOK(self, threading.current_thread())
            return
        raise AssertionError(
            f"MetricsCollector bound to {owner.name!r} mutated from "
            f"{threading.current_thread().name!r}: collectors are "
            "single-writer — give the worker its own collector and merge "
            "on the coordinator"
        )

    def record_transfer(
        self,
        src: str,
        dst: str,
        rows: int,
        payload_bytes: int,
        wire_format: WireFormat = WireFormat.BINARY,
        description: str = "",
    ) -> float:
        """Charge one transfer and return its simulated duration."""
        self._check_owner()
        seconds = self.network.transfer_seconds(src, dst, payload_bytes, wire_format)
        on_wire = self.network.wire_bytes(src, dst, payload_bytes, wire_format)
        self.transfers.append(
            TransferRecord(src, dst, rows, payload_bytes, on_wire, seconds, description)
        )
        self.simulated_seconds += seconds
        self.rows_shipped += rows
        self.payload_bytes += payload_bytes
        self.wire_bytes += on_wire
        return seconds

    def record_source_query(self, source: str, seconds: float = 0.0) -> None:
        """Count a component query against `source`, charging execution time."""
        self._check_owner()
        self.source_queries[source] += 1
        self.simulated_seconds += seconds

    def record_source_queries(self, source: str, seconds: float, count: int) -> None:
        """`count` component queries against `source`, each charging `seconds`:
        what `count` calls of `record_source_query` record, to the bit (the
        seconds are added one at a time, in order, not multiplied)."""
        self._check_owner()
        if count:
            self.source_queries[source] += count
            self.simulated_seconds = reduce(add, repeat(seconds, count), self.simulated_seconds)

    def charge_seconds(self, seconds: float) -> None:
        """Charge local (assembly-site) processing time."""
        self._check_owner()
        self.simulated_seconds += seconds

    def total_source_queries(self) -> int:
        return sum(self.source_queries.values())

    @classmethod
    def _counter_kinds(cls) -> tuple:
        """`(name, kind)` of every field `merge()` / `reset()` handle, read
        from `fields(cls)` once per class (a subclass resolves its own): kind
        is list, Counter, float or int by the field's default; the network
        model and any other kind of field are left alone."""
        kinds = cls.__dict__.get("_kinds")
        if kinds is None:
            found = []
            for spec in fields(cls):
                sample = spec.default if spec.default is not MISSING else spec.default_factory()
                kind = next((k for k in (list, Counter, float, int) if isinstance(sample, k)), None)
                if kind is not None:
                    found.append((spec.name, kind))
            cls._kinds = kinds = tuple(found)
        return kinds

    @classmethod
    def _merged(cls) -> tuple:
        """``(lists, counters, numbers)``: `merge()`'s field names by kind, once per class."""
        merged = cls.__dict__.get("_merging")
        if merged is None:
            kinds = cls._counter_kinds()
            lists, counters = ([name for name, kind in kinds if kind is k] for k in (list, Counter))
            numbers = [name for name, kind in kinds if kind is not list and kind is not Counter]
            cls._merging = merged = (lists, counters, numbers)
        return merged

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector's counters into this one.

        Field-generic on purpose: lists extend, Counters update, numeric
        counters add (``self.x + other.x``), and the network model is left
        alone — so a counter added to this dataclass is merged automatically
        instead of being silently dropped by a hand-copied field list.
        """
        self._check_owner()
        lists, counters, numbers = self._merged()
        mine, theirs = vars(self), vars(other)
        for name in lists:
            mine[name].extend(theirs[name])
        for name in counters:
            counts = mine[name]
            for key, count in theirs[name].items():
                counts[key] += count
        for name in numbers:
            mine[name] += theirs[name]

    def reset(self) -> None:
        """Zero every counter, field-generically (like `merge()`).

        Reading the fields instead of a hand-maintained list means a
        counter added to this dataclass is reset automatically rather than
        silently surviving across runs.
        """
        self._check_owner()
        for name, kind in self._counter_kinds():
            if kind is list or kind is Counter:
                getattr(self, name).clear()
            else:
                setattr(self, name, kind())

    def group(self, name: str) -> dict:
        """One `SUMMARY_GROUPS` group's counters, float fields rounded to 1 µs."""
        out = {}
        if name == "metrics":
            out["source_queries"] = self.total_source_queries()
        for counter in SUMMARY_GROUPS[name]:
            value = getattr(self, counter)
            out[counter] = round(value, 6) if counter in _FLOAT_FIELDS else value
        return out

    def shown_groups(self):
        """``(name, counters)`` per group worth showing, in table order.

        The base ``metrics`` group is always shown; every other group only
        once one of its counters is nonzero, which keeps the compact account
        stable for runs that never exercised that subsystem.
        """
        for name in SUMMARY_GROUPS:
            counters = self.group(name)
            if name == "metrics" or any(counters.values()):
                yield name, counters

    def summary(self) -> dict:
        """Flat dict used by EXPLAIN output and the benchmark harness."""
        out: dict = {}
        for _, counters in self.shown_groups():
            out.update(counters)
        return out


#: What `MetricsCollector.summary()` and `FederatedResult.report()` show:
#: group name -> counter fields, in display order. A subsystem adding a
#: counter adds the dataclass field and names it here — nothing else.
SUMMARY_GROUPS = {
    # always present; led by the computed ``source_queries`` total
    "metrics": ("rows_shipped", "payload_bytes", "wire_bytes", "simulated_seconds"),
    "cache": (
        "plan_cache_hits", "fetch_cache_hits", "fetch_cache_misses",
        "result_cache_hits", "cache_seconds_saved", "cache_bytes_saved",
    ),
    "resilience": (
        "retries", "backoff_seconds", "source_failures", "breaker_short_circuits",
        "failovers", "degraded_fetches", "stale_cache_hits",
    ),
    "adaptive": ("replans", "lpt_reorders"),
    "views": ("view_hits", "view_stale_serves", "view_fallbacks"),
}
_FLOAT_FIELDS = frozenset(
    name for name, kind in MetricsCollector._counter_kinds() if kind is float
)
