"""Deterministic fault injection for federated sources.

Real EII deployments fail in ways the panel's architecture must absorb:
sources throw transient errors, stall under load, trickle results slowly,
or disappear outright. This module scripts those behaviors *determin-
istically* — a seeded RNG plus the simulated `SimClock`, never the wall
clock — so any failure scenario (and therefore any resilience claim) can
be replayed bit-for-bit in tests and benchmarks.

Usage::

    injector = FaultInjector(seed=7)
    catalog.register_source(injector.wrap(RelationalSource("crm", db)))
    injector.script("crm", Transient(2))            # next 2 calls fail
    injector.script("crm", ErrorRate(0.2))          # then 20% of calls fail
    injector.script("crm", Outage(start_s=10.0, end_s=60.0))

Every injected decision is appended to `injector.records` for assertions.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import InjectedFaultError
from repro.netsim.clock import SimClock
from repro.netsim.metrics import MetricsCollector


@dataclass
class Effect:
    """What one rule does to one call: fail it, delay it, or slow it down."""

    fail: Optional[str] = None  # error message, None = healthy
    extra_latency_s: float = 0.0
    slowdown: float = 1.0


class FaultRule:
    """Base class: evaluated once per source call, in scripting order."""

    def evaluate(self, call_index: int, now: float, rng: random.Random) -> Effect:
        raise NotImplementedError


@dataclass
class Transient(FaultRule):
    """The next `count` calls fail, then the rule goes quiet."""

    count: int
    message: str = "transient error"

    def evaluate(self, call_index, now, rng) -> Effect:
        if self.count > 0:
            self.count -= 1
            return Effect(fail=self.message)
        return Effect()


@dataclass
class ErrorRate(FaultRule):
    """Each call fails independently with probability `p` (seeded RNG)."""

    p: float
    message: str = "connection reset"

    def evaluate(self, call_index, now, rng) -> Effect:
        if rng.random() < self.p:
            return Effect(fail=self.message)
        return Effect()


@dataclass
class Outage(FaultRule):
    """A hard outage over a call-index window and/or a sim-clock window.

    With no bounds at all the outage is permanent. `start_call`/`end_call`
    are half-open ``[start, end)`` over the source's per-call counter;
    `start_s`/`end_s` are the same over the injector's simulated clock.
    """

    start_call: Optional[int] = None
    end_call: Optional[int] = None
    start_s: Optional[float] = None
    end_s: Optional[float] = None
    message: str = "source down"

    def evaluate(self, call_index, now, rng) -> Effect:
        in_calls = in_time = True
        if self.start_call is not None or self.end_call is not None:
            lo = self.start_call or 0
            in_calls = call_index >= lo and (
                self.end_call is None or call_index < self.end_call
            )
        elif self.start_s is not None or self.end_s is not None:
            in_calls = False  # only the time window decides
        if self.start_s is not None or self.end_s is not None:
            in_time = now >= (self.start_s or 0.0) and (
                self.end_s is None or now < self.end_s
            )
        elif self.start_call is not None or self.end_call is not None:
            in_time = False  # only the call window decides
        if self.start_call is None and self.end_call is None and (
            self.start_s is None and self.end_s is None
        ):
            return Effect(fail=self.message)  # permanent outage
        if in_calls or in_time:
            return Effect(fail=self.message)
        return Effect()


@dataclass
class LatencySpike(FaultRule):
    """Add `extra_s` simulated seconds to every `every`-th call."""

    extra_s: float
    every: int = 1

    def evaluate(self, call_index, now, rng) -> Effect:
        if self.every <= 1 or call_index % self.every == 0:
            return Effect(extra_latency_s=self.extra_s)
        return Effect()


@dataclass
class Trickle(FaultRule):
    """Slow delivery: the source's execution time is multiplied by `factor`.

    Combined with a per-fetch timeout this models the hung-but-not-dead
    source that stalls a naive mediator indefinitely.
    """

    factor: float

    def evaluate(self, call_index, now, rng) -> Effect:
        return Effect(slowdown=self.factor)


@dataclass
class FaultRecord:
    """One injector decision, for test assertions and postmortems."""

    source: str
    call_index: int
    at_s: float
    failed: bool
    message: str = ""
    extra_latency_s: float = 0.0
    slowdown: float = 1.0


class FaultInjector:
    """Scripts per-source failure modes over a seeded RNG + simulated clock.

    Thread-safe: threads sharing one federated engine drive wrapped
    sources concurrently. Determinism under concurrency comes from the
    per-source call counters — a given (source, call_index) pair always
    sees the same RNG draw for rate rules scripted on that source, because
    each source consumes from its own dedicated RNG stream.
    """

    def __init__(self, seed: int = 0, clock: Optional[SimClock] = None):
        self.seed = seed
        self.clock = clock if clock is not None else SimClock()
        self._rules: dict[str, list[FaultRule]] = {}
        self._rngs: dict[str, random.Random] = {}
        self._calls: Counter = Counter()
        self.records: list[FaultRecord] = []
        self._lock = threading.Lock()

    # -- scripting ---------------------------------------------------------------

    def script(self, source_name: str, *rules: FaultRule) -> "FaultInjector":
        """Append `rules` to `source_name`'s schedule (evaluated in order)."""
        with self._lock:
            self._rules.setdefault(source_name.lower(), []).extend(rules)
        return self

    def clear(self, source_name: Optional[str] = None) -> None:
        """Drop the schedule for one source (or all): 'the DBA fixed it'."""
        with self._lock:
            if source_name is None:
                self._rules.clear()
            else:
                self._rules.pop(source_name.lower(), None)

    def calls(self, source_name: str) -> int:
        with self._lock:
            return self._calls[source_name.lower()]

    def failures(self, source_name: Optional[str] = None) -> int:
        with self._lock:
            return sum(
                1
                for record in self.records
                if record.failed
                and (source_name is None or record.source == source_name.lower())
            )

    # -- the wrap point ----------------------------------------------------------

    def wrap(self, source) -> "FaultySource":
        return FaultySource(source, self)

    def on_call(self, source_name: str) -> Effect:
        """Evaluate the source's schedule for its next call.

        Raises `InjectedFaultError` when any rule fails the call; otherwise
        returns the combined latency/slowdown effect. Either way the
        decision lands in `records`.
        """
        name = source_name.lower()
        with self._lock:
            call_index = self._calls[name]
            self._calls[name] += 1
            rules = list(self._rules.get(name, ()))
            rng = self._rngs.setdefault(
                name, random.Random(f"{self.seed}:{name}")
            )
            now = self.clock.now()
            combined = Effect()
            for rule in rules:
                effect = rule.evaluate(call_index, now, rng)
                if effect.fail is not None and combined.fail is None:
                    combined.fail = effect.fail
                combined.extra_latency_s += effect.extra_latency_s
                combined.slowdown *= effect.slowdown
            self.records.append(
                FaultRecord(
                    name,
                    call_index,
                    now,
                    combined.fail is not None,
                    combined.fail or "",
                    combined.extra_latency_s,
                    combined.slowdown,
                )
            )
        if combined.fail is not None:
            raise InjectedFaultError(
                f"{source_name}: {combined.fail} (injected)", source=source_name
            )
        return combined


class FaultySource:
    """A transparent proxy consulting the injector before every call.

    Duck-types `repro.sources.base.DataSource` (netsim sits below the
    sources layer, so it cannot import the base class). Schema, stats and
    capabilities delegate to the wrapped source; only `execute_select` is
    perturbed. Injected failures are charged the source's per-query
    overhead (the failed round trip still cost time); latency spikes and
    trickle slowdowns inflate the simulated execution time the inner
    source reports.
    """

    def __init__(self, inner, injector: FaultInjector):
        self.name = inner.name
        self.capabilities = inner.capabilities
        self.inner = inner
        self.injector = injector

    def table_names(self):
        return self.inner.table_names()

    def schema_of(self, table):
        return self.inner.schema_of(table)

    def stats_of(self, table):
        return self.inner.stats_of(table)

    def estimated_rows(self, table):
        return self.inner.estimated_rows(table)

    def execute_select(self, stmt, metrics=None):
        try:
            effect = self.injector.on_call(self.name)
        except InjectedFaultError:
            if metrics is not None:
                # the failed round trip still costs the connection overhead
                metrics.record_source_query(
                    self.name, self.capabilities.per_query_overhead_s
                )
            raise
        if metrics is None:
            return self.inner.execute_select(stmt, None)
        local = MetricsCollector(network=metrics.network)
        result = self.inner.execute_select(stmt, local)
        extra = effect.extra_latency_s + (effect.slowdown - 1.0) * local.simulated_seconds
        metrics.merge(local)
        if extra > 0:
            metrics.charge_seconds(extra)
        return result

    def __getattr__(self, name):
        # anything else (query_log, db, lookup, ...) falls through to inner
        return getattr(self.inner, name)
