"""Per-source resilience: retries, circuit breakers, failover, degradation.

The panel's mediator sits between users and sources it does not control;
"the limitations and capabilities of each source" (§1) include the
capability to be down. This module gives `FederatedEngine` a per-source
policy for surviving that:

* **Bounded retries** with exponential backoff + seeded jitter, charged to
  the *simulated* clock (`repro.netsim.SimClock`) so a retry storm costs
  simulated seconds, never wall time.
* **Per-fetch timeouts** over simulated attempt duration, so a trickling
  source is abandoned rather than stalling the whole query.
* **Circuit breakers** per source with the classic closed → open →
  half-open state machine, probe accounting in half-open, and clock-driven
  cooldown. State transitions are logged for telemetry.
* **Replica failover** hooks: the engine consults the breaker before each
  candidate source, and `rename_statement_tables` rewrites a pushed-down
  component query from the primary's local table names to a replica's.
* **Graceful degradation** bookkeeping: `CompletenessReport` records which
  branches answered, which were skipped, and what fraction of the answer
  is estimated missing, so a partial result is always annotated.

Everything here is deterministic given (policy seed, fault schedule).
"""

from __future__ import annotations

import enum
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.common.errors import CapabilityError, CircuitOpenError, SourceError
from repro.sql.ast import JoinClause, Select, TableRef

#: Retry *n* (0-based) waits ``backoff_base_s * BACKOFF_MULTIPLIER**n``.
BACKOFF_MULTIPLIER = 2.0


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __str__(self):
        return self.value


@dataclass
class ResiliencePolicy:
    """Knobs for the per-source resilience behavior (engine-wide defaults).

    `max_attempts` counts the first try: 3 means one call plus two retries.
    Backoff for attempt *n* (0-based) is ``base * BACKOFF_MULTIPLIER**n`` with
    ``±jitter`` relative noise from a seeded RNG. `breaker_failure_threshold`
    consecutive failures open a source's breaker for `breaker_cooldown_s`
    simulated seconds; then `breaker_half_open_probes` concurrent probes are
    admitted, and `breaker_success_threshold` successes re-close it.
    Setting `breaker_failure_threshold` to None disables breakers;
    `failover=False` disables replica candidates.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_jitter: float = 0.25
    fetch_timeout_s: Optional[float] = None
    breaker_failure_threshold: Optional[int] = 5
    breaker_cooldown_s: float = 30.0
    breaker_half_open_probes: int = 1
    breaker_success_threshold: int = 1
    failover: bool = True
    seed: int = 0


class CircuitBreaker:
    """Closed/open/half-open breaker for one source, on an injected clock.

    Thread-safe; threads sharing one engine consult breakers concurrently.
    `transitions` records ``(at_s, from_state, to_state)`` triples.
    """

    def __init__(
        self,
        name: str,
        failure_threshold: Optional[int] = 5,
        cooldown_s: float = 30.0,
        half_open_probes: int = 1,
        success_threshold: int = 1,
        clock=time.time,
        listener=None,
    ):
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.half_open_probes = max(1, half_open_probes)
        self.success_threshold = max(1, success_threshold)
        self.clock = clock
        #: optional callable ``(name, from_state, to_state, at_s)`` invoked
        #: on every transition (the telemetry plane's health feed)
        self.listener = listener
        self.state = BreakerState.CLOSED
        self.transitions: list[tuple[float, str, str]] = []
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self._lock = threading.RLock()

    def _transition(self, to: BreakerState) -> None:
        at = self.clock()
        self.transitions.append((at, self.state.value, to.value))
        previous = self.state
        self.state = to
        if self.listener is not None:
            self.listener(self.name, previous.value, to.value, at)

    # -- gating ------------------------------------------------------------------

    def allow(self) -> bool:
        """May a call proceed now? In half-open this *reserves* a probe slot."""
        with self._lock:
            if self.state is BreakerState.CLOSED:
                return True
            if self.state is BreakerState.OPEN:
                if self.clock() - self._opened_at < self.cooldown_s:
                    return False
                self._transition(BreakerState.HALF_OPEN)
                self._probes_in_flight = 0
                self._probe_successes = 0
            if self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                return True
            return False

    def probe_available(self) -> bool:
        """Like `allow()` but side-effect free (no probe slot is consumed)."""
        with self._lock:
            if self.state is BreakerState.CLOSED:
                return True
            if self.state is BreakerState.OPEN:
                return self.clock() - self._opened_at >= self.cooldown_s
            return self._probes_in_flight < self.half_open_probes

    # -- outcomes ----------------------------------------------------------------

    def record_success(self) -> None:
        with self._lock:
            if self.state is BreakerState.HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._probe_successes += 1
                if self._probe_successes >= self.success_threshold:
                    self._transition(BreakerState.CLOSED)
                    self._consecutive_failures = 0
            else:
                self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self.state is BreakerState.HALF_OPEN:
                # the probe failed: back to open, restart the cooldown
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._transition(BreakerState.OPEN)
                self._opened_at = self.clock()
                return
            self._consecutive_failures += 1
            if (
                self.state is BreakerState.CLOSED
                and self.failure_threshold is not None
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._transition(BreakerState.OPEN)
                self._opened_at = self.clock()


class ResilienceManager:
    """Holds per-source breakers and runs guarded, retried source calls."""

    #: SourceError subclasses that indicate source *health*, worth retrying.
    #: CapabilityError is excluded: it means the planner produced a query
    #: the source can never run — retrying cannot help, and it must not
    #: poison the breaker.
    def __init__(self, policy: Optional[ResiliencePolicy] = None, clock=time.time):
        self.policy = policy or ResiliencePolicy()
        self.clock = clock
        self._advance = getattr(clock, "advance", None)
        self._rng = random.Random(self.policy.seed)
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()
        #: breaker-transition listener handed to every breaker (None = nobody)
        self._listener = None

    def attach_telemetry(self, telemetry) -> None:
        """Feed breaker transitions to `telemetry`, retrofitting existing breakers.

        Everything else a guarded call does goes to the `Recorder` passed to
        `run_guarded`, which writes it to the engine's per-source record; the
        plane reads it there.
        """
        self._listener = listener = telemetry.on_breaker_transition
        with self._lock:
            for breaker in self._breakers.values():
                breaker.listener = listener

    # -- breakers ----------------------------------------------------------------

    def breaker(self, source_name: str) -> CircuitBreaker:
        name = source_name.lower()
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                policy = self.policy
                breaker = CircuitBreaker(
                    name,
                    failure_threshold=policy.breaker_failure_threshold,
                    cooldown_s=policy.breaker_cooldown_s,
                    half_open_probes=policy.breaker_half_open_probes,
                    success_threshold=policy.breaker_success_threshold,
                    clock=self.clock,
                    listener=self._listener,
                )
                self._breakers[name] = breaker
            return breaker

    def peek_breaker(self, source_name: str) -> Optional[CircuitBreaker]:
        with self._lock:
            return self._breakers.get(source_name.lower())

    def source_down(self, source_name: str) -> bool:
        """True when the source's breaker would reject a call right now."""
        breaker = self.peek_breaker(source_name)
        return breaker is not None and not breaker.probe_available()

    def breaker_states(self) -> dict:
        with self._lock:
            return {name: b.state.value for name, b in sorted(self._breakers.items())}

    # -- the guarded call --------------------------------------------------------

    def backoff_delay(self, attempt: int) -> float:
        policy = self.policy
        delay = policy.backoff_base_s * (BACKOFF_MULTIPLIER**attempt)
        with self._lock:
            noise = 1.0 + policy.backoff_jitter * (2.0 * self._rng.random() - 1.0)
        return max(0.0, delay * noise)

    def run_guarded(self, source_name: str, attempt_fn, record):
        """Run `attempt_fn` under the source's breaker with bounded retries.

        `record` is the statement's `repro.federation.execution.Recorder`:
        each breaker rejection, failure and retry is one call on it (the
        retry charges its backoff to the recorder's collector as simulated
        seconds). Backoff also advances the shared clock when it is a
        `SimClock`, which is what lets an open breaker's cooldown elapse
        during a fault schedule. Raises `CircuitOpenError` when the breaker
        rejects the call, else the last attempt's error.
        """
        breaker = self.breaker(source_name)
        attempts = max(1, self.policy.max_attempts)
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            if not breaker.allow():
                record.breaker_short_circuit(source_name)
                raise CircuitOpenError(
                    f"circuit breaker open for source {source_name!r}",
                    source=source_name,
                ) from last_error
            try:
                result = attempt_fn()
            except CapabilityError:
                raise  # deterministic planner-side failure: never retry
            except SourceError as exc:
                breaker.record_failure()
                record.source_failure(source_name, attempt, exc)
                last_error = exc
                if attempt + 1 < attempts:
                    delay = self.backoff_delay(attempt)
                    record.retry(source_name, attempt + 1, delay)
                    if self._advance is not None:
                        self._advance(delay)
                continue
            breaker.record_success()
            return result
        raise last_error


# ---------------------------------------------------------------------------
# Completeness accounting for partial results
# ---------------------------------------------------------------------------


@dataclass
class SkippedBranch:
    """One degraded (skipped) remote branch of a partial answer."""

    source: str
    tables: tuple
    error: str
    est_rows: float
    kind: str = "fetch"  # "fetch" | "bind_chunk"


@dataclass
class CompletenessReport:
    """Which sources answered, which were skipped, and how much is missing.

    Attached to a `FederatedResult` whenever the engine runs with a
    resilience policy or `partial_results` enabled. `complete` is True iff
    nothing was skipped; `missing_fraction` weights skipped branches by
    their planner row estimates (an *estimate*, like everything pre-
    execution in a mediator).
    """

    answered: list = field(default_factory=list)  # (source, est_rows)
    skipped: list = field(default_factory=list)  # SkippedBranch
    stale_tables: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def note_answered(self, source: str, est_rows: float) -> None:
        with self._lock:
            self.answered.append((source, float(est_rows)))

    def note_skipped(
        self, source: str, tables: Iterable[str], error: Exception,
        est_rows: float, kind: str = "fetch",
    ) -> None:
        with self._lock:
            self.skipped.append(
                SkippedBranch(source, tuple(sorted(tables)), str(error),
                              float(est_rows), kind)
            )

    def note_stale(self, tables: Iterable[str]) -> None:
        with self._lock:
            for table in sorted(tables):
                if table not in self.stale_tables:
                    self.stale_tables.append(table)

    @property
    def complete(self) -> bool:
        return not self.skipped

    def skipped_sources(self) -> list:
        return sorted({branch.source for branch in self.skipped})

    def missing_fraction(self) -> float:
        answered = sum(est for _, est in self.answered)
        missing = sum(branch.est_rows for branch in self.skipped)
        total = answered + missing
        return missing / total if total > 0 else 0.0

    def summary(self) -> dict:
        return {
            "complete": self.complete,
            "sources_answered": sorted({source for source, _ in self.answered}),
            "sources_skipped": self.skipped_sources(),
            "stale_tables": list(self.stale_tables),
            "est_missing_fraction": round(self.missing_fraction(), 4),
        }

    def describe(self) -> str:
        if self.complete and not self.stale_tables:
            return "complete"
        parts = []
        if self.skipped:
            skipped = ", ".join(
                f"{branch.source}({'/'.join(branch.tables)}): {branch.error}"
                for branch in self.skipped
            )
            parts.append(
                f"skipped [{skipped}]; est. missing fraction "
                f"{self.missing_fraction():.2f}"
            )
        if self.stale_tables:
            parts.append(
                "served possibly-stale cache for: " + ", ".join(self.stale_tables)
            )
        return "; ".join(parts)


# ---------------------------------------------------------------------------
# Replica rebinding
# ---------------------------------------------------------------------------


def rename_statement_tables(stmt: Select, rename: dict) -> Select:
    """Rewrite a component query's table names (primary-local → replica-local).

    `rename` maps lower-cased current names to replacement names. Each
    rewritten table keeps its original *binding* as an explicit alias, so
    every qualified column reference in the statement keeps resolving
    unchanged against the replica's spelling of the table.
    """

    def fix(ref: TableRef) -> TableRef:
        replacement = rename.get(ref.name.lower())
        if replacement is None or replacement.lower() == ref.name.lower():
            return ref
        return TableRef(replacement, ref.binding)

    return Select(
        items=stmt.items,
        from_tables=tuple(fix(table) for table in stmt.from_tables),
        joins=tuple(
            JoinClause(fix(join.table), join.kind, join.condition)
            for join in stmt.joins
        ),
        where=stmt.where,
        group_by=stmt.group_by,
        having=stmt.having,
        order_by=stmt.order_by,
        limit=stmt.limit,
        distinct=stmt.distinct,
    )
