"""The telemetry plane: one facade over instruments, SLOs, health, alerts.

`TelemetryPlane` is what the execution layers talk to. Every hook is an
*observation* — the plane never changes behavior, so an engine with a
plane attached executes byte-for-byte the same queries as one without.
The default is `NULL_TELEMETRY` (mirroring `NullTracer`): ``enabled`` is
False and every hook is a no-op. The engine's one writer
(`repro.federation.execution.Recorder`) guards on ``telemetry.enabled``;
the workload scheduler calls its hooks unguarded, once per workload fact.

What reaches the plane, and how:

* `FederatedEngine`, through the `Recorder` of each execution — per-query
  status and latency, view-answering outcomes;
* the engine's per-source record (``engine.scoreboard``, `attach_scoreboard`)
  — *read*, never written: the registry's per-source instruments (fetch
  outcomes, latencies, bytes, cache hits/misses, retries, source failures,
  breaker short-circuits) are computed from it whenever the registry is read;
* `ResilienceManager`'s breakers — state transitions (which feed the
  health model directly);
* `WorkloadScheduler` (on the engine's own plane) — arrivals, queue
  waits, sheds/rejections, the per-tenant `QueryOutcome` stream that
  drives the SLO tracker, and the run's end.

`tick(now)` advances the aligned time-series windows on simulated time
and, at each window close, has the health model judge every source on
that window's activity: its change in the record. A plane reads one
record, the last one attached. Everything downstream of a seeded workload
is deterministic and replayable.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.telemetry.alerts import AlertManager
from repro.telemetry.export import export_jsonl, export_prometheus, render_dashboard
from repro.telemetry.health import HealthModel, HealthPolicy
from repro.telemetry.instruments import MetricsRegistry, counter_at
from repro.telemetry.slo import SloPolicy, SloTracker
from repro.telemetry.timeseries import DEFAULT_RETENTION, DEFAULT_WINDOW_S, TimeSeries

_FETCHES = "component fetches by source and outcome"

#: the per-source counters read from the record: (metric, help, the record's
#: count, extra labels)
_SOURCE_COUNTERS = (
    ("eii_fetches_total", _FETCHES, "answers", {"outcome": "ok"}),
    ("eii_fetch_payload_bytes_total", "payload bytes shipped per source", "answer_bytes", {}),
    ("eii_cache_hits_total", "per-source fetch-cache hits", "cache_hits", {}),
    ("eii_cache_misses_total", "per-source fetch-cache misses", "cache_misses", {}),
    ("eii_retries_total", "retries by source", "retries", {}),
    ("eii_breaker_short_circuits_total", "calls rejected by an open breaker", "short_circuits", {}),
)

#: a failed call's counter, by whether a resilience manager reported it
_FAILURES = {
    False: ("eii_fetches_total", _FETCHES, "failures", {"outcome": "error"}),
    True: ("eii_source_failures_total", "failed source calls", "failures", {}),
}


class NullTelemetry:
    """The zero-cost default: observes nothing, allocates nothing."""

    enabled = False

    def _ignore(self, *args, **kwargs) -> None:
        return None

    on_query = on_view = on_breaker_transition = _ignore
    on_arrival = on_outcome = on_workload_end = _ignore

    def tick(self, *args, **kwargs) -> int:
        return 0


class TelemetryPlane:
    """Aggregates every operational signal of one engine / workload."""

    enabled = True

    def __init__(
        self,
        clock=None,
        window_s: float = DEFAULT_WINDOW_S,
        retention: int = DEFAULT_RETENTION,
        slo_policies: Optional[dict] = None,
        default_slo: Optional[SloPolicy] = None,
        health_policy: Optional[HealthPolicy] = None,
    ):
        self.clock = clock
        self.registry = MetricsRegistry()
        self.series = TimeSeries(
            self.registry, clock=clock, window_s=window_s, retention=retention
        )
        self.alerts = AlertManager()
        self.slo = SloTracker(
            policies=slo_policies, alerts=self.alerts, default_policy=default_slo
        )
        self.health = HealthModel(policy=health_policy, alerts=self.alerts)
        #: the per-source record read (`attach_scoreboard`), whether a manager
        #: reports its failures, and its counts at the last window close
        self.scoreboard = None
        self._managed = False
        self._judged: dict = {}
        self.registry.register_collector(self._source_instruments)
        self._now = 0.0
        # threads sharing one engine report queries concurrently;
        # one lock keeps counter increments exact (and therefore replayable)
        self._lock = threading.Lock()

    def now(self) -> float:
        if self.clock is not None:
            return self.clock() if callable(self.clock) else self.clock.now()
        return self._now

    def attach_scoreboard(self, scoreboard, managed: bool = False) -> None:
        """Read the per-source instruments and health from `scoreboard` (an
        engine's `QueryScoreboard`) from now on; `managed`: a resilience manager
        reports its failed calls (``eii_source_failures_total``)."""
        with self._lock:
            self.scoreboard = scoreboard
            self._managed = managed
            self._judged = scoreboard.snapshot()

    def _source_instruments(self) -> list:
        """The per-source instruments as the record stands: each counter once
        above zero, the latency histogram once the source answered."""
        scoreboard = self.scoreboard
        if scoreboard is None:
            return []
        counters = (*_SOURCE_COUNTERS, _FAILURES[self._managed])
        out = []
        for name, stats in scoreboard.snapshot().items():
            for metric, description, count, labels in counters:
                value = getattr(stats, count)
                if value:
                    out.append(counter_at(metric, value, description, source=name, **labels))
            if stats.answers:
                out.append(stats.answer_latency)
        return out

    # -- engine hooks ------------------------------------------------------------

    def on_query(self, status: str, seconds: float = 0.0, rows: int = 0) -> None:
        with self._lock:  # one engine answers queries on many threads
            self.registry.counter(
                "eii_queries_total", "federated queries by status", status=status
            ).inc()
            if status in ("ok", "partial"):
                self.registry.histogram(
                    "eii_query_latency_seconds", "simulated per-query elapsed"
                ).observe(seconds)
                self.registry.counter(
                    "eii_query_rows_total", "rows returned to clients"
                ).inc(rows)

    def on_view(self, view: str, status: str, staleness_s: float = 0.0) -> None:
        """A view-answering outcome: hit, stale (served), or fallback."""
        name = view.lower()
        with self._lock:
            self.registry.counter(
                "eii_view_answers_total",
                "view-answered queries by view and status",
                view=name,
                status=status,
            ).inc()
            if status in ("hit", "stale"):
                self.registry.histogram(
                    "eii_view_staleness_seconds",
                    "staleness of view-answered results",
                ).observe(staleness_s)

    # -- resilience hooks --------------------------------------------------------

    def on_breaker_transition(
        self, source: str, from_state: str, to_state: str, at_s: float
    ) -> None:
        name = source.lower()
        with self._lock:
            self.registry.counter(
                "eii_breaker_transitions_total",
                "breaker state transitions",
                source=name,
                to=to_state,
            ).inc()
            self.health.note_breaker(name, to_state, at_s)

    # -- scheduler hooks ---------------------------------------------------------

    def on_arrival(self, tenant: str, queued: int) -> None:
        self.registry.counter(
            "eii_sched_arrivals_total", "workload arrivals", tenant=tenant
        ).inc()
        self.registry.gauge(
            "eii_sched_queue_depth", "admission queue depth at last arrival"
        ).set(queued)

    def on_outcome(self, outcome, now: Optional[float] = None) -> None:
        """One resolved workload outcome: counters + the SLO stream."""
        tenant = outcome.request.tenant
        self.registry.counter(
            "eii_sched_outcomes_total",
            "workload outcomes by tenant and status",
            tenant=tenant,
            status=outcome.status,
        ).inc()
        if outcome.dispatch_index >= 0:
            self.registry.histogram(
                "eii_queue_wait_seconds", "admission queue wait", tenant=tenant
            ).observe(outcome.queue_wait_s)
        if outcome.deadline_missed:
            self.registry.counter(
                "eii_deadline_misses_total", "missed deadlines", tenant=tenant
            ).inc()
        if outcome.coalesced_fetches:
            self.registry.counter(
                "eii_coalesced_fetches_total", "coalesced fetches", tenant=tenant
            ).inc(outcome.coalesced_fetches)
        at = now if now is not None else outcome.finish_s
        self._now = max(self._now, at)
        self.slo.observe(outcome, now=at)

    def on_workload_end(self, makespan_s: float) -> None:
        """A workload run ended: one last roll, so its final window closes."""
        self.tick(makespan_s + self.series.window_s)

    # -- the clockwork -----------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> int:
        """Advance to `now`: close due windows and judge source health.

        Every window closed by one call is judged as one: each source on its
        record's change since the last close. Returns the number of windows
        closed. Safe to call as often as the caller likes — closing zero
        windows does nothing.
        """
        if now is None:
            now = self.now()
        with self._lock:
            self._now = max(self._now, now)
            closed = self.series.roll(self._now)
            if closed:
                boundary = self.series.closed * self.series.window_s
                seen = self.scoreboard.snapshot() if self.scoreboard is not None else {}
                judged = self._judged
                windows = {
                    name: stats.minus(judged.get(name)) for name, stats in seen.items()
                }
                self.health.close_window(windows, boundary)
                self._judged = seen
            return closed

    # -- exports -----------------------------------------------------------------

    def export_jsonl(self) -> str:
        return export_jsonl(self)

    def export_prometheus(self) -> str:
        return export_prometheus(self)

    def render_dashboard(self) -> str:
        return render_dashboard(self)


#: Shared no-op instance; safe because it holds no state.
NULL_TELEMETRY = NullTelemetry()


def resolve_telemetry(telemetry) -> "TelemetryPlane | NullTelemetry":
    """Normalize a constructor argument into a plane or the null default."""
    if telemetry is None or telemetry is False:
        return NULL_TELEMETRY
    if telemetry is True:
        return TelemetryPlane()
    return telemetry


__all__ = ["NULL_TELEMETRY", "NullTelemetry", "TelemetryPlane", "resolve_telemetry"]
