"""The telemetry plane: one facade over instruments, SLOs, health, alerts.

`TelemetryPlane` is what the execution layers talk to. Every hook is an
*observation* — the plane never changes behavior, so an engine with a
plane attached executes byte-for-byte the same queries as one without.
The default is `NULL_TELEMETRY` (mirroring `NullTracer`): ``enabled`` is
False and every hook is a no-op. The engine's one writer
(`repro.federation.execution.Recorder`) guards on ``telemetry.enabled`` so
the disabled per-fetch path does zero extra work; the workload scheduler
calls its hooks unguarded, once per workload fact.

Hooked layers and what they report:

* `FederatedEngine`, through the `Recorder` of each execution — per-source
  fetch outcomes, latencies, bytes, cache hits/misses, retries, source
  failures, breaker short-circuits; per-query status and latency;
* `ResilienceManager`'s breakers — state transitions (which feed the
  health model directly);
* `WorkloadScheduler` (on the engine's own plane) — arrivals, queue
  waits, sheds/rejections, the per-tenant `QueryOutcome` stream that
  drives the SLO tracker, and the run's end.

`tick(now)` advances the aligned time-series windows on simulated time
and, at each window close, has the health model judge every source on
that window's activity: its change in the engine's per-source record
(``engine.scoreboard``, handed over by `attach_scoreboard`); the fetch,
retry and failure hooks feed only the registry. Everything downstream of
a seeded workload is deterministic and replayable.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.telemetry.alerts import AlertManager
from repro.telemetry.export import export_jsonl, export_prometheus, render_dashboard
from repro.telemetry.health import HealthModel, HealthPolicy
from repro.telemetry.instruments import MetricsRegistry
from repro.telemetry.slo import SloPolicy, SloTracker
from repro.telemetry.timeseries import DEFAULT_RETENTION, DEFAULT_WINDOW_S, TimeSeries


class NullTelemetry:
    """The zero-cost default: observes nothing, allocates nothing."""

    enabled = False

    def on_fetch(self, *args, **kwargs) -> None:
        return None

    def on_query(self, *args, **kwargs) -> None:
        return None

    def on_view(self, *args, **kwargs) -> None:
        return None

    def on_retry(self, *args, **kwargs) -> None:
        return None

    def on_source_failure(self, *args, **kwargs) -> None:
        return None

    def on_breaker_short_circuit(self, *args, **kwargs) -> None:
        return None

    def on_breaker_transition(self, *args, **kwargs) -> None:
        return None

    def on_arrival(self, *args, **kwargs) -> None:
        return None

    def on_outcome(self, *args, **kwargs) -> None:
        return None

    def on_workload_end(self, *args, **kwargs) -> None:
        return None

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
        #: the per-source record health is judged on (`attach_scoreboard`), and
        #: its counts at the last window close
        self.scoreboard = None
        self._judged: dict = {}
        self._now = 0.0
        # threads sharing one engine report fetches concurrently;
        # one lock keeps counter increments exact (and therefore replayable)
        self._lock = threading.Lock()

    def now(self) -> float:
        if self.clock is not None:
            return self.clock() if callable(self.clock) else self.clock.now()
        return self._now

    def attach_scoreboard(self, scoreboard) -> None:
        """Judge health on `scoreboard` (an engine's `QueryScoreboard`) from now on."""
        with self._lock:
            self.scoreboard = scoreboard
            self._judged = scoreboard.snapshot()

    # -- engine hooks ------------------------------------------------------------

    def on_fetch(
        self,
        source: str,
        seconds: float = 0.0,
        payload_bytes: int = 0,
        cache: str = "",
        ok: bool = True,
    ) -> None:
        """One component fetch's outcome (remote call or cache hit)."""
        name = source.lower()
        with self._lock:
            if cache == "hit":
                self.registry.counter(
                    "eii_cache_hits_total", "per-source fetch-cache hits", source=name
                ).inc()
                return
            if cache == "miss":
                self.registry.counter(
                    "eii_cache_misses_total", "per-source fetch-cache misses", source=name
                ).inc()
                # the remote call that follows reports separately
                return
            outcome = "ok" if ok else "error"
            self.registry.counter(
                "eii_fetches_total",
                "component fetches by source and outcome",
                source=name,
                outcome=outcome,
            ).inc()
            if ok:
                self.registry.histogram(
                    "eii_fetch_latency_seconds",
                    "simulated per-fetch latency",
                    source=name,
                ).observe(seconds)
                if payload_bytes:
                    self.registry.counter(
                        "eii_fetch_payload_bytes_total",
                        "payload bytes shipped per source",
                        source=name,
                    ).inc(payload_bytes)

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

    def on_retry(self, source: str, backoff_s: float = 0.0) -> None:
        with self._lock:
            self.registry.counter(
                "eii_retries_total", "retries by source", source=source.lower()
            ).inc()

    def on_source_failure(self, source: str) -> None:
        with self._lock:
            self.registry.counter(
                "eii_source_failures_total", "failed source calls", source=source.lower()
            ).inc()

    def on_breaker_short_circuit(self, source: str) -> None:
        with self._lock:
            self.registry.counter(
                "eii_breaker_short_circuits_total",
                "calls rejected by an open breaker",
                source=source.lower(),
            ).inc()

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
