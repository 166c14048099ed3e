"""Workload requests, tenants, and per-query / per-run outcome records.

A `QueryRequest` is one tenant's query with an arrival time on the
simulated clock and an optional absolute deadline. The scheduler turns
each request into a `QueryOutcome` — admitted or rejected, completed or
shed, with its queue wait and service time on the virtual timeline — and
the whole run into a `WorkloadResult` carrying aggregate and per-tenant
`MetricsCollector`s plus the workload trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.netsim.metrics import MetricsCollector

#: Outcome statuses (the full life cycle of a request).
OK = "ok"
PARTIAL = "partial"
FAILED = "failed"
SHED = "shed"
REJECTED = "rejected"

#: statuses for which the query actually executed and produced an answer
ANSWERED = (OK, PARTIAL)


@dataclass(frozen=True)
class Tenant:
    """A traffic class: its fair-share weight and dispatch priority.

    `weight` sets the tenant's share of dispatch bandwidth under weighted
    fair queueing (2.0 gets dispatched twice as often as 1.0 under
    backlog). `priority` is strict: a runnable higher-priority request
    always dispatches before any lower-priority one.
    """

    name: str
    weight: float = 1.0
    priority: int = 0

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r} needs a positive weight")


@dataclass
class QueryRequest:
    """One query submitted to the workload scheduler."""

    sql: str
    tenant: str = "default"
    #: display label (e.g. the bench mix key); defaults to the SQL itself
    name: str = ""
    #: arrival time on the workload's virtual clock
    arrival_s: float = 0.0
    #: absolute virtual-time deadline; None = best effort
    deadline_s: Optional[float] = None
    #: overrides the tenant's priority when set
    priority: Optional[int] = None

    @property
    def label(self) -> str:
        return self.name or self.sql


@dataclass
class QueryOutcome:
    """What happened to one request, on the virtual timeline."""

    request: QueryRequest
    status: str = OK
    #: the engine's answer (None for shed/rejected/failed requests)
    result: Optional[object] = None
    error: str = ""
    arrival_s: float = 0.0
    dispatch_s: float = 0.0
    finish_s: float = 0.0
    #: order in which the scheduler actually dispatched (and therefore
    #: really executed) the admitted requests; -1 = never dispatched
    dispatch_index: int = -1
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    deadline_missed: bool = False
    #: fetches this query coalesced onto another query's in-flight fetch
    coalesced_fetches: int = 0
    coalesced_seconds_saved: float = 0.0

    @property
    def answered(self) -> bool:
        return self.status in ANSWERED

    @property
    def turnaround_s(self) -> float:
        return self.queue_wait_s + self.service_s


@dataclass
class WorkloadResult:
    """The scheduler's account of one workload run."""

    outcomes: list = field(default_factory=list)
    #: virtual time at which the last outcome resolved
    makespan_s: float = 0.0
    #: sum of per-query service times — what a one-at-a-time FIFO run of
    #: the same dispatch sequence would have taken end to end
    serial_s: float = 0.0
    #: aggregate counters over every executed query, plus sched telemetry
    metrics: MetricsCollector = field(default_factory=MetricsCollector)
    #: per-tenant aggregates (same shape as `metrics`)
    tenant_metrics: dict = field(default_factory=dict)
    #: the workload span tree (`repro.trace.Trace`), manually laid out on
    #: the virtual timeline; None when the scheduler ran untraced
    trace: Optional[object] = None
    #: work-conservation audit: one `(time, free_workers, queued, active,
    #: startable_pending)` snapshot per scheduling round; a non-zero last
    #: element would mean the scheduler idled while work was runnable
    audit: list = field(default_factory=list)

    # -- selectors ---------------------------------------------------------------

    def answered(self) -> list:
        return [o for o in self.outcomes if o.answered]

    def by_status(self, status: str) -> list:
        return [o for o in self.outcomes if o.status == status]

    def by_tenant(self, tenant: str) -> list:
        return [o for o in self.outcomes if o.request.tenant == tenant]

    def in_dispatch_order(self) -> list:
        """Dispatched outcomes, in true (real-execution) dispatch order."""
        dispatched = [o for o in self.outcomes if o.dispatch_index >= 0]
        return sorted(dispatched, key=lambda o: o.dispatch_index)

    @property
    def speedup(self) -> float:
        """Serial-equivalent seconds per concurrent makespan second."""
        return self.serial_s / self.makespan_s if self.makespan_s > 0 else 1.0

    # -- reporting ---------------------------------------------------------------

    def summary(self) -> dict:
        counts = {
            status: len(self.by_status(status))
            for status in (OK, PARTIAL, FAILED, SHED, REJECTED)
        }
        waits = [o.queue_wait_s for o in self.outcomes if o.dispatch_index >= 0]
        return {
            "queries": len(self.outcomes),
            **counts,
            "makespan_s": round(self.makespan_s, 6),
            "serial_s": round(self.serial_s, 6),
            "speedup": round(self.speedup, 4),
            "max_queue_wait_s": round(max(waits), 6) if waits else 0.0,
            "coalesced_fetches": self.metrics.coalesced_fetches,
            "coalesced_seconds_saved": round(
                self.metrics.coalesced_seconds_saved, 6
            ),
            "deadline_misses": self.metrics.deadline_misses,
        }

    def render(self) -> str:
        """Aligned per-tenant table plus the headline workload line."""
        from repro.telemetry.stats import percentile

        headers = [
            "tenant",
            "queries",
            "answered",
            "shed",
            "rejected",
            "mean_wait_s",
            "p95_wait_s",
            "service_s",
            "misses",
        ]
        rows = []
        for tenant in sorted(self.tenant_metrics):
            mine = self.by_tenant(tenant)
            waits = [o.queue_wait_s for o in mine if o.dispatch_index >= 0]
            rows.append(
                [
                    tenant,
                    str(len(mine)),
                    str(sum(1 for o in mine if o.answered)),
                    str(len([o for o in mine if o.status == SHED])),
                    str(len([o for o in mine if o.status == REJECTED])),
                    f"{sum(waits) / len(waits):.4f}" if waits else "-",
                    f"{percentile(waits, 0.95):.4f}" if waits else "-",
                    f"{sum(o.service_s for o in mine):.4f}",
                    str(sum(1 for o in mine if o.deadline_missed)),
                ]
            )
        widths = [
            max(len(header), *(len(row[i]) for row in rows)) if rows else len(header)
            for i, header in enumerate(headers)
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append(" | ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        s = self.summary()
        lines.append(
            f"workload: {s['queries']} queries "
            f"({s['ok']} ok, {s['partial']} partial, {s['failed']} failed, "
            f"{s['shed']} shed, {s['rejected']} rejected); "
            f"makespan {s['makespan_s']:.4f}s vs serial {s['serial_s']:.4f}s "
            f"({s['speedup']:.2f}x); {s['coalesced_fetches']} fetches coalesced "
            f"({s['coalesced_seconds_saved']:.4f}s saved)"
        )
        return "\n".join(lines)
