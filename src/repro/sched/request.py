"""Workload requests, tenants, and per-query / per-run outcome records.

A `QueryRequest` is one tenant's query with an arrival time on the
simulated clock and an optional absolute deadline. The scheduler turns
each request into a `QueryOutcome` — admitted or rejected, completed or
shed, with its queue wait and service time on the virtual timeline — and
the whole run into a `WorkloadResult` carrying one `TenantStats` account
per tenant, one for the run's total, and the workload trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.netsim.metrics import MetricsCollector
from repro.telemetry.stats import percentile

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
class TenantStats:
    """One tenant's workload account - or, as `WorkloadResult.total`, the run's.

    The scheduler writes each workload fact once, where it happens, into the
    request's tenant record and the total alike; nothing is re-derived from
    the outcomes afterwards.
    """

    name: str
    #: arrivals, whatever became of them
    queries: int = 0
    ok: int = 0
    partial: int = 0
    failed: int = 0
    shed: int = 0
    rejected: int = 0
    deadline_misses: int = 0
    #: queue wait of each dispatched query, in dispatch order
    waits_s: list = field(default_factory=list)
    service_s: float = 0.0
    coalesced_fetches: int = 0
    coalesced_seconds_saved: float = 0.0
    #: counters of every execution a dispatch caused, each merged once: an
    #: answer's own, or a failed query's partial account (`exc.metrics`). A
    #: result-cache hit adds nothing - it re-serves an execution, with that
    #: execution's collector.
    metrics: MetricsCollector = field(default_factory=MetricsCollector)

    @property
    def answered(self) -> int:
        return self.ok + self.partial

    @property
    def mean_wait_s(self) -> float:
        return sum(self.waits_s) / len(self.waits_s) if self.waits_s else 0.0

    def summary(self) -> dict:
        return {
            "queries": self.queries,
            "answered": self.answered,
            "shed": self.shed,
            "rejected": self.rejected,
            "failed": self.failed,
            "mean_wait_s": self.mean_wait_s,
            "p95_wait_s": percentile(self.waits_s, 0.95),
            "service_s": self.service_s,
            "deadline_misses": self.deadline_misses,
            "coalesced_fetches": self.coalesced_fetches,
        }


@dataclass
class WorkloadResult:
    """The scheduler's account of one workload run."""

    outcomes: list = field(default_factory=list)
    #: virtual time at which the last outcome resolved
    makespan_s: float = 0.0
    #: sum of per-query service times — what a one-at-a-time FIFO run of
    #: the same dispatch sequence would have taken end to end
    serial_s: float = 0.0
    #: the run's account: every tenant's facts, summed as they happened
    total: TenantStats = field(default_factory=lambda: TenantStats("total"))
    #: tenant name -> that tenant's account
    tenants: dict = field(default_factory=dict)
    #: the workload span tree (`repro.trace.Trace`), manually laid out on
    #: the virtual timeline once the run ends
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
        total = self.total
        waits = total.waits_s
        return {
            "queries": total.queries,
            "ok": total.ok,
            "partial": total.partial,
            "failed": total.failed,
            "shed": total.shed,
            "rejected": total.rejected,
            "makespan_s": round(self.makespan_s, 6),
            "serial_s": round(self.serial_s, 6),
            "speedup": round(self.speedup, 4),
            "max_queue_wait_s": round(max(waits), 6) if waits else 0.0,
            "coalesced_fetches": total.coalesced_fetches,
            "coalesced_seconds_saved": round(total.coalesced_seconds_saved, 6),
            "deadline_misses": total.deadline_misses,
        }

    def render(self) -> str:
        """Aligned per-tenant table plus the headline workload line."""
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
        for tenant, stats in sorted(self.tenants.items()):
            s = stats.summary()
            waited = bool(stats.waits_s)
            rows.append(
                [
                    tenant,
                    str(s["queries"]),
                    str(s["answered"]),
                    str(s["shed"]),
                    str(s["rejected"]),
                    f"{s['mean_wait_s']:.4f}" if waited else "-",
                    f"{s['p95_wait_s']:.4f}" if waited else "-",
                    f"{s['service_s']:.4f}",
                    str(s["deadline_misses"]),
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
