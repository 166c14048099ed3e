"""Concurrent multi-query workload scheduling over the federated engine.

The mediator in the paper's §5 serves *workloads*, not single queries:
many tenants' dashboards, reports and batch jobs share one integration
layer and its per-source capacity. This package adds that layer —
weighted-fair queueing across tenants (`repro.sched.wfq`), the engine's
per-source caps (`EngineConfig.source_limits`) as virtual slots, in-flight
fetch coalescing, deadline-based load shedding, and the `WorkloadScheduler`
event loop tying them together on the simulated clock. It is a pure
simulator: no thread primitive lives here; the one real-thread limiter is
the engine's own (`repro.federation.limits`).

Design invariant (what the differential oracle tests): concurrency is
purely a virtual-time account. Every admitted query's rows come from one
real `engine.query()` call made in dispatch order, so a concurrent run
answers exactly what the same queries answered serially — with or
without fault injection — while the makespan, queue waits, and
coalescing savings describe the concurrent timeline.
"""

from repro.sched.request import (
    ANSWERED,
    FAILED,
    OK,
    PARTIAL,
    REJECTED,
    SHED,
    QueryOutcome,
    QueryRequest,
    Tenant,
    TenantStats,
    WorkloadResult,
)
from repro.sched.scheduler import SchedulerConfig, WorkloadScheduler
from repro.sched.wfq import FairQueue
from repro.sched.workload import DEFAULT_TENANTS, make_workload

__all__ = [
    "ANSWERED",
    "DEFAULT_TENANTS",
    "FAILED",
    "FairQueue",
    "OK",
    "PARTIAL",
    "QueryOutcome",
    "QueryRequest",
    "REJECTED",
    "SHED",
    "SchedulerConfig",
    "Tenant",
    "TenantStats",
    "WorkloadResult",
    "WorkloadScheduler",
    "make_workload",
]
