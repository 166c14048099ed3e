"""A8 (concurrent workloads) — fair queueing + coalescing beat FIFO-serial.

The mediator of the paper's §5 is shared infrastructure: dashboards,
analytics and batch jobs all hit the same integration layer at once, and
the panelists' EII products lived or died on how that layer multiplexed
them. This experiment runs the standard 100-query mixed workload
(`make_workload(100, seed=7)`, dashboard-heavy, three tenants) through
the workload scheduler under three configurations:

- **fifo-serial** — one query at a time, no coalescing: the naive
  gateway that serializes every request behind the slowest one;
- **fifo-concurrent** — 8 virtual workers, coalescing on, arrival order;
- **wfq+coalesce** — the full scheduler: weighted-fair queueing with
  priorities, 8 workers, in-flight fetch coalescing.

Claims asserted: concurrency cuts the simulated makespan >=1.3x versus
FIFO-serial; coalescing collapses duplicated in-flight fetches; every
configuration returns byte-identical rows (the differential oracle,
at benchmark scale); and under WFQ the interactive tenant's p95 queue
wait never exceeds the batch tenant's — the fairness the panel's
products sold.
"""

import pytest

from repro.federation import FederatedEngine
from repro.sched import (
    DEFAULT_TENANTS,
    SchedulerConfig,
    WorkloadScheduler,
    make_workload,
)

#: the 100-query dashboard-heavy mixed workload, bursty enough to overlap
QUERIES = 100
SEED = 7
MEAN_GAP_S = 0.005

CONFIGS = [
    (
        "fifo-serial",
        lambda workers: SchedulerConfig(
            workers=workers, max_active=1, policy="fifo", coalesce=False
        ),
    ),
    (
        "fifo-concurrent",
        lambda workers: SchedulerConfig(workers=8, policy="fifo", coalesce=True),
    ),
    (
        "wfq+coalesce",
        lambda workers: SchedulerConfig(workers=8, policy="wfq", coalesce=True),
    ),
]


def p95_wait(result, tenant):
    return result.tenants[tenant].summary()["p95_wait_s"]


def test_a08_concurrency(enterprise, record_experiment):
    requests = make_workload(QUERIES, seed=SEED, mean_gap_s=MEAN_GAP_S)
    runs, rows = {}, []
    for label, make_config in CONFIGS:
        engine = FederatedEngine(enterprise.catalog())
        result = WorkloadScheduler(
            engine,
            tenants=DEFAULT_TENANTS,
            config=make_config(engine.parallel_workers),
        ).run(requests)
        runs[label] = result
        summary = result.summary()
        rows.append(
            (
                label,
                round(result.makespan_s, 4),
                round(runs["fifo-serial"].makespan_s / result.makespan_s, 2),
                summary["coalesced_fetches"],
                round(summary["max_queue_wait_s"], 4),
                round(p95_wait(result, "dashboard"), 4),
                round(p95_wait(result, "batch"), 4),
                summary["shed"] + summary["rejected"],
            )
        )

    serial = runs["fifo-serial"]
    concurrent = runs["wfq+coalesce"]
    win = serial.makespan_s / concurrent.makespan_s
    record_experiment(
        "A8",
        "weighted-fair concurrent scheduling with in-flight coalescing cuts "
        "the 100-query mixed workload's simulated makespan >=1.3x vs "
        "FIFO-serial, at identical answers",
        [
            "config",
            "makespan_s",
            "win",
            "coalesced",
            "max_wait_s",
            "p95_dash_s",
            "p95_batch_s",
            "dropped",
        ],
        rows,
        notes=(
            f"{QUERIES} queries, seed={SEED}, mean arrival gap "
            f"{MEAN_GAP_S}s, tenants dashboard/analytics/batch "
            f"(weights 4/2/1); win(wfq+coalesce)={win:.2f}x; serial-equivalent "
            f"work {concurrent.serial_s:.2f}s"
        ),
        metrics={
            "serial_makespan_s": round(serial.makespan_s, 6),
            "wfq_makespan_s": round(concurrent.makespan_s, 6),
            "win": round(win, 4),
            "coalesced_fetches": concurrent.total.coalesced_fetches,
            "p95_dashboard_wait_s": round(p95_wait(concurrent, "dashboard"), 6),
            "p95_batch_wait_s": round(p95_wait(concurrent, "batch"), 6),
            "dropped": (
                concurrent.summary()["shed"] + concurrent.summary()["rejected"]
            ),
        },
        gates={
            "concurrency_win_1_3x": ("win", ">=", 1.3),
            "coalescing_engaged": ("coalesced_fetches", ">=", 1),
            "nothing_dropped": ("dropped", "==", 0),
        },
        headline={"metric": "win", "direction": "up"},
    )

    # The headline claim: concurrency pays off >=1.3x on makespan.
    assert win >= 1.3, f"win {win:.2f}x < 1.3x"
    assert runs["fifo-concurrent"].makespan_s < serial.makespan_s

    # The differential oracle at benchmark scale: every configuration
    # answers every query identically, whatever the dispatch order.
    def all_rows(result):
        return [
            None if o.result is None else o.result.relation.rows
            for o in result.outcomes
        ]

    baseline = all_rows(serial)
    for label, result in runs.items():
        assert all_rows(result) == baseline, label
        assert all(o.answered for o in result.outcomes), label
        assert all(row[-1] == 0 for row in result.audit), label

    # Coalescing engaged: the dashboard-heavy mix repeats statements while
    # they are still in flight.
    assert concurrent.total.coalesced_fetches >= 1
    assert concurrent.total.coalesced_seconds_saved > 0

    # Fairness: under WFQ the interactive tenant never queues behind batch.
    assert p95_wait(concurrent, "dashboard") <= p95_wait(concurrent, "batch") + 1e-9


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
