"""E10 — inter-source parallelism in federated execution.

Claim (Bitton §3): an EII engine must "maximize parallelism in inter and
intra query processing"; component queries against independent sources
should overlap, so elapsed time approaches the slowest fetch rather than
the sum of fetches.

Method: a five-source fan-out query (crm + sales + support + finance +
marketing). Sweep the worker count; simulated elapsed time is computed by
list-scheduling the measured per-fetch durations over that many simulated
slots (the fetches themselves run one after another on the caller's
thread). Speedup rises with workers and saturates at the fetch count.
"""

from repro.bench import BenchConfig, build_enterprise
from repro.federation import EngineConfig, FederatedEngine
from repro.netsim import Link, NetworkModel

SQL = (
    "SELECT r.region, COUNT(*) AS n, SUM(o.total) AS revenue "
    "FROM customers c "
    "JOIN orders o ON c.id = o.cust_id "
    "JOIN tickets t ON t.cust_id = c.id "
    "JOIN invoices i ON i.cust_id = c.id "
    "JOIN regions r ON r.city = c.city "
    "WHERE c.segment = 'enterprise' AND o.total > 1000 AND i.paid = FALSE "
    "GROUP BY r.region"
)

#: A WAN-ish network: 50 ms latency, 2 MB/s — component fetches dominate.
def wan() -> NetworkModel:
    return NetworkModel(default_link=Link(latency_s=0.05, bandwidth_bps=2_000_000))


def test_e10_parallelism(record_experiment):
    fixture = build_enterprise(BenchConfig(scale=1))
    rows = []
    elapsed_by_workers = {}
    baseline_rows = None
    for workers in (1, 2, 4, 8):
        engine = FederatedEngine(
            fixture.catalog(include_credit=False, include_docs=False),
            EngineConfig(
                network=wan(),
                parallel_workers=workers,
                semijoin="off",
                choose_assembly_site=False,  # hub: every fetch crosses the WAN
            ),
        )
        result = engine.query(SQL)
        if baseline_rows is None:
            baseline_rows = result.relation.sorted().rows
        else:
            assert result.relation.sorted().rows == baseline_rows
        elapsed_by_workers[workers] = result.elapsed_seconds
        rows.append(
            (
                workers,
                len(result.plan.fetches),
                round(result.elapsed_seconds, 4),
                round(elapsed_by_workers[1] / result.elapsed_seconds, 2),
            )
        )

    record_experiment(
        "E10",
        "parallel component fetches: elapsed approaches the slowest fetch",
        ["workers", "component_fetches", "sim_elapsed_s", "speedup_vs_serial"],
        rows,
    )

    # Shape: monotone non-increasing elapsed; real speedup by 4 workers;
    # saturation: 8 workers buys nothing over enough-for-all-fetches.
    elapsed = [elapsed_by_workers[w] for w in (1, 2, 4, 8)]
    assert all(a >= b - 1e-9 for a, b in zip(elapsed, elapsed[1:]))
    assert elapsed_by_workers[1] / elapsed_by_workers[4] > 1.3
    fetch_count = rows[0][1]
    if fetch_count <= 8:
        assert abs(elapsed_by_workers[8] - elapsed_by_workers[fetch_count if fetch_count in elapsed_by_workers else 8]) < 0.05
