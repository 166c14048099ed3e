"""E2 — the naive ship-everything-to-an-XQuery-hub join vs pushdown.

Claim (Bitton §3): pulling both tables of a cross-database join to a hub
as XML "can't provide acceptable performance": the payload triples when
converted to XML and whole tables cross the network, whereas component
queries pushed to the sources ship only the reduced results.

Method: run the same join under (a) a naive configuration — scan-only
wrappers, XML wire format, hub assembly, no semijoin — and (b) the real
planner. Identical answers; compare bytes shipped and simulated seconds.
"""

import pytest

from repro.bench import BenchConfig, build_enterprise
from repro.federation import EngineConfig, FederatedEngine
from repro.netsim.network import WireFormat
from repro.sources.base import SCAN_ONLY

SQL = (
    "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id "
    "WHERE o.total > 2000 AND c.segment = 'enterprise'"
)


def naive_engine(fixture) -> FederatedEngine:
    """Early-vendor behavior: no pushdown, XML shipping, hub assembly."""
    catalog = fixture.catalog(
        crm_dialect=SCAN_ONLY,
        sales_dialect=SCAN_ONLY,
        include_credit=False,
        include_docs=False,
    )
    for source in catalog.sources.values():
        source.capabilities.wire_format = WireFormat.XML
    return FederatedEngine(catalog, EngineConfig(semijoin="off", choose_assembly_site=False))


def optimized_engine(fixture) -> FederatedEngine:
    return FederatedEngine(fixture.catalog(include_credit=False, include_docs=False), EngineConfig(semijoin="auto"))


def test_e02_naive_hub_join(record_experiment):
    rows = []
    ratios = []
    for scale in (1, 2, 4):
        fixture = build_enterprise(BenchConfig(scale=scale))
        naive = naive_engine(fixture).query(SQL)
        optimized = optimized_engine(fixture).query(SQL)
        assert naive.relation.sorted().rows == optimized.relation.sorted().rows
        ratio = naive.metrics.wire_bytes / max(optimized.metrics.wire_bytes, 1)
        ratios.append(ratio)
        rows.append(
            (
                scale,
                len(optimized.relation),
                naive.metrics.wire_bytes,
                optimized.metrics.wire_bytes,
                round(ratio, 1),
                round(naive.elapsed_seconds, 4),
                round(optimized.elapsed_seconds, 4),
            )
        )

    record_experiment(
        "E2",
        "naive XML hub join ships orders of magnitude more than pushdown",
        [
            "scale",
            "result_rows",
            "naive_wire_bytes",
            "pushdown_wire_bytes",
            "ratio",
            "naive_elapsed_s",
            "pushdown_elapsed_s",
        ],
        rows,
        notes="naive = scan-only wrappers + XML (3x) + hub assembly, semijoin off",
    )

    # Shape: naive ships >10x the bytes at every scale and grows with scale.
    assert all(ratio > 10 for ratio in ratios)
    naive_bytes = [row[2] for row in rows]
    assert naive_bytes == sorted(naive_bytes)
    # XML alone contributes a 3x factor on what the naive plan ships.
    fixture = build_enterprise(BenchConfig(scale=1))
    xml_run = naive_engine(fixture).query(SQL)
    assert xml_run.metrics.wire_bytes >= 2.9 * xml_run.metrics.payload_bytes * 0.9
