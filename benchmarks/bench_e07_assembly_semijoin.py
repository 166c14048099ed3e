"""E7 — local reduction, semijoin shipping and assembly-site selection.

Claim (Bitton §3): critical EII performance factors are the ability to
"minimize the amount of data shipped for assembly by utilizing local
reduction and selecting the best assembly site".

Method: a selective CRM filter joined against the large orders table,
executed under four planner configurations: (hub, no semijoin) →
(best site, no semijoin) → (hub, semijoin) → (best site, semijoin).
Identical answers; wire bytes and simulated elapsed fall at each step of
the optimization ladder.
"""

from repro.bench import BenchConfig, build_enterprise
from repro.federation import EngineConfig, FederatedEngine

SQL = (
    "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id "
    "WHERE c.segment = 'enterprise' AND c.city = 'SF'"
)

CONFIGS = [
    ("hub, ship-all", {"semijoin": "off", "choose_assembly_site": False}),
    ("best-site, ship-all", {"semijoin": "off", "choose_assembly_site": True}),
    ("hub, semijoin", {"semijoin": "force", "choose_assembly_site": False}),
    ("best-site, semijoin", {"semijoin": "force", "choose_assembly_site": True}),
]


def test_e07_assembly_semijoin(record_experiment):
    fixture = build_enterprise(BenchConfig(scale=2))
    rows = []
    results = {}
    for label, options in CONFIGS:
        engine = FederatedEngine(fixture.catalog(include_credit=False, include_docs=False), EngineConfig(**options))
        result = engine.query(SQL)
        results[label] = result
        rows.append(
            (
                label,
                result.plan.assembly_site,
                result.metrics.rows_shipped,
                result.metrics.wire_bytes,
                round(result.elapsed_seconds, 4),
            )
        )

    record_experiment(
        "E7",
        "local reduction + semijoin + best assembly site minimize shipping",
        ["strategy", "assembly_site", "rows_shipped", "wire_bytes", "elapsed_s"],
        rows,
    )

    # All four produce the same answer.
    baseline = results["hub, ship-all"].relation.sorted().rows
    for result in results.values():
        assert result.relation.sorted().rows == baseline

    # Shape: best-site beats hub; semijoin beats ship-all; combined wins.
    wire = {label: results[label].metrics.wire_bytes for label, _ in CONFIGS}
    assert wire["best-site, ship-all"] < wire["hub, ship-all"]
    assert wire["hub, semijoin"] < wire["hub, ship-all"]
    assert wire["best-site, semijoin"] <= min(
        wire["best-site, ship-all"], wire["hub, semijoin"]
    )
    assert wire["best-site, semijoin"] < 0.5 * wire["hub, ship-all"]
    # The chosen site co-locates with the biggest producer (sales).
    assert results["best-site, ship-all"].plan.assembly_site == "sales"
