"""E11 — data service agreements: automated violation detection.

Claim (Rosenthal §7): data supply chains need formal agreements —
freshness, quality, availability obligations — with "automated violation
detection for some conditions". The monitor must catch every injected
fault and raise nothing on clean deliveries.

Method: a CRM→dashboard feed under agreement. Run clean cycles, then
inject three fault classes (late refresh, null-polluted column, source
lockdown) and count detections per class.
"""

from repro.agreements import (
    AgreementMonitor,
    DataServiceAgreement,
    availability_obligation,
    freshness_obligation,
    null_fraction_obligation,
    row_count_obligation,
)
from repro.bench import BenchConfig, build_enterprise
from repro.sources import RelationalSource


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_setup():
    fixture = build_enterprise(BenchConfig(scale=1))
    source = RelationalSource("crm", fixture.crm)
    clock = Clock()
    monitor = AgreementMonitor(clock=clock)
    monitor.register(
        DataServiceAgreement(
            name="crm_feed",
            provider="crm",
            consumer="dashboard",
            obligations=[
                freshness_obligation(3600),
                null_fraction_obligation("email", 0.05),
                row_count_obligation(50),
                availability_obligation(),
            ],
            consumer_duties=["support routing only", "no re-distribution"],
        )
    )
    return fixture, source, monitor, clock


def delivery_context(fixture, source, staleness):
    return {
        "staleness": staleness,
        "relation": fixture.crm.table("customers").scan(),
        "source": source,
    }


def test_e11_agreements(record_experiment):
    fixture, source, monitor, clock = make_setup()

    # 1) clean deliveries: zero violations over ten cycles
    false_positives = 0
    for cycle in range(10):
        clock.now = cycle * 600.0
        violations = monitor.evaluate(
            "crm_feed", delivery_context(fixture, source, staleness=300)
        )
        false_positives += len(violations)

    detections = {}

    # 2) late refresh
    found = monitor.evaluate(
        "crm_feed", delivery_context(fixture, source, staleness=7200)
    )
    detections["late_refresh"] = [v.kind for v in found]

    # 3) quality fault: null out emails in the feed
    fixture.crm.table("customers").update_where(
        lambda row: row[0] % 2 == 0,
        lambda row: (row[0], row[1], None, row[3], row[4], row[5]),
    )
    found = monitor.evaluate(
        "crm_feed", delivery_context(fixture, source, staleness=300)
    )
    detections["null_pollution"] = [v.kind for v in found]

    # 4) source lockdown (the DBA pulls the plug on federated access)
    source.capabilities.allows_external_queries = False
    found = monitor.evaluate(
        "crm_feed", delivery_context(fixture, source, staleness=300)
    )
    detections["source_lockdown"] = [v.kind for v in found]

    rows = [
        ("clean x10", 0, false_positives, "-"),
        ("late_refresh", 1, len(detections["late_refresh"]),
         ",".join(sorted(set(detections["late_refresh"])))),
        ("null_pollution", 1,
         sum(1 for k in detections["null_pollution"] if k == "quality"),
         ",".join(sorted(set(detections["null_pollution"])))),
        ("source_lockdown", 1,
         sum(1 for k in detections["source_lockdown"] if k == "availability"),
         ",".join(sorted(set(detections["source_lockdown"])))),
    ]
    record_experiment(
        "E11",
        "every injected obligation fault is detected; clean runs stay silent",
        ["scenario", "faults_injected", "detections", "violation_kinds"],
        rows,
        notes=f"violation log holds {len(monitor.violations)} entries with timestamps",
    )

    assert false_positives == 0
    assert "freshness" in detections["late_refresh"]
    assert "quality" in detections["null_pollution"]
    assert "availability" in detections["source_lockdown"]
    assert len(monitor.violations_for("crm_feed")) >= 3
