"""A5 (ablation) — pre-flight static analysis vs. runtime discovery.

Halevy: an EII system must respect "the limitations and capabilities of
each source". The seeded defect corpus below violates those limits in
three representative ways:

* **binding violation** — scanning the credit bureau, which only answers
  point lookups bound on `cust_id` (`SourceCapabilities.binding_patterns`);
* **closed source** — joining against a DBMS whose owner has switched off
  external queries (Bitton's "may I run my queries on your system?"),
  which the planner cannot see and the wrapper only reports at run time;
* **unknown column** — a typo'd attribute that survives until binding.

Each defect (plus a healthy control query) runs against two engines over
the same enterprise fixture and retry policy: **naive**, which discovers
the defect mid-federation after shipping bytes and burning retries, and
**validated** (`validate=True`), which rejects it from the static
analyzer with a typed diagnostic before a single byte ships.
"""

from repro.bench import BenchConfig, build_enterprise
from repro.common.errors import EIIError
from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy

SEED = 1405

DEFECTS = [
    (
        "binding violation",
        "EII201",
        "SELECT * FROM credit",
    ),
    (
        "closed source",
        "EII202",
        "SELECT c.name, o.total, i.amount "
        "FROM customers c, orders o, invoices i "
        "WHERE c.id = o.cust_id AND c.id = i.cust_id AND i.paid = FALSE",
    ),
    (
        "unknown column",
        "EII102",
        "SELECT c.bogus FROM customers c",
    ),
]

CONTROL = (
    "SELECT c.name, o.total FROM customers c, orders o "
    "WHERE c.id = o.cust_id AND o.total > 400"
)


def build_engines(fixture):
    """Same catalog, same retry policy; only pre-flight analysis differs."""

    def engine(validate):
        catalog = fixture.catalog(include_docs=False)
        # the finance DBMS owner has revoked external query access — a
        # policy change the planner's static metadata knows nothing about
        catalog.sources["finance"].capabilities.allows_external_queries = False
        policy = ResiliencePolicy(
            max_attempts=3, breaker_failure_threshold=None, failover=False,
            seed=SEED,
        )
        return FederatedEngine(catalog, EngineConfig(resilience=policy, validate=validate))

    return engine(False), engine(True)


def run_query(engine, sql):
    """Execute `sql`; classify the outcome and charge its observed cost."""
    try:
        result = engine.query(sql)
    except EIIError as exc:
        metrics = getattr(exc, "metrics", None)
        report = getattr(exc, "report", None)
        label = (
            "rejected " + "+".join(sorted(report.codes()))
            if report is not None
            else f"failed ({type(exc).__name__})"
        )
        return (
            label,
            metrics.payload_bytes if metrics else 0,
            metrics.retries if metrics else 0,
            metrics.source_failures if metrics else 0,
        )
    metrics = result.metrics
    return (
        "answered",
        metrics.payload_bytes,
        metrics.retries,
        metrics.source_failures,
    )


def test_a05_static_analysis(record_experiment):
    fixture = build_enterprise(BenchConfig(scale=1, seed=42))
    naive, validated = build_engines(fixture)

    rows = []
    outcomes = {}
    for name, code, sql in DEFECTS + [("control (healthy)", "-", CONTROL)]:
        for label, engine in (("naive", naive), ("validated", validated)):
            outcome, payload, retries, failures = run_query(engine, sql)
            outcomes[(name, label)] = (outcome, payload, retries, failures)
            rows.append((name, label, outcome, payload, retries, failures))

    record_experiment(
        "A5",
        "pre-flight static analysis rejects every seeded defect with zero "
        "bytes shipped and zero retries; the naive engine ships bytes and "
        "burns retries before failing on the same queries",
        ["defect", "engine", "outcome", "payload_bytes", "retries",
         "source_failures"],
        rows,
        notes=(
            "enterprise fixture scale=1; both engines share "
            f"ResiliencePolicy(max_attempts=3, seed={SEED}); the finance "
            "DBMS refuses external queries; expected diagnostic per "
            "defect: "
            + ", ".join(f"{name} -> {code}" for name, code, _ in DEFECTS)
        ),
        metrics={
            "defects_rejected": sum(
                1
                for name, code, _ in DEFECTS
                if outcomes[(name, "validated")][0] == f"rejected {code}"
            ),
            "defects_total": len(DEFECTS),
            "validated_wasted_bytes": sum(
                outcomes[(name, "validated")][1] for name, _, _ in DEFECTS
            ),
            "validated_wasted_retries": sum(
                outcomes[(name, "validated")][2] for name, _, _ in DEFECTS
            ),
            "naive_wasted_bytes": sum(
                outcomes[(name, "naive")][1] for name, _, _ in DEFECTS
            ),
        },
        gates={
            "all_defects_rejected": ("defects_rejected", "==", len(DEFECTS)),
            "zero_bytes_shipped": ("validated_wasted_bytes", "==", 0),
            "zero_retries_burned": ("validated_wasted_retries", "==", 0),
        },
        headline={"metric": "defects_rejected", "direction": "up"},
    )

    # The validated engine: every defect rejected before execution, with a
    # typed diagnostic, zero bytes on the wire and zero retries burned.
    for name, code, _sql in DEFECTS:
        outcome, payload, retries, _ = outcomes[(name, "validated")]
        assert outcome == f"rejected {code}", (name, outcome)
        assert payload == 0 and retries == 0, (name, payload, retries)

    # The naive engine discovers the closed source mid-federation: the CRM
    # rows it already shipped and the retry budget are pure waste.
    outcome, payload, retries, failures = outcomes[("closed source", "naive")]
    assert outcome.startswith("failed"), outcome
    assert payload > 0 and retries > 0 and failures > 0

    # Pre-flight analysis is not lossy: the healthy control query answers
    # identically (and ships identical bytes) on both engines.
    for label in ("naive", "validated"):
        assert outcomes[("control (healthy)", label)][0] == "answered"
    assert (
        sorted(naive.query(CONTROL).relation.rows)
        == sorted(validated.query(CONTROL).relation.rows)
    )
