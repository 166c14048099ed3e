"""A4 (ablation) — fault-tolerant execution under a scripted fault schedule.

The panel's mediator federates sources it does not operate: transient
connection errors, overload and outages are the norm, not the exception.
This experiment replays the 100-query dashboard mix against the same
deterministic fault schedule (seeded `FaultInjector`: error rates on the
two busiest DBMSs, a hard outage of the support system) with increasing
levels of resilience:

* **naive** — the fail-fast engine: any source error kills the query;
* **retry** — bounded retries with exponential backoff on the sim clock;
* **full**  — retries + circuit breakers + failover to registered
  replicas + opt-in partial results for non-essential branches.

Every answer is checked row-for-row against a fault-free reference run:
an unflagged deviation ("silently wrong") is the one inadmissible
outcome. Availability and simulated latency are reported per level.
"""

from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES, QUERY_MIX
from repro.cache import CacheConfig, CacheHierarchy
from repro.common.errors import EIIError
from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy
from repro.netsim import ErrorRate, FaultInjector, Outage, SimClock
from repro.sources import RelationalSource

SEED = 1305


def scripted_injector(clock):
    """The fault schedule every engine level faces (fresh RNG streams)."""
    injector = FaultInjector(seed=SEED, clock=clock)
    injector.script("crm", ErrorRate(0.45))
    injector.script("sales", ErrorRate(0.45))
    injector.script("support", Outage(message="support DBMS down"))
    return injector


def add_replicas(catalog, fixture):
    """Healthy standbys mirroring the three relational primaries."""
    for name, db in (
        ("crm", fixture.crm),
        ("sales", fixture.sales),
        ("support", fixture.support),
    ):
        catalog.register_replica(RelationalSource(f"{name}_standby", db))


def run_mix(engine, reference):
    """Replay the weighted mix; classify each query's outcome."""
    stats = {"full": 0, "partial": 0, "error": 0, "silently_wrong": 0}
    latency = 0.0
    for name, weight in QUERY_MIX.items():
        for _ in range(weight):
            try:
                result = engine.query(QUERIES[name])
            except EIIError:
                stats["error"] += 1
                continue
            latency += result.elapsed_seconds
            if result.is_partial:
                stats["partial"] += 1
            elif sorted(result.relation.rows) == reference[name]:
                stats["full"] += 1
            else:
                stats["silently_wrong"] += 1
    return stats, latency


def build_engine(fixture, resilience=None, partial_results=False,
                 with_replicas=False):
    clock = SimClock()
    injector = scripted_injector(clock)
    catalog = fixture.catalog(include_docs=False, wrap=injector.wrap)
    if with_replicas:
        add_replicas(catalog, fixture)
    # plan cache on (schema-only), data caches off: every repetition must
    # actually face the fault schedule
    cache = CacheHierarchy(
        CacheConfig(fetch_enabled=False, result_enabled=False), clock=clock
    )
    return FederatedEngine(catalog, EngineConfig(clock=clock, cache=cache, resilience=resilience, partial_results=partial_results))


def test_a04_fault_tolerance(record_experiment):
    fixture = build_enterprise(BenchConfig(scale=1, seed=42))

    healthy = FederatedEngine(fixture.catalog(include_docs=False))
    reference = {
        name: sorted(healthy.query(QUERIES[name]).relation.rows)
        for name in QUERY_MIX
    }

    naive = build_engine(fixture)
    naive_stats, naive_latency = run_mix(naive, reference)

    retry_policy = ResiliencePolicy(
        max_attempts=4, breaker_failure_threshold=None, failover=False, seed=SEED
    )
    retry = build_engine(fixture, resilience=retry_policy)
    retry_stats, retry_latency = run_mix(retry, reference)

    full_policy = ResiliencePolicy(
        max_attempts=4,
        breaker_failure_threshold=5,
        breaker_cooldown_s=2.0,
        seed=SEED,
    )
    full = build_engine(
        fixture, resilience=full_policy, partial_results=True, with_replicas=True
    )
    full_stats, full_latency = run_mix(full, reference)

    total = sum(QUERY_MIX.values())

    def row(label, stats, latency):
        answered = stats["full"] + stats["partial"]
        return (
            label,
            stats["full"],
            stats["partial"],
            stats["error"],
            stats["silently_wrong"],
            f"{100.0 * answered / total:.0f}%",
            round(latency, 4),
        )

    record_experiment(
        "A4",
        "retry+breaker+failover turns a >=50%-failure schedule into >=95% "
        "full answers with zero silently-wrong results",
        ["engine", "full", "partial", "error", "silently_wrong",
         "availability", "sim_latency_s"],
        [
            row("naive (fail-fast)", naive_stats, naive_latency),
            row("retry+backoff", retry_stats, retry_latency),
            row("retry+breaker+failover+partial", full_stats, full_latency),
        ],
        notes=(
            f"{total}-query dashboard mix; schedule: ErrorRate(0.45) on "
            f"crm+sales, hard outage of support, seed={SEED}; breakers after "
            f"the full run: {full.resilience.breaker_states()}"
        ),
        metrics={
            "naive_errors": naive_stats["error"],
            "retry_full": retry_stats["full"],
            "full_answers": full_stats["full"],
            "full_partials": full_stats["partial"],
            "full_errors": full_stats["error"],
            "full_availability": round(
                (full_stats["full"] + full_stats["partial"]) / total, 4
            ),
            "silently_wrong": (
                naive_stats["silently_wrong"]
                + retry_stats["silently_wrong"]
                + full_stats["silently_wrong"]
            ),
            "full_latency_s": round(full_latency, 6),
        },
        gates={
            "hostile_schedule": ("naive_errors", ">=", total // 2),
            "full_answers_95pct": ("full_answers", ">=", round(0.95 * total)),
            "no_errors_full_stack": ("full_errors", "==", 0),
            "nothing_silently_wrong": ("silently_wrong", "==", 0),
        },
        headline={"metric": "full_availability", "direction": "up"},
    )

    # The schedule is genuinely hostile: the naive engine loses the majority.
    assert naive_stats["error"] >= total // 2
    # Retries alone rescue the transient errors but not the outage.
    assert retry_stats["full"] > naive_stats["full"]
    assert retry_stats["error"] > 0
    # The full stack: >=95% answered fully, the rest annotated partials,
    # nothing silently wrong anywhere.
    assert full_stats["full"] >= round(0.95 * total)
    assert full_stats["error"] == 0
    assert full_stats["full"] + full_stats["partial"] == total
    for stats in (naive_stats, retry_stats, full_stats):
        assert stats["silently_wrong"] == 0
