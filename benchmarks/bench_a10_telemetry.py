"""A10 (telemetry) — the observability plane sees an outage before the
resilience layer reacts to it, and never changes an answer.

The panel's mediator is shared infrastructure operated by people who do
not own the sources it federates: when the support DBMS drops mid-shift,
the operator's first questions are *which source*, *since when*, *who is
affected*, and *has it recovered* — none of which a per-query metric can
answer. This experiment replays a 200-query multi-tenant workload through
the scheduler while a scripted fault schedule runs underneath: a hard
`Outage` of the support DBMS over a mid-workload time window, plus a
constant `LatencySpike` on the sales DBMS (slow-but-steady, not broken).
The attached `TelemetryPlane` must:

* flip the support source to a non-healthy state within **one aligned
  window** of the outage's start;
* fire a per-tenant **SLO error-burn alert before** the circuit breaker
  first opens — pages lead reactions, because the SLO stream sees the
  first failed outcome while the breaker still needs 8 consecutive ones;
* walk the full **firing→resolved lifecycle**: once the outage window
  ends and the breaker re-closes, the health and burn alerts resolve;
* judge sources against *themselves*: the spiked-but-steady sales DBMS
  stays healthy (its own baseline absorbs the spike) and never pages;
* stay **observe-only and deterministic**: a byte-identical rerun of the
  seeded scenario produces byte-identical JSONL and Prometheus exports.
"""

from repro.bench import BenchConfig, build_enterprise
from repro.cache import CacheConfig, CacheHierarchy
from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy
from repro.netsim import FaultInjector, LatencySpike, Outage, SimClock
from repro.sched import DEFAULT_TENANTS, SchedulerConfig, WorkloadScheduler, make_workload
from repro.telemetry import HEALTHY, SloPolicy, TelemetryPlane

SEED = 1310
N_QUERIES = 300
MEAN_GAP_S = 0.02
#: aligned telemetry window — the detection-latency yardstick
WINDOW_S = 0.5
#: the support DBMS is down over this sim-clock window, mid-workload
OUTAGE_START_S = 1.0
OUTAGE_END_S = 2.0
#: every sales call is slower by this much, from the first call on
SPIKE_S = 0.15
#: tight error budget: one non-answer in the 50-outcome window pages
ERROR_BUDGET = 0.02
SLO_WINDOW = 50
#: the breaker needs this many consecutive failures before it reacts
BREAKER_THRESHOLD = 5


def run_scenario(fixture):
    """One seeded telemetry-on workload run; returns (plane, engine, result)."""
    clock = SimClock()
    injector = FaultInjector(seed=SEED, clock=clock)
    injector.script("support", Outage(start_s=OUTAGE_START_S, end_s=OUTAGE_END_S))
    injector.script("sales", LatencySpike(SPIKE_S))
    catalog = fixture.catalog(include_docs=False, wrap=injector.wrap)
    # plan cache on, data caches off: every query faces the fault schedule
    cache = CacheHierarchy(
        CacheConfig(fetch_enabled=False, result_enabled=False), clock=clock
    )
    telemetry = TelemetryPlane(
        clock=clock,
        window_s=WINDOW_S,
        default_slo=SloPolicy(error_budget=ERROR_BUDGET, window=SLO_WINDOW),
        # batch is low-traffic and best-effort: a looser budget over a
        # shorter window, so one outage-era failure cannot pin its burn
        # alert past the end of the workload
        slo_policies={
            "batch": SloPolicy(tenant="batch", error_budget=0.10, window=15)
        },
    )
    engine = FederatedEngine(catalog, EngineConfig(clock=clock, cache=cache, resilience=ResiliencePolicy(
            max_attempts=1,
            breaker_failure_threshold=BREAKER_THRESHOLD,
            breaker_cooldown_s=1.0,
            failover=False,
            seed=SEED,
        ), telemetry=telemetry))
    requests = make_workload(N_QUERIES, seed=SEED, mean_gap_s=MEAN_GAP_S)
    result = WorkloadScheduler(
        engine, tenants=DEFAULT_TENANTS, config=SchedulerConfig(workers=8)
    ).run(requests)
    return telemetry, engine, result


def test_a10_telemetry(record_experiment):
    fixture = build_enterprise(BenchConfig(scale=1, seed=42))
    plane, engine, result = run_scenario(fixture)

    # -- detection: support flips non-healthy within one window ------------------
    support = plane.health.sources["support"]
    first_bad = next(t for t in support.transitions if t[2] != HEALTHY)
    detect_s = first_bad[0] - OUTAGE_START_S
    assert 0.0 <= detect_s <= WINDOW_S, support.transitions

    # -- paging leads reaction: SLO burn fires before the breaker opens ----------
    breaker = engine.resilience.peek_breaker("support")
    t_open = next(at for at, _, to in breaker.transitions if to == "open")
    burn_alert = plane.alerts.first("slo.")
    assert burn_alert is not None
    assert burn_alert.fired_at_s < t_open, (burn_alert.fired_at_s, t_open)
    lead_s = t_open - burn_alert.fired_at_s

    # -- lifecycle: outage over, breaker re-closed, alerts resolved --------------
    health_alert = plane.alerts.first("health.support")
    assert health_alert is not None and not health_alert.firing
    assert health_alert.resolved_at_s > OUTAGE_END_S
    assert not burn_alert.firing
    assert support.state == HEALTHY
    assert breaker.state.value == "closed"
    unresolved = [a.key for a in plane.alerts.firing()]
    assert unresolved == [], unresolved

    # -- self-baselines: slow-but-steady sales never pages -----------------------
    assert plane.health.state("sales") == HEALTHY
    assert plane.alerts.first("health.sales") is None

    # -- observe-only: the plane and the workload account agree, nothing dropped -
    assert plane.health.transition_count >= 2  # down and back
    answered = sum(1 for o in result.outcomes if o.answered)
    errors = sum(1 for o in result.outcomes if not o.answered)
    assert errors > 0  # the outage was user-visible
    assert answered + errors == N_QUERIES
    assert (result.total.queries, result.total.answered) == (N_QUERIES, answered)

    # -- determinism: the seeded scenario replays byte-for-byte ------------------
    plane2, _, _ = run_scenario(fixture)
    replay_identical = int(
        plane.export_jsonl() == plane2.export_jsonl()
        and plane.export_prometheus() == plane2.export_prometheus()
    )
    assert replay_identical == 1

    rows = [
        (
            name,
            entry.state,
            len(entry.transitions),
            ",".join(sorted({t[2] for t in entry.transitions})) or "-",
        )
        for name, entry in sorted(plane.health.sources.items())
    ]
    record_experiment(
        "A10",
        "the telemetry plane detects a mid-workload outage within one "
        "aligned window, pages on SLO burn before the breaker opens, "
        "resolves every alert after recovery, and replays byte-identically",
        ["source", "final_state", "transitions", "states_seen"],
        rows,
        notes=(
            f"{N_QUERIES}-query workload, seed={SEED}, window={WINDOW_S}s; "
            f"support Outage [{OUTAGE_START_S},{OUTAGE_END_S})s, sales "
            f"LatencySpike(+{SPIKE_S}s); detect={detect_s:.3f}s, SLO page "
            f"led the breaker by {lead_s:.3f}s; "
            f"{plane.alerts.fired_total} alerts fired, "
            f"{plane.alerts.resolved_total} resolved"
        ),
        metrics={
            "detect_s": round(detect_s, 6),
            "slo_lead_s": round(lead_s, 6),
            "alerts_fired": plane.alerts.fired_total,
            "alerts_resolved": plane.alerts.resolved_total,
            "health_transitions": plane.health.transition_count,
            "windows_closed": plane.series.closed,
            "errors": errors,
            "answered": answered,
            "replay_identical": replay_identical,
        },
        gates={
            "detected_within_one_window": ("detect_s", "<=", WINDOW_S),
            "slo_pages_before_breaker": ("slo_lead_s", ">", 0.0),
            "lifecycle_resolves": ("alerts_resolved", ">=", 2),
            "deterministic_replay": ("replay_identical", "==", 1),
        },
        headline={"metric": "detect_s", "direction": "down"},
    )
