"""A6 (observability) — the scoreboard pins blame on the injected straggler.

Halevy's panelists warn that a mediator is only as good as its knowledge
of its sources' limitations — and a flat latency total cannot say *which*
source is dragging a federated workload down. This experiment replays the
100-query dashboard mix with tracing on while a deterministic
`LatencySpike` slows every call to the support DBMS. The engine's
per-source record (`engine.scoreboard`) must (a) attribute >=90% of
the simulated remote seconds to the injected straggler and (b) carry
per-source p50/p95 histograms that make the spike visible, while (c) the
traces themselves stay internally consistent — span-summed seconds equal
the engines' MetricsCollector totals on every query.
"""

import pytest

from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES, QUERY_MIX
from repro.cache import CacheConfig, CacheHierarchy
from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy
from repro.netsim import FaultInjector, LatencySpike, SimClock
from repro.trace import Tracer

SEED = 1306
SPIKE_S = 2.0


def build_engine(fixture, tracer):
    clock = SimClock()
    injector = FaultInjector(seed=SEED, clock=clock)
    injector.script("support", LatencySpike(SPIKE_S))
    catalog = fixture.catalog(include_docs=False, wrap=injector.wrap)
    # plan cache on (schema-only), data caches off: every repetition must
    # actually pay the straggler's latency
    cache = CacheHierarchy(
        CacheConfig(fetch_enabled=False, result_enabled=False), clock=clock
    )
    return FederatedEngine(catalog, EngineConfig(clock=clock, parallel_workers=1, cache=cache, resilience=ResiliencePolicy(max_attempts=2, seed=SEED), tracer=tracer))


def test_a06_observability(record_experiment):
    fixture = build_enterprise(BenchConfig(scale=1, seed=42))
    tracer = Tracer(keep=512)
    engine = build_engine(fixture, tracer)
    scoreboard = engine.scoreboard

    total_queries = 0
    for name, weight in QUERY_MIX.items():
        for _ in range(weight):
            result = engine.query(QUERIES[name])
            total_queries += 1
            # every trace accounts exactly for its query's metrics
            assert result.trace.work_seconds() == pytest.approx(
                result.metrics.simulated_seconds, abs=1e-9
            ), name
            assert (
                result.trace.sum_attr("payload_bytes")
                == result.metrics.payload_bytes
            ), name

    assert tracer.finished == total_queries
    support_share = scoreboard.share("support")
    support = scoreboard.sources["support"]
    others_p95 = max(
        stats.summary()["p95_s"]
        for name, stats in scoreboard.sources.items()
        if name != "support"
    )

    rows = [
        (
            name,
            summary["fetches"],
            round(summary["p50_s"], 4),
            round(summary["p95_s"], 4),
            round(summary["seconds"], 4),
            f"{100.0 * scoreboard.share(name):.1f}%",
        )
        for name, summary in (
            (stats.name, stats.summary())
            for stats in sorted(
                scoreboard.sources.values(), key=lambda s: -s.seconds
            )
        )
    ]
    record_experiment(
        "A6",
        "per-source span scoreboards attribute >=90% of simulated remote "
        "time to the injected straggler",
        ["source", "fetches", "p50_s", "p95_s", "total_s", "share"],
        rows,
        notes=(
            f"{total_queries}-query dashboard mix, tracing on; schedule: "
            f"LatencySpike(+{SPIKE_S}s) on every support call, seed={SEED}; "
            f"support share={100.0 * support_share:.1f}%"
        ),
        metrics={
            "support_share": round(support_share, 4),
            "support_p50_s": round(support.summary()["p50_s"], 6),
            "support_p95_s": round(support.summary()["p95_s"], 6),
            "others_p95_s": round(others_p95, 6),
            "support_fetches": support.statements,
            "queries": total_queries,
        },
        gates={
            "straggler_blamed": ("support_share", ">=", 0.90),
            "spike_visible_p50": ("support_p50_s", ">=", SPIKE_S),
        },
        headline={"metric": "support_share", "direction": "up"},
    )

    # (a) blame lands on the straggler, overwhelmingly
    assert support_share >= 0.90
    # (b) the spike is visible in the straggler's own histogram
    assert support.summary()["p50_s"] >= SPIKE_S
    assert support.summary()["p95_s"] > others_p95 * 5
    # the straggler was exercised by the mix (q7 rides on tickets)
    assert support.statements >= QUERY_MIX["q7_support_risk"]
