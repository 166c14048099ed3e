"""A3 (ablation) — the cache hierarchy on a repeated dashboard workload.

Halevy's §1 puts the EII mediator on the hot path between users and slow
heterogeneous sources; Bitton's §3 attributes elapsed time to repeated
source round-trips. The three-level cache (`repro.cache`) attacks exactly
that: the weighted dashboard mix (100 queries, 7 shapes) is replayed
against engines with increasing cache levels enabled, then after a write
to `orders` to show invalidation re-fetching only the dependent entries.
Plan-cache and fetch-cache hits are reported separately so each level's
contribution is visible.
"""

from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES, QUERY_MIX
from repro.cache import CacheConfig, CacheHierarchy
from repro.eai import MessageBroker
from repro.federation import EngineConfig, FederatedEngine


def run_mix(engine):
    """One weighted pass over the dashboard mix; returns (sim_s, hit counts)."""
    total = 0.0
    plan_hits = fetch_hits = result_hits = 0
    for name, weight in QUERY_MIX.items():
        for _ in range(weight):
            result = engine.query(QUERIES[name])
            total += result.elapsed_seconds
            plan_hits += result.metrics.plan_cache_hits
            fetch_hits += result.metrics.fetch_cache_hits
            result_hits += 1 if result.from_cache else 0
    return total, plan_hits, fetch_hits, result_hits


def fill(engine):
    """Prime the caches with one pass over the distinct query shapes."""
    total = 0.0
    for name in QUERY_MIX:
        total += engine.query(QUERIES[name]).elapsed_seconds
    return total


def test_a03_cache_hierarchy(record_experiment):
    fixture = build_enterprise(BenchConfig(scale=1, seed=42))

    def engine_with(**config_kwargs):
        cache = CacheHierarchy(CacheConfig(**config_kwargs))
        return FederatedEngine(fixture.catalog(), EngineConfig(cache=cache)), cache

    # Cold baseline: every repetition pays the full plan + fetch price.
    cold_engine, _ = engine_with(
        plan_enabled=False, fetch_enabled=False, result_enabled=False
    )
    cold_s, _, _, _ = run_mix(cold_engine)

    # Plan + fetch levels: repeated shapes skip planning and source round-trips.
    warm_engine, warm_cache = engine_with(result_enabled=False)
    fill_s = fill(warm_engine)
    warm_s, warm_plan_hits, warm_fetch_hits, _ = run_mix(warm_engine)

    # All three levels: repeated texts short-circuit to the whole result.
    full_engine, _ = engine_with()
    fill(full_engine)
    full_s, _, full_fetch_hits, full_result_hits = run_mix(full_engine)

    # A write to `orders` through the broker: only dependent entries re-fetch.
    broker = MessageBroker()
    warm_engine.attach_invalidation(broker)
    broker.publish("table.orders.changed", {"table": "orders", "version": 2})
    inval_s, _, inval_fetch_hits, _ = run_mix(warm_engine)

    def speedup(seconds):
        return round(cold_s / seconds, 1) if seconds > 0 else float("inf")

    rows = [
        ("cold (caches off)", round(cold_s, 4), 0, 0, 0, 1.0),
        ("fill (7 shapes once)", round(fill_s, 4), 0, 0, 0, ""),
        ("warm plan+fetch", round(warm_s, 4), warm_plan_hits, warm_fetch_hits, 0, speedup(warm_s)),
        ("warm + result level", round(full_s, 4), 0, full_fetch_hits, full_result_hits, speedup(full_s)),
        ("after orders write", round(inval_s, 4), 100, inval_fetch_hits, 0, speedup(inval_s)),
    ]
    record_experiment(
        "A3",
        "cache hierarchy: warm repeated-workload speedup and invalidation cost",
        ["phase", "sim_total_s", "plan_hits", "fetch_hits", "result_hits", "speedup_vs_cold"],
        rows,
        notes=(
            "100-query weighted dashboard mix; fetch stats: "
            f"{warm_cache.fetches.stats.summary()}"
        ),
        metrics={
            "cold_s": round(cold_s, 6),
            "warm_s": round(warm_s, 6),
            "full_s": round(full_s, 6),
            "inval_s": round(inval_s, 6),
            "warm_speedup": round(cold_s / warm_s, 4),
            "warm_plan_hits": warm_plan_hits,
            "warm_fetch_hits": warm_fetch_hits,
            "full_result_hits": full_result_hits,
        },
        gates={
            "warm_speedup_5x": ("warm_speedup", ">=", 5.0),
            "all_plans_cached": ("warm_plan_hits", "==", 100),
            "result_level_serves_all": ("full_result_hits", "==", 100),
        },
        headline={"metric": "warm_speedup", "direction": "up"},
    )

    # The warm phase must beat cold by >= 5x with both levels reported.
    assert warm_plan_hits == 100  # every mix query reuses a cached plan
    assert warm_fetch_hits > 0
    assert cold_s / warm_s >= 5.0
    # The result level can only help further.
    assert full_s <= warm_s
    assert full_result_hits == 100
    # Invalidation costs something (orders-dependent entries re-fetch) but
    # far less than a cold start (everything else stays cached).
    assert warm_s < inval_s < cold_s
    assert 0 < inval_fetch_hits < warm_fetch_hits + 1
