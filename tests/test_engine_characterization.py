"""Characterization of `FederatedEngine.query()` over the EIIBench mix.

`tests/golden/engine_characterization.json` records, for Q1–Q12 at scale 1
under four engine configurations, everything a caller can observe about
one query: the answer's row digest, `metrics.summary()`, `explain()` and
the exported trace. It was generated *before* the engine's fetch and
epilogue paths were folded into one, so replaying it proves a refactor of
`federation/engine.py` held behaviour byte for byte. One entry differs from
that first generation, by design: `faulty/pass0/q6_region_rollup` now lists
`crm_standby`, not `crm`, under `sources_answered` — its bind-join chunks
were served by the replica (the completeness fix that rode with the fold).
The bind-join gate counted in distinct keys re-planned q4, q5, q6, q9 and q12
(the explain, summary, elapsed and trace entries of those keys, and q8's
fetch-cache hits under `cached`); q5 and q9 add their float sums in another
order, so their row digests moved in the last bits while their rows
compared to 9 significant digits did not. Eager aggregation re-planned q5,
q6, q9 and q12 under all four configurations (their explain, summary,
elapsed and trace entries; `faulty` q12's estimated missing fraction); q5,
q9 and q12 sum per-customer partials, so their row digests moved in the
last bits again (not `faulty` q12's, nor q6's).

Regenerate (only when behaviour is meant to change) with:

    PYTHONPATH=src python tests/test_engine_characterization.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.cache import CacheConfig, CacheHierarchy
from repro.common.errors import EIIError
from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy
from repro.netsim import FaultInjector, Outage, SimClock
from repro.sources import RelationalSource
from repro.trace import Tracer, trace_to_json

GOLDEN = Path(__file__).parent / "golden" / "engine_characterization.json"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _observe(engine, sql) -> dict:
    """Everything one `query()` call shows its caller, JSON-ready."""
    try:
        result = engine.query(sql)
    except EIIError as exc:
        metrics = getattr(exc, "metrics", None)
        return {
            "error": f"{type(exc).__name__}: {exc}",
            "summary": metrics.summary() if metrics is not None else None,
        }
    return {
        "rows": _digest(repr(sorted(result.relation.rows, key=repr))),
        "row_count": len(result.relation),
        "from_cache": result.from_cache,
        "elapsed_seconds": result.elapsed_seconds,
        "summary": result.metrics.summary(),
        "explain": result.explain(),
        "completeness": None
        if result.completeness is None
        else result.completeness.summary(),
        "trace": None
        if result.trace is None
        else _digest(trace_to_json(result.trace)),
    }


def _default(fixture):
    clock = SimClock()
    return FederatedEngine(fixture.catalog(), EngineConfig(clock=clock)), 1


def _cached(fixture):
    # fetch + result levels on; the second pass is served from the result
    # cache, so both the miss and the hit exits are recorded
    clock = SimClock()
    cache = CacheHierarchy(CacheConfig(), clock=clock)
    return FederatedEngine(fixture.catalog(), EngineConfig(clock=clock, cache=cache)), 2


def _faulty(fixture):
    # support is down for good (its LEFT-join branch degrades, its inner
    # joins fail); crm is down too but has a healthy standby (failover)
    clock = SimClock()
    injector = FaultInjector(seed=13, clock=clock)
    injector.script("support", Outage(message="support DBMS down"))
    injector.script("crm", Outage(message="crm DBMS down"))
    catalog = fixture.catalog(wrap=injector.wrap)
    catalog.register_replica(RelationalSource("crm_standby", fixture.crm))
    config = EngineConfig(
        clock=clock,
        resilience=ResiliencePolicy(max_attempts=2),
        partial_results=True,
    )
    return FederatedEngine(catalog, config), 1


def _observed(fixture):
    clock = SimClock()
    config = EngineConfig(
        clock=clock, tracer=Tracer(), telemetry=True, adaptive=True
    )
    # two passes: the second runs on the first's cardinality feedback
    return FederatedEngine(fixture.catalog(), config), 2


CONFIGS = {
    "default": _default,
    "cached": _cached,
    "faulty": _faulty,
    "observed": _observed,
}


def characterize() -> dict:
    fixture = build_enterprise(BenchConfig(scale=1, seed=42))
    out: dict = {}
    for config_name, build in CONFIGS.items():
        engine, passes = build(fixture)
        for pass_index in range(passes):
            for query_name, sql in QUERIES.items():
                key = f"{config_name}/pass{pass_index}/{query_name}"
                out[key] = _observe(engine, sql)
    # normalize through JSON so tuples/floats compare as the file stores them
    return json.loads(json.dumps(out, sort_keys=True))


@pytest.fixture(scope="module")
def actual():
    return characterize()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_config_and_query(actual, golden):
    assert sorted(actual) == sorted(golden)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_engine_behaviour_matches_golden(actual, golden, config_name):
    for key in sorted(golden):
        if key.startswith(config_name + "/"):
            assert actual[key] == golden[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(characterize(), sort_keys=True, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")
