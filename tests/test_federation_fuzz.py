"""Property-based federation fuzzing.

The central correctness property of an EII engine: for ANY query, the
federated answer must equal the answer a single database co-locating all
tables would give. Hypothesis generates random queries over the EIIBench
schema (filters, joins, aggregates, order/limit, unions) and random
planner configurations. The federated result is held row-for-row
(`same_rows`) against stdlib `sqlite3` over the same tables (`REFERENCE`),
which shares no rewrite with the engine, and - where the property is that
the hub answers as one source would - against a co-located `LocalEngine`.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import BenchConfig, build_enterprise
from repro.engine import LocalEngine
from repro.federation import EngineConfig, FederatedEngine
from repro.storage import Database
from repro.wrappers import CONSERVATIVE, GENERIC, QUIRK_AWARE
from tests.federation_fixtures import unfit
from tests.sqlite_reference import SqliteReference, row_mismatch

FIXTURE = build_enterprise(BenchConfig(scale=1, seed=11))


def colocated_db() -> Database:
    """All federated tables copied into one local database."""
    db = Database("colocated")
    for source_db in (FIXTURE.crm, FIXTURE.sales, FIXTURE.support, FIXTURE.finance):
        for table in source_db.tables():
            clone = db.create_table(
                table.name,
                [(c.name, c.dtype) for c in table.schema],
                primary_key=list(table.primary_key) or None,
            )
            clone.insert_many(table.rows())
    # marketing spreadsheet tables
    for name in FIXTURE.marketing.table_names():
        schema = FIXTURE.marketing.schema_of(name)
        clone = db.create_table(name, [(c.name, c.dtype) for c in schema])
        from repro.sql.parser import parse_select

        rows = FIXTURE.marketing.execute_select(
            parse_select(f"SELECT * FROM {name}")
        ).rows
        clone.insert_many(rows)
    return db


#: one database holding every table: the hub must order and cut a LIMIT as it does
BASELINE = LocalEngine(colocated_db())
REFERENCE = SqliteReference(FIXTURE)


def same_rows(federated, sql: str) -> bool:
    """Whether `federated` holds sqlite's answer to `sql`: multiset equality,
    exact but for float columns (`REL_TOL`): the planner may pre-aggregate a
    join input, and SQL leaves summation order open."""
    return row_mismatch(federated.rows, REFERENCE.query(sql)) is None

# -- query generation ---------------------------------------------------------

TABLES = {
    "customers": ["id", "name", "city", "segment"],
    "orders": ["id", "cust_id", "total", "status"],
    "tickets": ["id", "cust_id", "severity", "state"],
    "invoices": ["id", "cust_id", "amount", "paid"],
    "regions": ["city", "region"],
}

JOIN_KEYS = {
    ("customers", "orders"): ("id", "cust_id"),
    ("customers", "tickets"): ("id", "cust_id"),
    ("customers", "invoices"): ("id", "cust_id"),
    ("customers", "regions"): ("city", "city"),
}

#: the numeric column of a partner its aggregates read
PARTNER_VALUES = {"orders": "total", "tickets": "severity", "invoices": "amount"}

FILTERS = {
    "customers": [
        "{a}.segment = 'enterprise'",
        "{a}.city IN ('SF', 'NY')",
        "{a}.id BETWEEN 20 AND 120",
        "{a}.name LIKE 'B%'",
    ],
    "orders": [
        "{a}.total > 800",
        "{a}.status = 'open'",
        "{a}.total < 3000 AND {a}.status <> 'returned'",
    ],
    "tickets": ["{a}.severity >= 3", "{a}.state = 'open'"],
    "invoices": ["{a}.paid = FALSE", "{a}.amount > 4000"],
    "regions": ["{a}.region = 'west'"],
}


@st.composite
def random_query(draw):
    base = "customers"
    partners = draw(
        st.lists(
            st.sampled_from(["orders", "tickets", "invoices", "regions"]),
            unique=True,
            max_size=2,
        )
    )
    from_clause = "customers c0"
    conds = []
    aliases = {"customers": "c0"}
    for index, partner in enumerate(partners, start=1):
        alias = f"t{index}"
        aliases[partner] = alias
        left_key, right_key = JOIN_KEYS[(base, partner)]
        kind = draw(st.sampled_from(["JOIN", "JOIN", "LEFT JOIN"]))
        from_clause += (
            f" {kind} {partner} {alias} ON c0.{left_key} = {alias}.{right_key}"
        )
    for table, alias in aliases.items():
        if draw(st.booleans()):
            template = draw(st.sampled_from(FILTERS[table]))
            conds.append(template.format(a=alias))

    aggregate = draw(st.booleans())
    if aggregate:
        group_col = draw(st.sampled_from(["c0.city", "c0.segment"]))
        aggregates = ["COUNT(*)", "MIN(c0.id)", "MAX(c0.id)"]
        if partners and partners[0] in PARTNER_VALUES:
            value = f"t1.{PARTNER_VALUES[partners[0]]}"
            aggregates += [f"{fn}({value})" for fn in ("SUM", "AVG", "COUNT", "MAX")]
        agg = draw(st.sampled_from(aggregates))
        select = f"{group_col}, {agg} AS v"
        tail = f" GROUP BY {group_col}"
    else:
        columns = draw(
            st.lists(st.sampled_from(["c0.id", "c0.name", "c0.city"]),
                     min_size=1, max_size=2, unique=True)
        )
        select = ", ".join(columns)
        tail = ""
        if draw(st.booleans()):
            select = "DISTINCT " + select

    sql = f"SELECT {select} FROM {from_clause}"
    if conds:
        sql += " WHERE " + " AND ".join(conds)
    sql += tail
    return sql


@st.composite
def planner_config(draw):
    return {
        "semijoin": draw(st.sampled_from(["auto", "force", "off"])),
        "choose_assembly_site": draw(st.booleans()),
        "parallel_workers": draw(st.sampled_from([1, 4])),
    }


@st.composite
def dialect_pair(draw):
    return (
        draw(st.sampled_from([GENERIC, CONSERVATIVE, QUIRK_AWARE])),
        draw(st.sampled_from([GENERIC, CONSERVATIVE, QUIRK_AWARE])),
    )


@given(sql=random_query(), config=planner_config(), dialects=dialect_pair())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_federated_equals_colocated(sql, config, dialects):
    crm_dialect, sales_dialect = dialects
    catalog = FIXTURE.catalog(
        crm_dialect=crm_dialect,
        sales_dialect=sales_dialect,
        include_credit=False,
        include_docs=False,
    )
    engine = FederatedEngine(catalog, EngineConfig(**config))
    result = engine.query(sql)
    assert same_rows(result.relation, sql), sql
    assert unfit(result.plan) == [], sql


@given(sql=random_query(), limit=st.integers(min_value=1, max_value=15))
@settings(max_examples=25, deadline=None)
def test_order_limit_determinism(sql, limit):
    """With a total order on a unique key, LIMIT results match exactly."""
    if "GROUP BY" in sql or "DISTINCT" in sql:
        return  # output lacks the unique key to totally order on
    ordered = f"{sql} ORDER BY c0.id ASC LIMIT {limit}"
    try:
        catalog = FIXTURE.catalog(include_credit=False, include_docs=False)
        engine = FederatedEngine(catalog)
        federated = engine.query(ordered).relation
        local = BASELINE.query(ordered)
    except Exception as exc:
        from repro.common.errors import EIIError

        assert isinstance(exc, EIIError), exc
        return
    # Joined rows can tie on c0.id, and tie order is engine-specific, so
    # compare the ordered key sequence plus the row multiset — both must
    # match exactly for a correct ORDER BY ... LIMIT.
    assert len(federated) == len(local.rows if hasattr(local, "rows") else local)
    try:
        key_pos = federated.schema.index_of("id", "c0")
    except Exception:
        key_pos = None
    if key_pos is not None:
        federated_keys = [r[key_pos] for r in federated.rows]
        local_keys = [r[key_pos] for r in local.rows]
        assert federated_keys == local_keys, ordered
        if len(set(federated_keys)) == len(federated_keys):
            # keys unique -> the exact row sequence is fully determined
            assert federated.rows == local.rows, ordered
    else:
        assert federated.sorted().rows == local.sorted().rows, ordered


@given(sql=random_query())
@settings(max_examples=20, deadline=None)
def test_union_of_query_with_itself(sql):
    """q UNION ALL q has exactly twice the rows of q (bag semantics)."""
    catalog = FIXTURE.catalog(include_credit=False, include_docs=False)
    engine = FederatedEngine(catalog)
    single = engine.query(sql).relation
    doubled = engine.query(f"{sql} UNION ALL {sql}").relation
    assert len(doubled) == 2 * len(single)


# -- chaos fuzzing: fault schedules on top of random queries ------------------
#
# The fault-tolerance contract, fuzzed: for ANY query and ANY scripted fault
# sequence, a resilient engine must produce (a) the exact oracle answer,
# (b) a partial answer *flagged* as partial with its skipped branches
# recorded, or (c) a typed EIIError — never an unflagged wrong answer.

from repro.common.errors import EIIError  # noqa: E402
from repro.federation import ResiliencePolicy  # noqa: E402
from repro.netsim import (  # noqa: E402
    ErrorRate,
    FaultInjector,
    LatencySpike,
    Outage,
    SimClock,
    Transient,
)

CHAOS_SOURCES = ["crm", "sales", "support", "finance", "marketing"]


@st.composite
def fault_schedule(draw):
    """Per-source fault rules; 'none' is common so healthy paths stay hot."""
    schedule = {}
    for name in CHAOS_SOURCES:
        kind = draw(
            st.sampled_from(
                ["none", "none", "transient", "error_rate", "outage", "latency"]
            )
        )
        if kind == "transient":
            schedule[name] = [Transient(draw(st.integers(1, 2)))]
        elif kind == "error_rate":
            schedule[name] = [ErrorRate(draw(st.sampled_from([0.1, 0.3, 0.6])))]
        elif kind == "outage":
            schedule[name] = [Outage()]
        elif kind == "latency":
            schedule[name] = [LatencySpike(draw(st.sampled_from([0.05, 1.0])))]
    return schedule


@given(
    sql=random_query(),
    schedule=fault_schedule(),
    seed=st.integers(min_value=0, max_value=7),
    partial=st.booleans(),
)
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_chaos_never_silently_wrong(sql, schedule, seed, partial):
    clock = SimClock()
    injector = FaultInjector(seed=seed, clock=clock)
    catalog = FIXTURE.catalog(
        include_credit=False, include_docs=False, wrap=injector.wrap
    )
    for name, rules in schedule.items():
        injector.script(name, *rules)
    engine = FederatedEngine(catalog, EngineConfig(clock=clock, parallel_workers=1, # strict per-source call ordering for replay
        resilience=ResiliencePolicy(
            max_attempts=3,
            breaker_failure_threshold=3,
            breaker_cooldown_s=5.0,
            seed=seed,
        ), partial_results=partial))
    try:
        result = engine.query(sql)
    except EIIError:
        return  # outcome (c): a typed, attributable failure
    if result.is_partial:
        # outcome (b): the degradation is announced, with blame attached
        assert result.completeness.skipped
        assert result.completeness.skipped_sources()
        assert 0.0 < result.completeness.missing_fraction() <= 1.0
        return
    # outcome (a): any answer NOT flagged partial must be exactly right
    assert same_rows(result.relation, sql), sql


@given(sql=random_query(), seed=st.integers(min_value=0, max_value=7))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_chaos_with_replay_is_deterministic(sql, seed):
    """The same (query, schedule, seed) replays to the same outcome."""

    def run():
        clock = SimClock()
        injector = FaultInjector(seed=seed, clock=clock)
        catalog = FIXTURE.catalog(
            include_credit=False, include_docs=False, wrap=injector.wrap
        )
        injector.script("crm", ErrorRate(0.5))
        injector.script("sales", Transient(1))
        engine = FederatedEngine(catalog, EngineConfig(clock=clock, parallel_workers=1, resilience=ResiliencePolicy(max_attempts=2, seed=seed), partial_results=True))
        try:
            result = engine.query(sql)
        except EIIError as exc:
            return ("error", type(exc).__name__, str(exc))
        return (
            "ok",
            result.is_partial,
            sorted(result.relation.rows),
            result.metrics.retries,
        )

    assert run() == run()


# -- trace fuzzing: spans must account for the metrics, deterministically ------

from repro.trace import Tracer  # noqa: E402


@given(
    sql=random_query(),
    schedule=fault_schedule(),
    seed=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_trace_accounts_for_metrics_and_replays_identically(sql, schedule, seed):
    """For ANY query and fault schedule: the span tree's summed seconds and
    bytes equal the MetricsCollector totals, and the serialized trace is
    byte-identical across two replays of the same (query, schedule, seed)."""

    def run():
        import copy

        clock = SimClock()
        injector = FaultInjector(seed=seed, clock=clock)
        catalog = FIXTURE.catalog(
            include_credit=False, include_docs=False, wrap=injector.wrap
        )
        for name, rules in schedule.items():
            # fault rules carry consumed-count state: replay needs fresh copies
            injector.script(name, *copy.deepcopy(rules))
        engine = FederatedEngine(catalog, EngineConfig(clock=clock, parallel_workers=1, # shared backoff RNG: serial order for replay
            resilience=ResiliencePolicy(max_attempts=3, seed=seed), partial_results=True, tracer=Tracer()))
        try:
            return engine.query(sql)
        except EIIError:
            return None

    result = run()
    if result is None:
        return  # the schedule killed the query; nothing to account for
    trace = result.trace
    metrics = result.metrics
    assert trace.work_seconds() == pytest.approx(
        metrics.simulated_seconds, abs=1e-9
    ), sql
    assert trace.sum_attr("payload_bytes") == metrics.payload_bytes, sql
    assert trace.sum_attr("wire_bytes") == metrics.wire_bytes, sql
    assert trace.elapsed_seconds() == pytest.approx(
        result.elapsed_seconds, abs=1e-9
    ), sql

    replay = run()
    assert replay is not None, sql
    assert replay.trace.to_json() == trace.to_json(), sql


# -- adaptive fuzzing: feedback must never change answers ----------------------
#
# Adaptive execution (cardinality feedback, mid-query re-optimization, LPT
# prefetch scheduling) is a pure performance lever. Fuzzed contract: for ANY
# query and planner configuration it returns exactly the static rows — on
# the cold run AND on the calibrated re-run — and its traces replay
# byte-identically under fault schedules.


@given(sql=random_query(), config=planner_config())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_adaptive_execution_matches_static(sql, config):
    config = dict(config, parallel_workers=1)
    catalog = FIXTURE.catalog(include_credit=False, include_docs=False)
    adaptive = FederatedEngine(catalog, EngineConfig(adaptive=True, **config))
    for _ in range(2):  # the second run plans from calibrations
        assert same_rows(adaptive.query(sql).relation, sql), sql


# -- workload fuzzing: the concurrent scheduler never changes answers ----------
#
# The sched contract, fuzzed: for ANY list of random queries and ANY
# scheduler configuration, every answered outcome of a concurrent workload
# run equals the reference answer for that query.

from repro.sched import (  # noqa: E402
    QueryRequest,
    SchedulerConfig,
    Tenant,
    WorkloadScheduler,
)


@given(
    sqls=st.lists(random_query(), min_size=1, max_size=5),
    workers=st.sampled_from([1, 2, 8]),
    policy=st.sampled_from(["wfq", "fifo"]),
    coalesce=st.booleans(),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_concurrent_workload_equals_colocated(sqls, workers, policy, coalesce):
    catalog = FIXTURE.catalog(include_credit=False, include_docs=False)
    engine = FederatedEngine(catalog)
    requests = [
        QueryRequest(sql, tenant=("a" if i % 2 else "b"), arrival_s=0.001 * i)
        for i, sql in enumerate(sqls)
    ]
    result = WorkloadScheduler(
        engine,
        tenants={"a": Tenant("a", weight=2.0), "b": Tenant("b")},
        config=SchedulerConfig(workers=workers, policy=policy, coalesce=coalesce),
    ).run(requests)
    assert all(o.answered for o in result.outcomes)
    assert all(row[-1] == 0 for row in result.audit)
    for outcome in result.outcomes:
        assert same_rows(outcome.result.relation, outcome.request.sql), outcome.request.sql


@given(sql=random_query(), schedule=fault_schedule(), seed=st.integers(0, 7))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_adaptive_trace_replays_identically(sql, schedule, seed):
    """LPT reorders before span creation and one worker observes feedback in
    a deterministic order, so two adaptive replays of the same (query,
    schedule, seed) serialize to byte-identical traces."""

    def run():
        import copy

        clock = SimClock()
        injector = FaultInjector(seed=seed, clock=clock)
        catalog = FIXTURE.catalog(
            include_credit=False, include_docs=False, wrap=injector.wrap
        )
        for name, rules in schedule.items():
            injector.script(name, *copy.deepcopy(rules))
        engine = FederatedEngine(catalog, EngineConfig(clock=clock, parallel_workers=1, resilience=ResiliencePolicy(max_attempts=3, seed=seed), partial_results=True, tracer=Tracer(), adaptive=True))
        out = []
        try:
            for _ in range(2):  # second run exercises calibrated planning
                out.append(engine.query(sql).trace.to_json())
        except EIIError:
            out.append("error")
        return out

    assert run() == run()


# -- telemetry fuzzing: observation must never perturb execution ---------------
#
# The telemetry plane's contract, fuzzed: for ANY query and ANY scripted
# fault schedule, attaching a TelemetryPlane changes no row, no metric and
# no span versus the bare engine — and the enabled run's own exports
# replay byte-identically, so dashboards are as deterministic as answers.

from repro.telemetry import TelemetryPlane  # noqa: E402


@given(
    sql=random_query(),
    schedule=fault_schedule(),
    seed=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_telemetry_is_observe_only(sql, schedule, seed):
    def run(telemetry_on):
        import copy

        clock = SimClock()
        injector = FaultInjector(seed=seed, clock=clock)
        catalog = FIXTURE.catalog(
            include_credit=False, include_docs=False, wrap=injector.wrap
        )
        for name, rules in schedule.items():
            injector.script(name, *copy.deepcopy(rules))
        plane = TelemetryPlane(clock=clock) if telemetry_on else None
        engine = FederatedEngine(catalog, EngineConfig(clock=clock, parallel_workers=1, # shared backoff RNG: serial order for replay
            resilience=ResiliencePolicy(max_attempts=3, seed=seed), partial_results=True, tracer=Tracer(), telemetry=plane))
        try:
            result = engine.query(sql)
        except EIIError as exc:
            return ("error", type(exc).__name__, str(exc)), plane
        return (
            "ok",
            result.is_partial,
            result.relation.rows,
            result.metrics.summary(),
            result.trace.to_json(),
        ), plane

    baseline, _ = run(telemetry_on=False)
    observed, plane = run(telemetry_on=True)
    assert observed == baseline, sql

    replayed, plane2 = run(telemetry_on=True)
    assert replayed == baseline, sql
    if plane is not None:
        assert plane2.export_jsonl() == plane.export_jsonl(), sql
        assert plane2.export_prometheus() == plane.export_prometheus(), sql
