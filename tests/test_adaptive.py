"""Adaptive federated execution: feedback, re-optimization, LPT scheduling.

Covers the `repro.adaptive` package plus its engine integration: the
LEO-style feedback store (EWMA, LRU bound, generation counter, broker
invalidation), canonical plan-node signatures, calibrated re-planning of
cached plans, mid-query re-optimization with bind-join demotion, the
latency-aware prefetch scheduler, and — crucially — that an engine with
every adaptive lever off is byte-identical to one built without the
subsystem at all.
"""

import io

import pytest

from repro.adaptive import (
    AdaptiveContext,
    AdaptivePolicy,
    FeedbackStore,
    lpt_order,
)
from repro.common.types import DataType as T
from repro.eai import MessageBroker
from repro.engine.cost import CostModel
from repro.engine.logical import (
    LogicalDistinct,
    LogicalProject,
    LogicalScan,
)
from repro.federation import EngineConfig, FederatedEngine
from repro.federation.planner import FederatedPlanner
from repro.sources import RelationalSource
from repro.sql.ast import ColumnRef, SelectItem
from repro.sql.parser import parse_select
from repro.storage import Database
from repro.trace import Tracer, analyzed_node_seconds

from tests.conftest import build_demo_db
from tests.federation_fixtures import build_catalog


# -- helpers -------------------------------------------------------------------


class SkewedStatsSource(RelationalSource):
    """Advertises scaled statistics while executing against the true data.

    The mediator plans with the lies; the source answers with the truth —
    exactly the stale-statistics situation adaptive execution exists for.
    """

    def __init__(self, name, db, factor, **kwargs):
        super().__init__(name, db, **kwargs)
        self._factor = factor

    def stats_of(self, table):
        return super().stats_of(table).scaled(self._factor)


def build_skewed_catalog(big_factor=0.01):
    """Three sources; `warehouse.orders_big` lies about its size by `big_factor`.

    True cardinalities: customers=8, orders_big=500, orders_small=100, each
    at its own source so every join crosses the federation. With
    big_factor=0.01 the mediator believes orders_big has ~5 rows, so a
    static plan drives joins off it — the worst possible choice.
    """
    from repro.federation import FederationCatalog

    crm = Database("crm")
    crm.create_table(
        "customers",
        [("id", T.INT), ("name", T.STRING), ("city", T.STRING)],
        primary_key=["id"],
    )
    for i in range(1, 9):
        crm.table("customers").insert((i, f"cust{i}", "SF" if i % 2 else "NY"))

    warehouse = Database("warehouse")
    warehouse.create_table(
        "orders_big",
        [("id", T.INT), ("cust_id", T.INT), ("total", T.FLOAT)],
        primary_key=["id"],
    )
    for i in range(1, 501):
        warehouse.table("orders_big").insert((i, (i % 8) + 1, i * 1.5))

    mart = Database("mart")
    mart.create_table(
        "orders_small",
        [("id", T.INT), ("cust_id", T.INT), ("amount", T.FLOAT)],
        primary_key=["id"],
    )
    for i in range(1, 101):
        mart.table("orders_small").insert((i, (i % 8) + 1, i * 2.0))

    catalog = FederationCatalog()
    catalog.register_source(RelationalSource("crm", crm))
    catalog.register_source(SkewedStatsSource("warehouse", warehouse, big_factor))
    catalog.register_source(RelationalSource("mart", mart))
    return catalog


THREE_WAY = (
    "SELECT c.name, a.total, b.amount FROM customers c "
    "JOIN orders_big a ON c.id = a.cust_id "
    "JOIN orders_small b ON c.id = b.cust_id"
)


def event_names(trace):
    return [event.name for span in trace.spans() for event in span.events]


# -- canonical signatures ------------------------------------------------------


class TestStatementShape:
    def shape(self, sql):
        from repro.adaptive import cardinality_shape

        return cardinality_shape(parse_select(sql))

    def test_select_list_is_ignored(self):
        a = self.shape("SELECT id, name FROM customers WHERE id > 3")
        b = self.shape("SELECT city FROM customers WHERE id > 3")
        assert a == b

    def test_conjunct_order_is_ignored(self):
        a = self.shape("SELECT * FROM t WHERE a = 1 AND b = 2")
        b = self.shape("SELECT * FROM t WHERE b = 2 AND a = 1")
        assert a == b

    def test_order_by_is_ignored_but_limit_is_not(self):
        plain = self.shape("SELECT * FROM t WHERE a = 1")
        ordered = self.shape("SELECT * FROM t WHERE a = 1 ORDER BY a")
        limited = self.shape("SELECT * FROM t WHERE a = 1 LIMIT 5")
        assert ordered == plain
        assert limited != plain

    def test_different_predicates_differ(self):
        assert self.shape("SELECT * FROM t WHERE a = 1") != self.shape(
            "SELECT * FROM t WHERE a = 2"
        )


# -- the feedback store --------------------------------------------------------


class TestFeedbackStore:
    def test_ewma_smoothing(self):
        store = FeedbackStore(smoothing=0.5)
        store.observe("sig", 100.0)
        store.observe("sig", 200.0)
        assert store.calibrated_rows("sig") == pytest.approx(150.0)

    def test_generation_bumps_on_material_change_only(self):
        store = FeedbackStore(smoothing=0.5, drift_ratio=2.0)
        assert store.generation == 0
        store.observe("sig", 100.0)  # new signature: material
        g1 = store.generation
        assert g1 == 1
        store.observe("sig", 110.0)  # smoothed 105 vs 100: not material
        assert store.generation == g1
        store.observe("sig", 1000.0)  # smoothed ~552 vs 105: material drift
        assert store.generation > g1

    def test_lru_bound(self):
        store = FeedbackStore(max_entries=2)
        store.observe("a", 1.0)
        store.observe("b", 2.0)
        store.observe("c", 3.0)
        assert len(store) == 2
        assert store.calibrated_rows("a") is None  # evicted
        assert store.calibrated_rows("c") == pytest.approx(3.0)

    def test_per_key_calibration(self):
        store = FeedbackStore()
        store.observe("bind", 50.0, keys=10)
        assert store.calibrated_per_key("bind") == pytest.approx(5.0)
        assert store.calibrated_per_key("missing") is None

    def test_broker_invalidation(self):
        store = FeedbackStore()
        store.observe("s1", 10.0, tags=frozenset({"orders"}))
        store.observe("s2", 20.0, tags=frozenset({"customers"}))
        broker = MessageBroker()
        store.attach(broker)
        before = store.generation
        broker.publish("table.orders.changed", {"table": "orders", "version": 2})
        assert store.calibrated_rows("s1") is None
        assert store.calibrated_rows("s2") == pytest.approx(20.0)
        assert store.generation > before

    def test_clear_reports_drop_count(self):
        store = FeedbackStore()
        store.observe("a", 1.0)
        store.observe("b", 2.0)
        assert store.clear() == 2
        assert len(store) == 0
        assert store.clear() == 0  # idempotent, no generation churn

    def test_render_lists_calibrations(self):
        store = FeedbackStore()
        store.observe("crm::SELECT * FROM customers", 8.0)
        text = store.render()
        assert "1 calibration(s)" in text
        assert "rows=8.0" in text


# -- satellite: cost-model memoization -----------------------------------------


class CountingCostModel(CostModel):
    def __init__(self, provider):
        super().__init__(provider)
        self.calls = 0

    def _estimate_node(self, plan):
        self.calls += 1
        return super()._estimate_node(plan)


class TestCostMemoization:
    def test_memo_scope_estimates_each_node_once(self):
        db = build_demo_db()
        model = CountingCostModel(db)
        scan = LogicalScan("customers", "c", db.table("customers").schema)
        with model.memo_scope():
            first = model.estimate(scan)
            second = model.estimate(scan)
        assert model.calls == 1
        assert first is second

    def test_without_scope_nothing_is_cached(self):
        db = build_demo_db()
        model = CountingCostModel(db)
        scan = LogicalScan("customers", "c", db.table("customers").schema)
        model.estimate(scan)
        model.estimate(scan)
        assert model.calls == 2

    def test_scope_is_reentrant_and_memo_dies_with_it(self):
        db = build_demo_db()
        model = CountingCostModel(db)
        scan = LogicalScan("orders", "o", db.table("orders").schema)
        with model.memo_scope():
            with model.memo_scope():  # inner scope must not clear on exit
                model.estimate(scan)
            model.estimate(scan)
        assert model.calls == 1
        model.estimate(scan)  # scope closed: fresh estimate
        assert model.calls == 2


# -- satellite: DISTINCT cardinality -------------------------------------------


class TestDistinctCardinality:
    def test_ndv_product_capped_by_child_rows(self):
        db = build_demo_db()  # customers: 20 rows, city has 4 distinct values
        model = CostModel(db)
        scan = LogicalScan("customers", "c", db.table("customers").schema)
        project = LogicalProject(scan, [SelectItem(ColumnRef("city", "c"))])
        cost = model.estimate(LogicalDistinct(project))
        assert cost.rows == pytest.approx(4.0)

    def test_cap_at_child_rows(self):
        db = build_demo_db()
        model = CostModel(db)
        scan = LogicalScan("customers", "c", db.table("customers").schema)
        # DISTINCT over the full row: NDV product (20*20*4*2) far exceeds
        # the child, so the estimate must cap at child.rows.
        cost = model.estimate(LogicalDistinct(scan))
        assert cost.rows == pytest.approx(20.0)

    def test_no_stats_falls_back_to_half(self):
        model = CostModel(None)  # no provider: scans estimate 1000 rows flat
        db = build_demo_db()
        scan = LogicalScan("customers", "c", db.table("customers").schema)
        cost = model.estimate(LogicalDistinct(scan))
        assert cost.rows == pytest.approx(500.0)


# -- satellite: DP/greedy threshold knob ---------------------------------------


class TestJoinSearchKnob:
    SQL = (
        "SELECT c.name, o.total, r.region FROM customers c "
        "JOIN orders o ON c.id = o.cust_id "
        "JOIN regions r ON c.city = r.city"
    )

    def test_greedy_and_dp_paths_agree_on_rows(self):
        dp = FederatedEngine(build_catalog())
        greedy = FederatedEngine(build_catalog(), EngineConfig(planner=FederatedPlanner(build_catalog(), join_dp_limit=1)))
        assert (
            dp.query(self.SQL).relation.sorted().rows
            == greedy.query(self.SQL).relation.sorted().rows
        )

    @pytest.mark.parametrize("dp_limit", [1, None])
    def test_planning_is_deterministic(self, dp_limit):
        catalog = build_catalog()
        planner = FederatedPlanner(catalog, join_dp_limit=dp_limit)
        statement = parse_select(self.SQL)
        first = planner.plan(statement).root.pretty()
        second = planner.plan(statement).root.pretty()
        assert first == second


# -- LPT scheduling ------------------------------------------------------------


class TestLptScheduler:
    def test_lpt_order_longest_first_stable_ties(self):
        assert lpt_order(["a", "b", "c"], [1.0, 3.0, 2.0]) == ["b", "c", "a"]
        assert lpt_order(["a", "b"], [2.0, 2.0]) == ["a", "b"]

    def test_predictor_learns_seconds_per_byte(self):
        policy = AdaptivePolicy(feedback=False)
        engine = FederatedEngine(build_catalog(), EngineConfig(adaptive=AdaptiveContext(policy)))
        node = engine.prepare("SELECT id, name FROM customers").fetches[0]
        board, source = engine.scoreboard, node.source.name

        def predict():
            return engine.adaptive.predict_fetch_seconds(
                node, engine.network, "hub", board.snapshot()
            )

        static = predict()  # capability constants before any answer
        board.statement(source, 0.0, 5, 100, 100, cache="hit")
        assert predict() == static  # a cache hit is no answer: nothing learned
        board.statement(source, 2.0, 5, 100, 100, answer=(source.upper(), 2.0, 100))
        payload = node.est_rows * node.schema.average_row_width()
        assert predict() == pytest.approx(2.0 / 100 * payload)


# -- engine integration: feedback round trip -----------------------------------


class TestEngineFeedback:
    def test_store_populates_and_second_run_hits_calibrations(self):
        adaptive = AdaptiveContext(AdaptivePolicy(replan=False, lpt=False))
        engine = FederatedEngine(build_catalog(), EngineConfig(adaptive=adaptive))
        sql = "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id"
        engine.query(sql)
        assert len(adaptive.store) >= 2  # one calibration per fetch
        hits_before = adaptive.store.hits
        engine.query(sql)
        assert adaptive.store.hits > hits_before

    def test_bind_join_chunks_record_per_key_rows(self):
        adaptive = AdaptiveContext(AdaptivePolicy(replan=False, lpt=False))
        engine = FederatedEngine(build_catalog(), EngineConfig(adaptive=adaptive))
        engine.query(
            "SELECT c.name, s.score FROM customers c "
            "JOIN credit s ON c.id = s.cust_id"
        )
        bind_entries = [
            e for e in adaptive.store.entries() if "::bind[" in e.signature
        ]
        assert bind_entries
        assert bind_entries[0].per_key == pytest.approx(1.0)  # keyed lookup

    def test_plan_cache_respects_feedback_generation(self):
        adaptive = AdaptiveContext(AdaptivePolicy(replan=False, lpt=False))
        engine = FederatedEngine(build_catalog(), EngineConfig(adaptive=adaptive))
        sql = "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id"
        # Run 1 plans cold and its execution moves the feedback generation,
        # so run 2 must re-plan (stale generation) while run 3 — generation
        # now quiescent — finally reuses the cached plan.
        assert engine.query(sql).metrics.plan_cache_hits == 0
        assert engine.query(sql).metrics.plan_cache_hits == 0
        assert engine.query(sql).metrics.plan_cache_hits == 1

    def test_broker_event_drops_engine_calibrations(self):
        adaptive = AdaptiveContext(AdaptivePolicy(replan=False, lpt=False))
        engine = FederatedEngine(build_catalog(), EngineConfig(adaptive=adaptive))
        broker = MessageBroker()
        engine.attach_invalidation(broker)
        engine.query("SELECT o.total FROM orders o")
        assert len(adaptive.store) == 1
        broker.publish("table.orders.changed", {"table": "orders", "version": 2})
        assert len(adaptive.store) == 0


# -- engine integration: mid-query re-optimization ------------------------------


class TestMidQueryReplan:
    def test_replan_fires_on_misestimated_fetch(self):
        engine = FederatedEngine(build_skewed_catalog(big_factor=0.01), EngineConfig(adaptive=AdaptiveContext(AdaptivePolicy(lpt=False)), tracer=Tracer(), parallel_workers=1, semijoin="off"))
        result = engine.query(THREE_WAY)
        assert result.replan is not None
        assert result.replan.worst_ratio >= 4.0
        assert result.metrics.replans == 1
        assert "replanned" in result.explain()
        assert "plan.reoptimized" in event_names(result.trace)
        # The replanned answer must equal the truthful-statistics answer.
        oracle = FederatedEngine(build_skewed_catalog(big_factor=1.0), EngineConfig(semijoin="off")).query(THREE_WAY)
        assert result.relation.sorted().rows == oracle.relation.sorted().rows

    def test_replan_converts_oversized_bind_join(self):
        catalog = build_skewed_catalog(big_factor=0.01)
        planner = FederatedPlanner(catalog, max_bind_keys=50)
        engine = FederatedEngine(catalog, EngineConfig(planner=planner, adaptive=AdaptiveContext(AdaptivePolicy(lpt=False)), parallel_workers=1, tracer=Tracer()))
        # The mediator believes orders_big has ~5 rows, so it drives a bind
        # join off it; the actual 500 driver rows exceed max_bind_keys and
        # must be demoted to a plain fetch + hash join mid-query.
        sql = (
            "SELECT a.total, b.amount FROM orders_big a "
            "JOIN orders_small b ON a.cust_id = b.cust_id"
        )
        result = engine.query(sql)
        assert result.replan is not None
        assert result.replan.converted_bind_joins == 1
        assert "bind join(s) -> hash join" in result.replan.describe()
        # The converted fetch runs during assembly; its span is in the trace,
        # so the trace accounts for every simulated second and byte it cost.
        trace, metrics = result.trace, result.metrics
        assert trace.elapsed_seconds() == pytest.approx(result.elapsed_seconds, rel=1e-12)
        assert analyzed_node_seconds(result) == pytest.approx(
            metrics.simulated_seconds, rel=1e-12
        )
        assert trace.sum_attr("payload_bytes") == metrics.payload_bytes
        oracle = FederatedEngine(build_skewed_catalog(big_factor=1.0)).query(sql)
        assert result.relation.sorted().rows == oracle.relation.sorted().rows

    def test_accurate_estimates_leave_plan_alone(self):
        engine = FederatedEngine(build_skewed_catalog(big_factor=1.0), EngineConfig(# truthful statistics
            adaptive=True, parallel_workers=1))
        result = engine.query(THREE_WAY)
        assert result.replan is None
        assert result.metrics.replans == 0

    def test_second_run_plans_differently_from_calibrations(self):
        adaptive = AdaptiveContext(AdaptivePolicy(lpt=False))
        engine = FederatedEngine(build_skewed_catalog(big_factor=0.01), EngineConfig(adaptive=adaptive, parallel_workers=1, semijoin="off"))
        cold = engine.query(THREE_WAY)
        warm = engine.query(THREE_WAY)
        # The calibrated planner should agree with the mid-query replanner,
        # so the warm plan no longer needs rescue at runtime.
        assert cold.replan is not None
        assert warm.plan.root.pretty() != cold.plan.root.pretty()
        assert warm.replan is None
        assert warm.relation.sorted().rows == cold.relation.sorted().rows


# -- engine integration: LPT + null-path parity ---------------------------------


class TestEngineScheduling:
    def test_lpt_submits_predicted_longest_fetch_first(self):
        # The crm source's capability profile makes its fetch the predicted
        # straggler; writing it second forces LPT to move it up front.
        sql = "SELECT id FROM orders UNION ALL SELECT id FROM customers"
        static = FederatedEngine(build_catalog(), EngineConfig(parallel_workers=2))
        adaptive = FederatedEngine(build_catalog(), EngineConfig(parallel_workers=2, adaptive=AdaptiveContext(AdaptivePolicy(feedback=False, replan=False))))
        baseline = static.query(sql)
        result = adaptive.query(sql)
        assert result.metrics.lpt_reorders == 1
        assert result.relation.sorted().rows == baseline.relation.sorted().rows

    def test_all_levers_off_is_byte_identical_to_no_subsystem(self):
        sql = (
            "SELECT c.name, o.total, r.region FROM customers c "
            "JOIN orders o ON c.id = o.cust_id "
            "JOIN regions r ON c.city = r.city WHERE o.status = 'open'"
        )
        off = AdaptivePolicy(feedback=False, replan=False, lpt=False)

        def run(adaptive):
            engine = FederatedEngine(build_catalog(), EngineConfig(tracer=Tracer(), parallel_workers=1, adaptive=adaptive))
            results = [engine.query(sql) for _ in range(2)]
            return [
                (r.relation.rows, r.trace.to_json(), r.metrics.summary())
                for r in results
            ]

        assert run(None) == run(AdaptiveContext(off))


# -- the shell command ---------------------------------------------------------


class TestShellFeedback:
    def test_feedback_command_lists_and_clears(self):
        from repro.shell import Shell

        out = io.StringIO()
        shell = Shell(scale=1, out=out)
        shell.handle("SELECT name FROM customers WHERE id = 1")
        shell.handle("\\feedback")
        text = out.getvalue()
        assert "calibration(s)" in text
        shell.handle("\\feedback clear")
        assert "dropped" in out.getvalue()
        out.truncate(0)
        shell.handle("\\feedback")
        assert "0 calibration(s)" in out.getvalue()
