"""Prepared plans take parameters: a known shape runs with a values tuple.

A plan holds a `Param` in each slot of its statement and is run with each
statement's constants; nothing is copied to serve new ones. Counted here
(`sys.setprofile`), never timed: what a warm lookup pass does not build, that
constants of one shape but another type never share a plan's answer, and
that one prepared source tree answers many threads at once, each with its
own values.
"""

import copy
import dataclasses
import sys
import threading
from collections import Counter

import pytest

import repro
from repro.cache import CacheConfig, CacheHierarchy, fetch_key
from repro.common.errors import CapabilityError, PlanError
from repro.engine.executor import LocalEngine
from repro.engine.logical import LogicalPlan
from repro.engine.physical import FilterOp, IndexEqScan, PhysicalOp
from repro.federation import EngineConfig
from repro.federation.planner import FederatedPlanner
from repro.netsim import SimClock
from repro.sources import RelationalSource
from repro.sql.ast import Literal, Select
from repro.sql.parser import parse
from repro.sql.shape import Bound, lift, plant, with_in_filter

from tests.conftest import build_demo_db
from tests.test_prepare_once import answer
from tests.test_statement_shape import FIXTURE, LOOKUPS, workloads


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def built(thunk) -> Counter:
    """What `thunk` calls and builds: `copy.copy`, `dataclasses.replace`, the
    two planners, and each `Select`, logical node and physical operator -
    operators by the engine lowering them (the hub's, or ``"source"``)."""
    codes = {
        copy.copy.__code__: "copy.copy",
        dataclasses.replace.__code__: "dataclasses.replace",
        FederatedPlanner.plan.__code__: "FederatedPlanner.plan",
        LocalEngine.logical_plan.__code__: "LocalEngine.logical_plan",
        Select.__init__.__code__: "Select",
        with_in_filter.__code__: "bind chunk",
    }
    for cls in subclasses(LogicalPlan):
        if "__init__" in vars(cls):
            codes[cls.__init__.__code__] = "LogicalPlan"
    operators = {cls.__init__.__code__ for cls in subclasses(PhysicalOp) if "__init__" in vars(cls)}
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in codes:
            counts[codes[code]] += 1
        elif code in operators:
            caller = frame.f_back
            while caller is not None and caller.f_code is not LocalEngine.lower.__code__:
                caller = caller.f_back
            site = "hub" if caller is None or caller.f_locals["self"].db.name == "assembly" else "source"
            counts[f"PhysicalOp at {site}"] += 1

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return counts


class TestCountingOracle:
    def test_a_warm_lookup_pass_with_new_constants_copies_plans_and_builds_nothing(self):
        """Chunks 40-42 of `adhoc_lookup_s1` (seed 7): ids the engine has not
        seen, of shapes it knows. Against a repeat of those same texts, they
        make no plan, no operator at a source and no more hub operators."""
        workload = workloads.AdhocLookup(7)
        engine = repro.connect(FIXTURE.catalog(), EngineConfig(clock=SimClock(), parallel_workers=1))
        for index in range(15):  # chunks 0-14 cover ids[0:120]; 40-42 read ids[120:144]
            for step in workload.steps(index):
                engine.query(step.sql)
        texts = [step.sql for index in (40, 41, 42) for step in workload.steps(index)]
        assert len(texts) == 144

        new = built(lambda: [engine.query(text) for text in texts])
        again = built(lambda: [engine.query(text) for text in texts])
        for counts in (new, again):
            assert counts["copy.copy"] == counts["dataclasses.replace"] == 0, counts
            assert counts["LogicalPlan"] == 0, counts
            assert counts["FederatedPlanner.plan"] == counts["LocalEngine.logical_plan"] == 0, counts
            assert counts["PhysicalOp at source"] == 0, counts
        assert new["PhysicalOp at hub"] == again["PhysicalOp at hub"] > 0
        assert new["Select"] <= len(texts) + new["bind chunk"], new
        assert again["Select"] == again["bind chunk"], again  # a text parsed before makes none


class TestKeyTyping:
    """`1` and `1.0`, `0.0` and `-0.0` print apart: one shape's plan serves
    both only as the engine that never saw the other answers them."""

    PAIRS = [
        ("SELECT name FROM customers WHERE id = {}", ("1", "1.0")),
        ("SELECT id, cust_id FROM orders WHERE total = {}", ("0.0", "-0.0")),
        ("SELECT id, cust_id FROM orders WHERE total = {}", ("12.0", "12")),
    ]

    def test_a_source_answers_each_as_a_fresh_one(self):
        db = build_demo_db()
        for template, spellings in self.PAIRS:
            warm = RelationalSource("s", db)
            stmts = [parse(template.format(spelling)) for spelling in spellings]
            for stmt in stmts:
                assert answer(warm, stmt) == answer(RelationalSource("s", db), stmt)
            keys = {fetch_key("s", stmt) for stmt in stmts}
            assert len(keys) == 2, keys  # never one fetch-cache entry

    def test_an_engine_with_a_fetch_cache_answers_each_as_a_fresh_one(self):
        def connect():
            cache = CacheHierarchy(CacheConfig(fetch_enabled=True, result_enabled=False), clock=SimClock())
            return repro.connect(FIXTURE.catalog(), EngineConfig(clock=SimClock(), cache=cache))

        def observe(engine, sql):
            result = engine.query(sql)
            logs = {name: list(source.query_log)[-1:] for name, source in engine.catalog.sources.items()
                    if isinstance(source, RelationalSource)}
            plan = result.report().section("plan").text()
            return [repr(row) for row in result.relation.rows], plan, result.metrics.fetch_cache_hits, logs

        for sql, spellings in [
            ("SELECT name, city FROM customers WHERE id = {}", ("7", "7.0")),
            ("SELECT id, total FROM orders WHERE total = {}", ("0.0", "-0.0")),
        ]:
            warm = connect()
            for spelling in spellings:
                text = sql.format(spelling)
                # the plan is shared; the other spelling's fetch-cache entry never answers
                assert observe(warm, text) == observe(connect(), text)


def test_the_scheduler_keys_each_fetch_by_the_constants_it_ran_with():
    """Two ids of one shape share a plan, never a scheduled fetch's key."""
    from repro.sched.scheduler import WorkloadScheduler, _RunState

    engine = repro.connect(FIXTURE.catalog(), EngineConfig(clock=SimClock()))
    results = [engine.query(f"SELECT name, city FROM customers WHERE id = {key}") for key in (7, 8)]
    assert results[0].plan is results[1].plan
    state = _RunState(WorkloadScheduler(engine), [])
    keys = [task.key for result in results for task in state._decompose(result)[0]]
    assert len(keys) == len(set(keys)) == 2


def test_a_prepared_plan_runs_and_prints_its_own_statements_constants():
    """`prepare` hands out the plan another id of the shape planned, holding
    its own statement's constants: run directly, it answers and prints as that
    statement's query on a fresh engine does. An exact repeat is the cached plan."""
    sql = "SELECT name, city FROM customers WHERE id = {}"
    engine = repro.connect(FIXTURE.catalog(), EngineConfig(clock=SimClock()))
    seven = engine.query(sql.format(7))
    prepared = engine.prepare(sql.format(8))
    assert "id = 8" in prepared.pretty() and "id = 7" not in prepared.pretty()
    assert engine.prepare(sql.format(7)) is seven.plan
    ran = engine.execute_plan(prepared)
    fresh = repro.connect(FIXTURE.catalog(), EngineConfig(clock=SimClock())).query(sql.format(8))
    rows = [[repr(row) for row in result.relation.rows] for result in (seven, ran, fresh)]
    assert rows[1] == rows[2] != rows[0]
    assert ran.report().section("plan").text() == fresh.report().section("plan").text()
    assert engine.predict_elapsed(prepared) == engine.predict_elapsed(engine.prepare(sql.format(8)))


def test_feedback_calibrates_each_constant_on_its_own_runs():
    """Calibrations are keyed on the constants a run had (`adaptive.signature`,
    given the run's or the planning pass's values): a re-plan of one id reads
    its own actuals, another id of the shape none."""
    engine = repro.connect(FIXTURE.catalog(), EngineConfig(clock=SimClock(), adaptive=True))
    first = engine.query(LOOKUPS["orders_of"].format(id=7))
    again, other = (engine.query(LOOKUPS["orders_of"].format(id=key)) for key in (7, 8))
    static = [fetch.est_rows for fetch in first.plan.fetches]
    assert [fetch.est_rows for fetch in again.plan.fetches] == [len(first.relation)] != static
    assert [fetch.est_rows for fetch in other.plan.fetches] == static


def test_a_source_refusing_a_prepared_statement_names_its_constants():
    """What a source is sent is the plan's statement and the run's values: a
    refusal names the constants, in the statement and in its reasons."""
    engine = repro.connect(FIXTURE.catalog(), EngineConfig(clock=SimClock()))
    engine.query(LOOKUPS["point_lookup"].format(id=7))
    crm = engine.catalog.sources["crm"]
    crm.capabilities.dialect = dataclasses.replace(crm.capabilities.dialect, supported_predicates=frozenset())
    with pytest.raises(CapabilityError, match=r"WHERE \(id = 8\) \(.*predicate \(id = 8\) not supported"):
        engine.query(LOOKUPS["point_lookup"].format(id=8))


def test_explain_diagnostics_name_the_statements_constants():
    """`verify_plan` is handed the plan's values: its warning prints the fetch
    as it is sent, after a plan of the shape was made for another constant."""
    engine = repro.connect(FIXTURE.catalog(), EngineConfig(clock=SimClock()))
    sql = "SELECT o.id, o.total FROM orders o, orders p WHERE o.cust_id = {}"
    engine.query(sql.format(9))
    warning = engine.explain(sql.format(7)).split("EII402")[1]
    assert "(o.cust_id = 7)" in warning and "?int" not in warning


class TestThreads:
    def test_eight_threads_run_one_prepared_tree_each_with_its_own_values(self):
        db = build_demo_db()
        source = RelationalSource("s", db)
        template = "SELECT id, total FROM orders WHERE status = 'open' AND cust_id = {}"
        serial = {key: answer(RelationalSource("s", db), parse(template.format(key)))[0] for key in range(1, 9)}
        source.execute_select(parse(template.format(1)))
        (family,) = [entry.value for entry in source._prepared._entries.values()]
        tree = family.members[0].physical
        answers: dict = {key: [] for key in serial}
        start = threading.Barrier(8)

        def run(key):
            stmt = parse(template.format(key))
            start.wait()
            for _ in range(50):
                relation = source.execute_select(stmt)
                answers[key].append((relation.schema.names, [repr(row) for row in relation.rows]))

        threads = [threading.Thread(target=run, args=(key,)) for key in serial]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(outcome == [serial[key]] * 50 for key, outcome in answers.items())
        members = [member for entry in source._prepared._entries.values() for member in entry.value.members]
        assert {id(member.physical) for member in members} == {id(tree)}  # one tree served them all

    def test_a_bound_statement_is_read_as_the_one_it_stands_for(self):
        stmt = parse("SELECT id, total FROM orders WHERE cust_id = 3 AND status = 'open'")
        planted = plant(stmt)
        bound = Bound(planted, lift(stmt).values)
        assert str(bound) == stmt.text and bound.items == stmt.items
        db = build_demo_db()
        assert answer(RelationalSource("s", db), bound) == answer(RelationalSource("s", db), stmt)


class TestValuesArePassed:
    """A prepared plan's values are given to each run and estimate, never found
    in effect: without them, it raises `PlanError` (not an `IndexError`)."""

    @staticmethod
    def prepared(sql: str) -> tuple:
        db = build_demo_db()
        db.table("customers").create_index("id")
        engine = LocalEngine(db)
        values = lift(parse(sql)).values
        with engine.cost_model.memo_scope(values):
            logical = engine.logical_plan(plant(parse(sql)))
        return engine, logical, values

    def test_a_tree_run_without_its_values_raises(self):
        def ops(op):
            yield op
            for child in op.children:
                yield from ops(child)

        for sql, reader in [
            ("SELECT name FROM customers WHERE id = 3", IndexEqScan),  # its key
            ("SELECT id, total FROM orders WHERE status = 'closed'", FilterOp),  # its pass's operand
        ]:
            engine, logical, values = self.prepared(sql)
            tree = engine.lower(logical)
            assert reader in {type(op) for op in ops(tree)}, tree.explain()
            with pytest.raises(PlanError):
                tree.run()
            assert tree.relation(values).rows == engine.query(sql).rows

    def test_a_plan_estimated_without_its_values_raises(self):
        engine, logical, _ = self.prepared("SELECT id, total FROM orders WHERE status = 'closed'")
        with pytest.raises(PlanError):
            engine.cost_model.estimate(logical)
        with pytest.raises(PlanError), engine.cost_model.memo_scope():
            engine.cost_model.estimate(logical)

    def test_one_thread_estimates_one_plan_under_each_values_tuple_it_is_given(self):
        """In turn and nested: each estimate is a fresh planner's for those values."""
        engine, logical, _ = self.prepared("SELECT name FROM customers WHERE id = 3")
        inside, beyond = (Literal(3),), (Literal(999),)  # 999 lies past the column's largest id

        def fresh(values) -> tuple:
            model = LocalEngine(engine.db).cost_model
            with model.memo_scope(values):
                estimate = model.estimate(logical)
            return estimate.rows, estimate.cost

        model = engine.cost_model
        with model.memo_scope(inside):
            first = model.estimate(logical)
            with model.memo_scope(beyond):  # its own pass: never the enclosing memo
                nested = model.estimate(logical)
        with model.memo_scope(beyond):
            second = model.estimate(logical)
        assert fresh(inside) != fresh(beyond)
        assert (first.rows, first.cost) == fresh(inside)
        assert (second.rows, second.cost) == (nested.rows, nested.cost) == fresh(beyond)
