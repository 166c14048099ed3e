"""Plan once per statement shape - and answer every binding as a fresh plan would.

The plan cache and `RelationalSource` key on `repro.sql.shape`: a statement
with the constants of its `column = c` conjuncts lifted out. The oracle here
holds a shape-warm engine (or source) to one that never saw the shape: rows or
error, explain text, counters, simulated seconds and estimates, to the digit.
Work saved is *counted* (`sys.setprofile`), never timed.
"""

import datetime
import importlib.util
from dataclasses import replace
import pathlib
import random
import sys
import threading
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.cache import canonical_statement, keys
from repro.common.errors import ParseError, SourceError
from repro.engine.executor import LocalEngine
from repro.federation import EngineConfig
from repro.sql.shape import with_in_filter
from repro.federation.planner import FederatedPlanner
from repro.netsim import SimClock
from repro.sources import RelationalSource
from repro.sql import lexer, parser
from repro.sql.ast import BinaryOp, ColumnRef, InList, Literal, LiteralValues, Param, Select
from repro.sql.exprutil import transform
from repro.sql.parser import parse
from repro.sql.printer import render_literal, to_sql
from repro.sql.shape import FAMILY, Family, _swap_slots, lift, plant, unbind

from tests.conftest import build_demo_db
from tests.federation_fixtures import unfit
from tests.test_prepare_once import answer, apply_write, write_ops

_WORKLOADS = pathlib.Path(__file__).parent.parent / "benchmarks/wallclock/workloads.py"


def _wallclock_workloads():
    spec = importlib.util.spec_from_file_location("_wallclock_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _wallclock_workloads()
LOOKUPS = workloads.LOOKUP_TEMPLATES
FIXTURE = build_enterprise(BenchConfig(scale=1, seed=workloads.DATA_SEED))
SURROGATE = "\ud800"
COUNTERS = ("source_queries", "rows_shipped", "payload_bytes", "wire_bytes", "simulated_seconds")


def connect(**config):
    """An engine over new source objects: nothing planned, nothing prepared."""
    return repro.connect(FIXTURE.catalog(), EngineConfig(clock=SimClock(), **config))


def observe(engine, query):
    """Everything a caller can tell two plans of one query apart by."""
    try:
        result = engine.query(query)
    except Exception as exc:  # noqa: BLE001 - the failure is the observation
        return type(exc), str(exc)
    plan, summary = result.plan, result.metrics.summary()
    return (
        [repr(row) for row in result.relation.rows],
        result.report().section("plan").text(),
        [summary[name] for name in COUNTERS],  # all but `plan_cache_hits`
        result.elapsed_seconds,
        [fetch.est_rows for fetch in plan.fetches],
        [bind.est_rows for bind in plan.bind_joins],
        (plan.est_result_rows, plan.est_result_bytes, plan.assembly_site),
    )


def rebound(stmt: Select, values) -> Select:
    """`stmt` with `values` in its slots (as many as it lifts)."""
    values = iter(values)
    return replace(stmt, where=_swap_slots(stmt.where, lambda c, l: Literal(next(values))))


# -- what lifts ------------------------------------------------------------------


class TestLift:
    @pytest.mark.parametrize(
        "where, shape, values",
        [
            ("id = 7", "(id = ?int)", [7]),
            ("7 = id", "(?int = id)", [7]),
            ("id <> -3", "(id <> ?int)", [-3]),
            ("id = 7.5", "(id = ?float)", [7.5]),
            ("name = 'x'", "(name = ?str)", ["x"]),
            ("name = ''", "(name = ?str)", [""]),
            ("d = '2005-06-14'", "(d = ?date)", [datetime.date(2005, 6, 14)]),
            ("id = 7 AND 'a' <> c.name", "((id = ?int) AND (?str <> c.name))", [7, "a"]),
            ("id = 9007199254740992", "(id = ?int)", [2**53]),
            # verbatim: beyond exact floats, booleans, NULL, other operators,
            # anything not a top-level conjunct
            ("id = 9007199254740993", "(id = 9007199254740993)", []),
            ("id = TRUE", "(id = TRUE)", []),
            ("id = NULL", "(id = NULL)", []),
            ("id < 7", "(id < 7)", []),
            ("id BETWEEN 1 AND 7", "(id BETWEEN 1 AND 7)", []),
            ("name LIKE 'x'", "(name LIKE 'x')", []),
            ("id IN (7, 8)", "(id IN (7, 8))", []),
            ("id = 7 OR id = 8", "((id = 7) OR (id = 8))", []),
            ("NOT id = 7", "(NOT (id = 7))", []),
            ("id + 1 = 7", "((id + 1) = 7)", []),
            ("id = 7 AND (x = 1 OR y = 2)", "((id = ?int) AND ((x = 1) OR (y = 2)))", [7]),
        ],
    )
    def test_a_top_level_equality_constant_becomes_a_typed_slot(self, where, shape, values):
        lifted = lift(parse(f"SELECT a FROM t AS c WHERE {where}"))
        assert lifted.shape == f"SELECT a FROM t AS c WHERE {shape}"
        assert [literal.value for literal in lifted.values] == values
        assert len(lifted.columns) == len(values)

    def test_constants_outside_where_stay_in_the_shape(self):
        text = (
            "SELECT 7 AS k, SUM(x) AS s FROM t INNER JOIN u ON ((t.k = u.k) AND (u.z = 3)) "
            "WHERE (t.k <> 4) GROUP BY t.k HAVING (SUM(x) = 5) LIMIT 7"
        )
        lifted = lift(parse(text))
        assert lifted.shape == text.replace("<> 4", "<> ?int")
        assert [literal.value for literal in lifted.values] == [4]

    def test_floats_that_no_text_spells_lift_only_when_finite(self):
        def where(value):
            return lift(Select((), where=BinaryOp("=", ColumnRef("x"), Literal(value))))

        assert where(1e300).values and where(-0.0).values
        assert not where(float("nan")).values and not where(float("inf")).values
        assert not where(datetime.datetime(2005, 6, 14)).values  # not a `date`, exactly

    def test_a_constant_of_another_type_is_another_shape(self):
        shapes = {
            lift(parse(f"SELECT a FROM t WHERE id = {text}")).shape
            for text in ("7", "7.0", "'7'", "TRUE", "NULL", "'2005-06-14'")
        }
        assert len(shapes) == 6

    def test_an_outer_join_with_a_constant_in_on_lifts_its_where_constant(self):
        """A WHERE conjunct on the null-supplying side that rejects NULLs makes
        the LEFT join INNER whatever its constant, so the plan's structure reads
        no constant: texts differing in the WHERE constant are one shape, and
        one plan serves both."""
        template = (
            "SELECT c.id, t.id FROM customers c LEFT JOIN tickets t "
            "ON ((t.cust_id = c.id) AND (t.severity = 3)) WHERE (t.severity = {})"
        )
        texts = [template.format(value) for value in (3, 4)]
        assert len({lift(parse(text)).shape for text in texts}) == 1
        assert lift(parse(texts[0])).values == (Literal(3),)
        warm = connect()
        answers = []
        planned = calls_to([FederatedPlanner.plan], lambda: answers.extend(observe(warm, text) for text in texts))
        assert planned == {"FederatedPlanner.plan": 1}
        assert answers == [observe(connect(), text) for text in texts]
        # the WHERE drops padded rows: SQL's answer (stdlib sqlite3 agrees)
        assert [len(rows) for rows, *_ in answers] == [76, 0]
        assert not any("None" in row for row in answers[0][0])

    def test_a_bind_statement_is_its_own_key_and_its_keys_are_never_walked(self):
        """Its own key no longer: the template's shape and a mark, its keys the
        one vector slot (read: how many) - known without a print or a walk."""
        template = parse("SELECT a FROM t WHERE b = 1")
        stmt = with_in_filter(template, ColumnRef("k"), range(200))
        assert lift(stmt).shape == "SELECT a FROM t WHERE (b = ?int) AND k IN ?keys"
        assert lift(stmt).values == (Literal(1), stmt.where.right.items)
        assert lift(stmt).shape == lift(with_in_filter(template, ColumnRef("k"), [7])).shape
        planted = plant(stmt)
        assert planted.where.left.right == Param(0, int)
        assert planted.where.right.items == Param(1, LiteralValues)  # the keys: one slot, whole
        assert FederatedPlanner(FIXTURE.catalog()).cost_model.slot_reads(stmt)[-1] == 200
        assert stmt.where.right.items._literals is None  # no `Literal` was made

    def test_a_bind_statement_over_a_template_with_a_constant_is_prepared_once(self):
        source = RelationalSource("s", build_demo_db())
        template = parse("SELECT o.cust_id, o.total FROM orders o WHERE o.status = 'open'")
        for _ in range(3):
            source.execute_select(with_in_filter(template, ColumnRef("cust_id", "o"), [3, 4]))
        assert source._prepared.stats.hits == 2 and source._prepared.stats.insertions == 1

    def test_lifting_is_derived_once_per_statement(self):
        stmt = parse("SELECT a FROM t WHERE id = 7")
        assert lift(stmt) is lift(stmt)
        assert stmt == parse("SELECT a FROM t WHERE id = 7")  # not part of the value
        assert hash(stmt) == hash(parse("SELECT a FROM t WHERE id = 7"))

    def test_planting_gives_each_slot_its_own_param(self):
        seven = Literal(7)  # one object in a slot, a second slot and a non-slot
        where = BinaryOp(
            "AND",
            BinaryOp("AND", BinaryOp("=", ColumnRef("a"), seven), BinaryOp("=", seven, ColumnRef("b"))),
            BinaryOp("<", ColumnRef("c"), seven),
        )
        stmt = Select((), where=where)
        planted = plant(stmt)
        assert lift(stmt).values == (seven, seven)
        assert planted.where.left.left.right == Param(0, int)
        assert planted.where.left.right.left == Param(1, int)
        assert planted.where.right.right is seven  # no slot: the plan keeps it
        assert planted.text == lift(stmt).shape  # a `Param` prints as its slot


# -- the oracle: shape-warm == never saw the shape -------------------------------

INTS = st.one_of(st.integers(1, 200), st.sampled_from([0, -1, 10**6, 2**53, 2**53 + 1]))
CONSTANTS = st.one_of(
    INTS,
    INTS,
    st.sampled_from([
        7, 7.0, "7", True, None, 7.5, -0.0, 0.0, "", "SF", "enterprise", "open", SURROGATE,
        datetime.date(2024, 1, 1), datetime.date(1999, 12, 31),
    ]),
)
TEMPLATES = list(LOOKUPS.values()) + [
    "SELECT name FROM customers WHERE {id} = id",
    "SELECT id, total FROM orders WHERE cust_id = {id} AND status <> {b}",
    "SELECT id, total FROM orders WHERE cust_id = {id} AND {b} = status AND total > 500",
    "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id "
    "WHERE c.id = {id} AND o.status = {b}",
    "SELECT c.name, t.subject FROM customers c LEFT JOIN tickets t ON t.cust_id = c.id "
    "WHERE c.id <> {id} AND c.segment = {b}",
    "SELECT c.name, t.subject FROM customers c LEFT JOIN tickets t ON t.cust_id = c.id "
    "WHERE t.state = {b} AND c.id = {id}",
    "SELECT c.name, t.subject FROM customers c LEFT JOIN tickets t "
    "ON t.cust_id = c.id AND t.severity = 3 WHERE t.severity = {id}",
    "SELECT c.name, cr.score FROM customers c JOIN credit cr ON cr.cust_id = c.id "
    "WHERE c.id = {id}",
    "SELECT cust_id, score FROM credit WHERE cust_id = {id}",
    "SELECT status, COUNT(*) AS n FROM orders WHERE cust_id = {id} GROUP BY status "
    "HAVING COUNT(*) > 1 ORDER BY status LIMIT 3",
    "SELECT id FROM orders WHERE order_date = {b} AND cust_id <> {id}",
    # one source, so the WHERE conjunct on the outer side travels in the ON
    "SELECT o.id, p.name FROM orders o LEFT JOIN products p ON o.product_id = p.id "
    "WHERE p.category = {b} AND o.cust_id = {id}",
    # constants that stay in the shape, varied beside one that lifts
    "SELECT id, total FROM orders WHERE total < {b} AND cust_id = {id}",
    "SELECT name FROM customers WHERE id = {id} OR id = {b}",
    "SELECT id FROM orders WHERE cust_id IN ({id}, {b}) AND status = 'open'",
    "SELECT id FROM orders WHERE cust_id BETWEEN {id} AND {b} AND status <> 'open'",
    "SELECT name FROM customers WHERE name LIKE {b} AND segment = 'smb'",
]


def texts_of(template, bindings):
    return [
        template.format(id=render_literal(a), b=render_literal(b)) for a, b in bindings
    ]


class TestShapeWarmEqualsFresh:
    @settings(max_examples=150, deadline=None)
    @example(LOOKUPS["point_lookup"], [(7, 0), (8, 0), (10**6, 0), (7.0, 0), ("7", 0), (9, 0)])
    @example(LOOKUPS["customer360"], [(7, 0), (0, 0), (8, 0), (-1, 0), (7, 0)])
    @example(TEMPLATES[7], [(7, "open"), (8, "closed"), (8, "nope"), (9, SURROGATE), (1, "")])
    @example(TEMPLATES[12], [(3, 0), (2, 0), (3, 0)])  # the ON constant: by value
    @example(TEMPLATES[16], [(7, datetime.date(2024, 1, 1)), (8, datetime.date(1999, 1, 1)), (8, "x")])
    @example(TEMPLATES[17], [(7, "tools"), (8, "toys"), (8, "tools"), (9, "")])
    @example(TEMPLATES[18], [(7, 100), (7, 900), (8, 5000), (8, "x")])  # `<`: never lifted
    @given(
        st.sampled_from(TEMPLATES),
        st.lists(st.tuples(CONSTANTS, CONSTANTS), min_size=2, max_size=5),
    )
    def test_every_binding_is_answered_as_by_an_engine_that_never_saw_the_shape(
        self, template, bindings
    ):
        warm = connect()
        for text in texts_of(template, bindings):
            assert observe(warm, text) == observe(connect(), text)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(QUERIES)),
        st.lists(st.lists(CONSTANTS, min_size=2, max_size=2), min_size=1, max_size=3),
    )
    def test_q1_to_q12_with_other_constants_in_their_slots(self, name, bindings):
        stmt = parse(QUERIES[name])
        slots = len(lift(stmt).values)
        warm = connect()
        assert observe(warm, stmt) == observe(connect(), stmt)
        for values in bindings:
            other = rebound(stmt, values[:slots])
            assert observe(warm, other) == observe(connect(), other)

    def test_a_constant_of_another_type_never_shares_a_plan(self):
        warm = connect()
        for text in ("7", "7.0", "'7'", "TRUE", "NULL"):
            result = observe(warm, f"SELECT name FROM customers WHERE id = {text}")
            assert result == observe(connect(), f"SELECT name FROM customers WHERE id = {text}")
        assert len(warm.cache.plans) == 5

    def test_the_feedback_cost_model_plans_per_text(self):
        """`adaptive/signature.py` keys calibrations on the constants."""
        warm = connect(adaptive=True)
        for cust_id in (7, 8, 9):
            warm.query(LOOKUPS["orders_of"].format(id=cust_id))
        assert len(warm.cache.plans) == 3
        assert all(len(family.value.members) == 1 for family in warm.cache.plans._entries.values())


# -- a bind join's keys: the one vector slot --------------------------------------

BIND_KEYS = [
    [3], list(range(1, 36)), list(range(1, 201)), list(range(1, 202)), list(range(1, 451)),
    [], [3, 2.0, 5], [3, None, 5], [3, 2**53 + 1], [None], [4], [2.5], list(range(100, 135)),
]
ORDERS_OF = [
    parse("SELECT o.cust_id, o.total FROM orders o WHERE o.total > 100"),
    parse("SELECT o.cust_id, o.total FROM orders o WHERE o.status = 'open'"),
    parse("SELECT o.cust_id, o.total FROM orders o WHERE o.status = 'closed'"),
    parse("SELECT o.cust_id, o.total FROM orders o"),
]


class TestBindStatements:
    @settings(max_examples=120, deadline=None)
    @example([(0, 0), (0, 10), (0, 5), (0, 10), (0, 12)])  # one key, none, again one, another one
    @example([(1, 1), (2, 12), (1, 6), (2, 7), (1, 8)])  # a float, a NULL, 2**53 + 1 among 35 ints
    @example([(0, 2), (0, 3), (0, 2), (0, 4), (3, 4)])  # 200, 201, 450
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, len(BIND_KEYS) - 1)), min_size=2, max_size=6))
    def test_a_source_answers_each_key_list_like_one_that_never_saw_the_shape(self, chunks):
        db = build_demo_db()
        veteran = RelationalSource("s", db)
        for template, keys in chunks:
            stmt = with_in_filter(ORDERS_OF[template], ColumnRef("cust_id", "o"), BIND_KEYS[keys])
            assert answer(veteran, stmt) == answer(RelationalSource("s", db), stmt)

    @pytest.mark.parametrize("counts", [(1, 35, 200, 201, 450, 0, 35, 1), (450, 201, 1, 0, 1)])
    def test_an_engine_probes_with_each_key_list_like_one_that_never_saw_the_shape(self, counts):
        """`invoices` probed with the ids of the first `n` orders: 1 to 3 chunks a query."""
        text = (
            "SELECT o.id, i.amount FROM orders o JOIN invoices i ON o.id = i.id "
            "WHERE o.id <= {} AND i.paid <> {}"
        )
        warm = connect(semijoin="force")
        assert warm.planner.plan(text.format(5, "TRUE")).bind_joins
        for n, paid in zip(counts, ("TRUE", "FALSE") * 4):
            assert observe(warm, text.format(n, paid)) == observe(connect(semijoin="force"), text.format(n, paid))

    def test_another_key_list_of_a_known_length_plans_nothing(self):
        source = RelationalSource("s", build_demo_db())
        key = ColumnRef("cust_id", "o")
        counted = [LocalEngine.logical_plan, LocalEngine.lower]
        first = calls_to(counted, lambda: source.execute_select(with_in_filter(ORDERS_OF[1], key, range(1, 36))))
        assert first["LocalEngine.logical_plan"] == 1
        for template, keys in ((1, range(2, 37)), (2, range(3, 38)), (1, range(1, 36))):
            again = calls_to(counted, lambda: source.execute_select(with_in_filter(ORDERS_OF[template], key, keys)))
            assert again == {"LocalEngine.logical_plan": 0, "LocalEngine.lower": 0}
        other_length = calls_to(counted, lambda: source.execute_select(with_in_filter(ORDERS_OF[1], key, range(1, 9))))
        assert other_length["LocalEngine.logical_plan"] == 1  # its read differs: planned, and joins the family
        assert len(source._prepared) == 1 and len(source._prepared.get(lift(with_in_filter(ORDERS_OF[1], key, [1])).shape).members) == 4

    def test_the_optimizer_keeps_a_key_list_whole(self):
        """`map_children` used to rebuild an IN-list item by item: a `Literal`
        per key, and a node that no longer *was* the planted one."""
        from repro.engine.planner import DatabaseResolver, bind_select
        from repro.engine.rewrite import optimize_logical

        db = build_demo_db()
        made = {}
        for count in (2, 200):
            stmt = with_in_filter(ORDERS_OF[1], ColumnRef("cust_id", "o"), range(count))
            items = stmt.where.right.items
            bound = bind_select(stmt, DatabaseResolver(db))
            plans = []
            made[count] = calls_to(
                [Literal.__init__], lambda: plans.append(optimize_logical(bound, LocalEngine(db).cost_model))
            )
            predicates = [node.predicate for node in plans[0].walk() if hasattr(node, "predicate")]
            assert [p.right.items for p in predicates if isinstance(p.right, InList)] == [items]
        assert made[2] == made[200]  # the rewriter's own TRUE / FALSE: none per key
        rebuilt = transform(stmt.where, lambda node: None)
        assert rebuilt == stmt.where and rebuilt.right.items is items


# -- a rewriter that copies a planted literal ------------------------------------


class TestACopiedLiteralIsNeverServed:
    """A plan holds a `Param` in each slot, never a constant: a rewriter that
    copies what it finds - literals and `Param`s alike - copies the slot, and
    every later statement of the shape is answered with its own constants.
    One plan serves each reads."""

    def copying(self, monkeypatch, module, rule="optimize_logical"):
        from repro.engine import rewrite

        optimize = getattr(rewrite, rule)

        def copy(e):
            if isinstance(e, Literal):
                return Literal(e.value)
            return Param(e.index, e.kind) if isinstance(e, Param) else None

        def copied(node):
            node = node.with_children([copied(child) for child in node.children])
            if hasattr(node, "predicate"):
                node = replace(node, predicate=transform(node.predicate, copy))
            return node

        def copy_literals(plan, *args, **kwargs):
            return copied(optimize(plan, *args, **kwargs))

        monkeypatch.setattr(module, rule, copy_literals)

    def test_at_a_source(self, monkeypatch):
        from repro.engine import executor

        self.copying(monkeypatch, executor)
        db = build_demo_db()
        veteran = RelationalSource("s", db)
        stmts = [parse(f"SELECT id, total FROM orders WHERE status = 'open' AND cust_id = {i}") for i in (3, 4, 5, 4)]
        answers = []
        planned = calls_to([LocalEngine.logical_plan], lambda: answers.extend(answer(veteran, stmt) for stmt in stmts))
        reads = {veteran.engine.cost_model.slot_reads(stmt) for stmt in stmts}
        assert planned == {"LocalEngine.logical_plan": len(reads)} == {"LocalEngine.logical_plan": 1}
        monkeypatch.undo()
        assert answers == [answer(RelationalSource("s", db), stmt) for stmt in stmts]
        assert len({repr(outcome) for outcome, _, _ in answers}) == 3  # never the model's rows

    def test_under_a_pre_aggregated_join_at_a_source(self, monkeypatch):
        """The slot sits in the filter of the join input the source groups:
        a second constant is served by its family's plan, copied slot or not."""
        from repro.engine import executor

        db = build_demo_db()
        template = (
            "SELECT c.city, COUNT(*) AS n, SUM(o.total) AS revenue FROM customers c "
            "JOIN orders o ON c.id = o.cust_id WHERE o.status = '{}' GROUP BY c.city"
        )
        stmts = [parse(template.format(status)) for status in ("open", "closed")]
        assert "Alias(o)" in LocalEngine(db).logical_plan(stmts[0]).pretty()
        fresh = [answer(RelationalSource("s", db), stmt) for stmt in stmts]
        assert fresh[0][0] != fresh[1][0]
        for copy, plans in ((False, 1), (True, 1)):
            if copy:
                self.copying(monkeypatch, executor, "eager_aggregate")
            veteran = RelationalSource("s", db)
            answers = []
            planned = calls_to([LocalEngine.logical_plan], lambda: answers.extend(answer(veteran, stmt) for stmt in stmts))
            assert planned == {"LocalEngine.logical_plan": plans}
            monkeypatch.undo()
            assert answers == fresh

    def test_at_the_hub(self, monkeypatch):
        from repro.federation import planner

        self.copying(monkeypatch, planner)
        warm = connect()
        template = "SELECT c.name, t.subject FROM customers c LEFT JOIN tickets t ON t.cust_id = c.id WHERE c.id <> {} AND c.segment = 'smb'"
        hub_answers = []
        seen = calls_to([FederatedPlanner.plan], lambda: hub_answers.extend(observe(warm, template.format(i)) for i in (7, 8, 9, 8)))
        reads = {warm.planner.cost_model.slot_reads(parse(template.format(i))) for i in (7, 8, 9)}
        assert seen == {"FederatedPlanner.plan": len(reads)} == {"FederatedPlanner.plan": 1}
        monkeypatch.undo()
        assert hub_answers == [observe(connect(), template.format(i)) for i in (7, 8, 9, 8)]
        assert len({repr(rows) for rows, *_ in hub_answers}) == 3


# -- text -> statement without the parser: template path == parser path ----------

SPELLINGS = [
    "7", "8", "+5", "-5", "- -5", "-(5)", ".5", "1.", "5.0", "007", "'open'", "'it''s'", "''",
    "'2024-01-05'", "'2024-13-01'", "'2024-1-05'", "9007199254740992", "9007199254740993",
    "-9007199254740993", "TRUE", "NULL", "'\u00e9'", "'a\0b'", "'--'", "'unterminated", "?int", "7e",
]
NOISE = [
    lambda text: text,
    str.lower,
    lambda text: text.replace(" ", "  \n\t "),
    lambda text: text.replace("<>", "!=").replace(" = ", "="),
    lambda text: text + " -- WHERE id = 5",
    lambda text: text.replace("SELECT ", "SELECT\0", 1),
    lambda text: text.replace("name", "n\u00e9e"),
    lambda text: text + " LIMIT 5",
    lambda text: text + " LIMIT 6",
]


def parsed(text):
    """What the parser path makes of `text`, or the error it raises."""
    try:
        stmt = parse(text)
        return stmt, to_sql(stmt), lift(stmt) if isinstance(stmt, Select) else None
    except ParseError as exc:
        return type(exc), str(exc), exc.position


def canonical(text):
    try:
        stmt, printed = canonical_statement(text)
        return stmt, printed, lift(stmt) if isinstance(stmt, Select) else None
    except ParseError as exc:
        return type(exc), str(exc), exc.position


class TestTemplates:
    @settings(max_examples=300, deadline=None)
    @example(LOOKUPS["point_lookup"], [("7", "0", 0), ("8", "0", 0), ("-5", "0", 0), ("- -5", "0", 0), ("9007199254740993", "0", 0)])
    @example(TEMPLATES[2], [("7", "'open'", 0), ("8", "'it''s'", 0), ("8", "'2024-01-05'", 0), ("9", "'x'", 7), ("9", "'x'", 8)])
    @example(TEMPLATES[18], [("7", "500", 0), ("8", "500", 0), ("8", "600", 0), ("9", "'2024-13-01'", 0)])
    @example(LOOKUPS["customer360"], [("7", "0", 2), ("8", "0", 2), ("?int", "0", 0), ("7e", "0", 0)])
    @given(
        st.sampled_from(TEMPLATES + sorted(QUERIES.values())),
        st.lists(
            st.tuples(st.sampled_from(SPELLINGS), st.sampled_from(SPELLINGS), st.integers(0, len(NOISE) - 1)),
            min_size=2, max_size=6,
        ),
    )
    def test_a_text_is_read_as_the_parser_reads_it_whatever_was_learned_before(self, template, bindings):
        """Statement, canonical text and `lift` - or the same `ParseError`."""
        keys._PARSED.clear()
        keys._TEMPLATES.clear()
        for a, b, noise in bindings:
            text = NOISE[noise](template.replace("{id}", a).replace("{b}", b))
            assert canonical(text) == parsed(text), text

    def test_a_known_spelling_meets_neither_lexer_nor_parser(self):
        keys._TEMPLATES.clear()
        skipped = [lexer.tokenize, parser._Parser.parse_statement]
        for template in TEMPLATES[:15]:
            learned = calls_to(skipped, lambda: canonical_statement(template.format(id=41, b="'open'")))
            assert set(learned.values()) == {1}
            if not lift(parse(template.format(id=41, b="'open'"))).values:
                continue  # the ON constant: nothing lifts, no template
            for a, b in ((42, "'open'"), (43, "'closed'"), (2**53, "''")):
                text = template.format(id=a, b=b)
                hit = calls_to(skipped, lambda: canonical_statement(text))
                assert set(hit.values()) == {0} and canonical(text) == parsed(text), text

    @pytest.mark.parametrize("other", ["total < 600 LIMIT 5", "total < 500 LIMIT 6"])
    def test_a_verbatim_constant_that_differs_never_shares_a_template(self, other):
        keys._TEMPLATES.clear()
        text = "SELECT id FROM orders WHERE cust_id = {} AND total < 500 LIMIT 5"
        canonical_statement(text.format(41))
        counted = [parser._Parser.parse_statement]
        again = text.replace("total < 500 LIMIT 5", other)
        assert calls_to(counted, lambda: canonical_statement(again.format(42))) == {"_Parser.parse_statement": 1}
        assert canonical(again.format(43)) == parsed(again.format(43))
        # ... and each keeps its own: neither evicted the other's prototype
        for spelling in (text, again):
            assert calls_to(counted, lambda: canonical_statement(spelling.format(44))) == {"_Parser.parse_statement": 0}

    def test_an_integer_no_slot_holds_is_parsed_and_teaches_nothing_wrong(self):
        keys._TEMPLATES.clear()
        text = "SELECT name FROM customers WHERE id = {} AND segment = {}"
        for a, b in ((7, "'smb'"), (2**53 + 1, "'smb'"), (8, "'smb'"), (2**53 + 1, "'x'"), (9, "''")):
            assert canonical(text.format(a, b)) == parsed(text.format(a, b))

    def test_what_a_text_cannot_say_takes_the_parser(self):
        for text in ("SELECT a FROM t WHERE x = 5 -- c", "SELECT a FROM t WHERE x = '\u00e9'"):
            assert lexer.mask(text) is None
        assert lexer.mask("SELECT 'a--b'") is None  # coarse, and safe
        assert lexer.mask("SELECT a1, t.5 FROM t WHERE x=1.5 AND y<>'2024-02-30'") == (
            "SELECT a1, t?float FROM t WHERE x=?float AND y<>?str", [0.5, 1.5, "2024-02-30"]
        )


# -- what a shape hit skips, counted ---------------------------------------------


def calls_to(functions, thunk):
    """How often `thunk` enters each of `functions` (by code object)."""
    codes = {function.__code__: function.__qualname__ for function in functions}
    seen = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return seen


class TestSourcesAcceptWhatIsSent:
    def test_every_fetch_and_bind_chunk_fits_its_source(self):
        engine = connect()
        for sql in [*QUERIES.values(), *(template.format(id=7) for template in LOOKUPS.values())]:
            result = engine.query(sql)
            assert result.plan.fetches and unfit(result.plan) == [], sql


class TestWorkSaved:
    def test_a_shape_hit_plans_nothing_at_the_hub_or_at_a_source(self):
        from repro.engine.planner import bind_select
        from repro.engine.rewrite import optimize_logical
        from repro.sources.base import DataSource

        skipped = [
            FederatedPlanner.plan, optimize_logical, bind_select,
            parser._Parser.parse_statement, lexer.tokenize, LocalEngine.logical_plan,
        ]
        engine = connect(parallel_workers=1)  # the profiler sees one thread
        # a cold start: a text another test parsed, whose template was since
        # evicted by other spellings, would be parsed again on its first hit
        keys._PARSED.clear()
        keys._TEMPLATES.clear()
        lowered = []  # by which engine: the hub's own assembly, once per query, is all that is left

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is LocalEngine.lower.__code__:
                if frame.f_back.f_code is not LocalEngine.lower.__code__:
                    lowered.append(frame.f_locals["self"])

        codes = {function.__code__: function.__qualname__ for function in skipped}

        def checks(thunk):
            """How often `thunk` enters each of `skipped`, and how often a
            relational source checks a statement (a scan-only one checks every call)."""
            seen = dict.fromkeys([*codes.values(), "relational checks"], 0)

            def count(frame, event, arg):
                if event != "call":
                    return
                if frame.f_code in codes:
                    seen[codes[frame.f_code]] += 1
                elif frame.f_code is DataSource._check_fits.__code__:
                    seen["relational checks"] += isinstance(frame.f_locals["self"], RelationalSource)

            sys.setprofile(count)
            try:
                thunk()
            finally:
                sys.setprofile(None)
            return seen

        for name, template in LOOKUPS.items():
            first = checks(lambda: engine.query(template.format(id=7)))
            assert first["FederatedPlanner.plan"] == 1 and first["relational checks"] >= 1
            for cust_id in (8, 9, 8):  # customer360's one-key probes of `orders` and `credit` too
                hit = checks(lambda: engine.query(template.format(id=cust_id)))
                assert set(hit.values()) == {0}, (name, cust_id, hit)
            sys.setprofile(profile)
            try:
                engine.query(template.format(id=10))
            finally:
                sys.setprofile(None)
        hub_only = [lowerer.db.name for lowerer in lowered]
        assert len(lowered) >= len(LOOKUPS) and len(set(map(id, lowered))) == 1, hub_only
        assert lowered[0] not in [getattr(s, "engine", None) for s in engine.catalog.sources.values()]

    def test_each_lookup_template_is_one_slot_and_a_family_of_at_most_two(self):
        """At most two distinct reads a family (an id in or out of its column's
        range); the latest ids besides, `FAMILY` members at most."""
        engine = connect()
        for cust_id in range(1, 201):
            for template in LOOKUPS.values():
                engine.query(template.format(id=cust_id))
        families = {shape: entry.value for shape, entry in engine.cache.plans._entries.items()}
        assert len(families) == len(LOOKUPS)
        assert all(shape.count("?int") == 1 and "?" not in shape.replace("?int", "") for shape in families)
        assert all(1 <= len({member.reads for member in family.members}) <= 2 for family in families.values())
        assert all(len(family.members) <= FAMILY for family in families.values())
        assert engine.cache.plans.stats.misses == len(LOOKUPS)

    def test_a_second_pass_of_the_lookups_plans_nothing_at_the_hub_or_at_a_source(self):
        """Counted, never timed: six lookup templates over 200 ids in one
        shuffled order, twice. The first pass plans once per distinct (shape,
        reads) at each site, the second nowhere: a source that evicted the one
        member of a read (an id out of its column's range) would plan it again."""
        engine = connect()
        ids = list(range(1, 201))
        random.Random(102).shuffle(ids)
        texts = [template.format(id=cust_id) for cust_id in ids for template in LOOKUPS.values()]
        sources = {id(source.engine) for source in engine.catalog.sources.values() if isinstance(source, RelationalSource)}
        kinds = set()  # per site: each (shape, reads) a statement was met with

        def plans():
            made = {"hub": 0, "sources": 0}

            def profile(frame, event, arg):
                if event != "call":
                    return
                code, local = frame.f_code, frame.f_locals
                if code is FederatedPlanner.plan.__code__:
                    made["hub"] += 1
                elif code is LocalEngine.logical_plan.__code__ and id(local["self"]) in sources:
                    made["sources"] += 1
                elif code is engine._plan_for.__code__:
                    statement = local["statement"]
                    kinds.add(("hub", lift(statement).shape, engine.planner.cost_model.slot_reads(statement)))
                elif code is RelationalSource.execute_select.__code__:
                    source, (stmt, values) = local["self"], unbind(local["stmt"])  # a `Bound` one's constants
                    kinds.add((source.name, lift(stmt).shape, source.engine.cost_model.slot_reads(stmt, values)))

            sys.setprofile(profile)
            try:
                for text in texts:
                    engine.query(text)
            finally:
                sys.setprofile(None)
            return made

        first = plans()
        assert first == {
            "hub": sum(site == "hub" for site, *_ in kinds),
            "sources": sum(site != "hub" for site, *_ in kinds),
        }
        assert first["hub"] > len(LOOKUPS) and first["sources"] > len(LOOKUPS)  # some shape has two reads
        assert plans() == {"hub": 0, "sources": 0}

    def test_which_benchmark_texts_lift_anything(self):
        texts = QUERIES | workloads.DASHBOARD
        lifting = {name: len(lift(parse(sql)).values) for name, sql in texts.items()}
        assert {name: slots for name, slots in lifting.items() if slots} == {
            "q1_point_lookup": 1,  # id = 7
            "q2_filter_scan": 1,  # status = 'open'
            "q7_support_risk": 1,  # t.state = 'open'
            "q11_credit_check": 1,  # c.segment = 'enterprise'
            "q12_customer360": 1,  # c.segment = 'enterprise'
        }
        shapes = [lift(parse(sql)).shape for sql in texts.values()]
        assert len(set(shapes)) == len(shapes)  # so each is its family's one binding

    def test_a_second_pass_of_the_mix_binds_nothing(self):
        import copy

        engine = connect()
        for sql in QUERIES.values():
            engine.query(sql)
        counted = calls_to(
            [copy.copy, FederatedPlanner.plan, LocalEngine.logical_plan],
            lambda: [engine.query(sql) for sql in QUERIES.values()],
        )
        assert counted == {"copy": 0, "FederatedPlanner.plan": 0, "LocalEngine.logical_plan": 0}


# -- one family of plans, at the hub and at each source ------------------------


class Plan(NamedTuple):
    """A `Family` member and no more: prepared for `values`, under `reads`."""

    values: tuple
    reads: tuple


def unread():
    raise AssertionError("an exact hit reads nothing")


CUSTOMER_CHANGES = {
    "write": lambda db, source: db.table("customers").insert((99, "late", "SF", "smb")),
    "create_index": lambda db, source: db.table("customers").create_index("city"),
    "drop and re-create": lambda db, source: apply_write(db, source, ("recreate", 0)),
    "dialect swap": lambda db, source: setattr(source.capabilities, "dialect", repro.wrappers.ACMEDB),
}


class TestFamily:
    def test_an_exact_hit_never_reads(self):
        model = Plan((Literal(7),), (0.005,))
        family = Family().add(model).add(Plan((Literal(8),), (0.0,)))
        assert family.find((Literal(7),), unread) is model
        assert family.find((Literal(7.0),), lambda: (0.005,)) is model  # equal reads: the same plan

    def test_other_constants_find_the_first_member_of_their_reads_then_planning(self):
        reads = []
        first = Plan((Literal(1),), (0.005,))
        family = Family().add(Plan((Literal(2),), (0.005,))).add(Plan((Literal(3),), (0.0,))).add(first)
        assert family.find((Literal(4),), lambda: reads.append(1) or (0.005,)) is first
        assert reads == [1]  # once, for all members
        assert Family().add(first).find((Literal(4),), lambda: (0.0,)) is None

    def test_a_full_family_keeps_the_only_member_of_a_distinct_reads(self):
        out_of_range = Plan((Literal(0),), (0.0,))
        family = Family().add(out_of_range)
        for cust_id in range(1, FAMILY + 3):
            family = family.add(Plan((Literal(cust_id),), (0.005,)))
        assert len(family.members) == FAMILY and family.members[-1] is out_of_range
        assert [member.values[0].value for member in family.members[:-1]] == list(range(FAMILY + 2, 3, -1))
        distinct = Family()
        for n in range(FAMILY + 1):
            distinct = distinct.add(Plan((Literal(n),), (n,)))
        assert [member.reads for member in distinct.members] == [(n,) for n in range(FAMILY, 0, -1)]

    def test_what_find_returned_leaves_it_as_it_is_and_a_binding_is_kept_newest(self):
        model = Plan((Literal(7),), (0.005,))
        family = Family().add(model)
        assert family.add(family.find((Literal(7),), unread)) is family
        assert family.add(family.find((Literal(8),), lambda: (0.005,))) is family
        planned = Plan((Literal(9),), (0.0,))
        assert family.find((Literal(9),), lambda: (0.0,)) is None
        assert family.add(planned).members == (planned, model)

    @pytest.mark.parametrize("change", sorted(CUSTOMER_CHANGES))
    def test_a_source_family_is_replaced_whole_when_what_it_was_planned_under_moved(self, change):
        db = build_demo_db()
        source = RelationalSource("s", db)
        point = [parse(f"SELECT name FROM customers WHERE id = {i}") for i in (3, 4)]
        for stmt in point:
            source.execute_select(stmt)
        shape = lift(point[0]).shape
        kept = source._prepared.get(shape)
        assert len(kept.members) == 2
        db.table("orders").delete_where(lambda row: row[0] == 1)  # another table's write
        source.execute_select(point[0])
        assert source._prepared.get(shape) is kept
        CUSTOMER_CHANGES[change](db, source)
        planned = calls_to([LocalEngine.logical_plan], lambda: source.execute_select(point[1]))
        assert planned == {"LocalEngine.logical_plan": 1}  # its own member was stale
        replaced = source._prepared.get(shape)
        assert replaced is not kept and len(replaced.members) == 1
        assert calls_to([LocalEngine.logical_plan], lambda: source.execute_select(point[0])) == {"LocalEngine.logical_plan": 0}


# -- a changing source between two bindings --------------------------------------

POINT = [parse(f"SELECT name FROM customers WHERE id = {i}") for i in (3, 4, 99, 4)]
OPEN_ORDERS = [
    parse(f"SELECT id, total FROM orders WHERE status = '{s}' AND cust_id <> {i} AND total > 200")
    for s, i in (("open", 3), ("closed", 3), ("open", 1004), ("nope", 3))
]
INDEXED = [
    # ROADMAP item 6's hole: an index on `cust_id` decides whether the typed
    # comparison `id < 'x'` ever runs - by *value* (does the key have rows?)
    parse(f"SELECT id FROM orders WHERE cust_id = {i} AND id < 'x'") for i in (1, 999, 2, 999)
]


class TestBindingsMeetAChangingSource:
    @settings(max_examples=150, deadline=None)
    @example(POINT, [0, 1, ("insert", 1000, 3), 2, ("recreate", 1), 3, 0])
    @example(OPEN_ORDERS, [0, 1, ("insert", 1004, 3), 2, 3, ("delete", 3), 1, 0])
    @example(INDEXED, [0, 1, ("index", ("orders", "cust_id"), False), 0, 1, 2, 3])
    @example(INDEXED, [("index", ("orders", "cust_id"), True), 1, 0, 3, 2])
    @example(POINT, [0, ("dialect", repro.wrappers.ACMEDB), 1, ("dialect", repro.wrappers.GENERIC), 2])
    @given(
        st.sampled_from([POINT, OPEN_ORDERS, INDEXED]),
        st.lists(st.one_of(st.integers(0, 3), st.integers(0, 3), write_ops), max_size=25),
    )
    def test_a_long_lived_source_answers_each_binding_like_a_fresh_one(self, bindings, ops):
        """Writes, `create_index`, drop + re-create and a dialect swap between
        two bindings of one shape: rows or error, charge and logged text."""
        db = build_demo_db()
        veteran = RelationalSource("s", db)
        for op in ops:
            if not isinstance(op, int):
                apply_write(db, veteran, op)
                continue
            fresh = RelationalSource("s", db, dialect=veteran.capabilities.dialect)
            assert answer(veteran, bindings[op]) == answer(fresh, bindings[op])

    def test_a_write_that_moves_the_statistics_replans_the_next_binding(self):
        fixture = build_enterprise(BenchConfig(scale=1, seed=workloads.DATA_SEED))
        engine = repro.connect(fixture.catalog(), EngineConfig(clock=SimClock()))
        text = LOOKUPS["point_lookup"].format
        engine.query(text(id=7))
        customers = fixture.crm.table("customers")
        customers.insert((100_001,) + tuple(customers.get(7)[1:]))  # max(id) moves
        fresh = repro.connect(fixture.catalog(), EngineConfig(clock=SimClock()))
        for cust_id in (8, 100_001, 500, 10**6):
            assert observe(engine, text(id=cust_id)) == observe(fresh, text(id=cust_id))

    def test_a_write_that_leaves_the_reads_alone_is_met_like_a_repeat(self):
        """The text-keyed plan cache kept a repeated text's plan (and its
        estimates) across writes; another binding of the shape now does too."""
        fixture = build_enterprise(BenchConfig(scale=1, seed=workloads.DATA_SEED))
        engine = repro.connect(fixture.catalog(), EngineConfig(clock=SimClock()))
        text = LOOKUPS["orders_of"].format
        before = engine.query(text(id=7))
        orders = fixture.sales.table("orders")
        orders.insert((10_000_001, 8) + tuple(orders.get(1)[2:]))  # no new cust_id
        repeat, other = engine.query(text(id=7)), engine.query(text(id=8))
        fresh = repro.connect(fixture.catalog(), EngineConfig(clock=SimClock()))
        assert other.relation.rows == fresh.query(text(id=8)).relation.rows
        assert repeat.plan is before.plan and other.metrics.plan_cache_hits == 1
        assert other.plan.fetches[0].est_rows == before.plan.fetches[0].est_rows

    def test_a_revoked_source_refuses_the_next_binding(self):
        engine = connect()
        engine.query(LOOKUPS["point_lookup"].format(id=7))
        engine.catalog.sources["crm"].capabilities.allows_external_queries = False
        with pytest.raises(SourceError, match="does not admit external queries"):
            engine.query(LOOKUPS["point_lookup"].format(id=8))


# -- one engine, many threads ----------------------------------------------------


class TestThreads:
    def test_eight_threads_of_mixed_bindings_answer_as_serial(self):
        texts = [
            template.format(id=cust_id)
            for cust_id in (7, 8, 9, 10**6, 7, 11, 12, 8)
            for template in LOOKUPS.values()
        ]
        serial = connect()
        expected = [observe(serial, text) for text in texts]
        shared, wrong = connect(), []

        def worker(offset):
            for step in range(len(texts)):
                index = (offset * 5 + step) % len(texts)
                if observe(shared, texts[index]) != expected[index]:
                    wrong.append(texts[index])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert all(len(entry.value.members) <= FAMILY for entry in shared.cache.plans._entries.values())
