"""A join under a plain-column pick emits only the picked columns.

Lowering folds a plain-column `Project` that would be built over an equi
`HashJoinOp` or a bind join into the join (`HashJoinOp.emitting`): the
probe matches row positions, and each picked column is gathered once, off
the columns an input holds or off its rows. The answers are held against
the pre-kernel row loops of `test_operator_oracle.py` plus the pick, in
order by `repr`; q4's hub work is counted, never timed. The web service's
one pass over its keys is held against the per-key loop it replaced.
"""

from __future__ import annotations

import threading
from functools import partial
from operator import itemgetter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.common.relation import Batch, Columns, Gathered, Relation, vouched
from repro.common.schema import Column, RelSchema
from repro.common.types import DataType as T
from repro.engine.logical import LogicalJoin, LogicalPlan, LogicalProject
from repro.engine.physical import HashJoinOp, PhysicalOp, ProjectOp, RelabelOp, Transposed, ValuesOp
from repro.federation import EngineConfig, FederatedEngine
from repro.federation.execution import Execution
from repro.federation.nodes import BindJoinOp, LogicalBindJoin
from repro.netsim import MetricsCollector, SimClock
from repro.sources import WebServiceSource
from repro.sql.ast import BinaryOp, SelectItem, and_all
from repro.sql.eval import compile_predicate
from repro.sql.exprutil import split_conjuncts
from repro.sql.parser import parse
from repro.wrappers.pushability import binding_supplier
from tests.test_operator_oracle import (
    ENGINE,
    StubExecution,
    StubSource,
    join_rows,
    left_col,
    outcome,
    ref_bind_join,
    ref_hash_join,
    residuals,
    right_col,
)

# --- the join that emits its pick ---------------------------------------------

#: how a leaf hands its rows out: a plain list, a `Batch` holding its
#: columns, `Columns` (what a fetch of a shipped answer hands out), a
#: `Batch` holding `Transposed` columns (a filter's kept rows) and `Columns`
#: picked from wider rows (a pick over those)
FORMS = ["rows", "batch", "columns", "kept", "picked"]


class Held(LogicalPlan):
    """A leaf of three-wide rows handed out in `form`, vouching each
    column's exact types when `vouch`."""

    def __init__(self, qualifier, rows, form, vouch):
        self.schema = RelSchema(Column(f"c{i}", T.ANY, qualifier) for i in range(3))
        self.rows, self.form, self.vouch = rows, form, vouch

    def lower_physical(self, engine, context=None):
        leaf = ValuesOp(self.schema, self.rows)
        leaf.run = self.batch
        return leaf

    def batch(self, values=()):
        rows = list(self.rows)
        columns = Gathered([row[p] for row in rows] for p in range(3))
        kinds = tuple(frozenset(map(type, column)) for column in columns) if self.vouch else None
        if self.form == "columns":
            return Columns(columns, kinds, len(rows))
        if self.form == "picked":
            wide = [("w",) + row + ("w",) for row in rows]
            return Columns(Transposed(wide, (1, 2, 3)), kinds, len(rows), wide, partial(map, itemgetter(1, 2, 3)))
        out = vouched(Batch(rows), kinds)
        if self.form == "batch":
            out.columns = columns
        elif self.form == "kept":
            out.columns = Transposed(out, None)
        return out


#: positions into the six-wide joined row: anything (repeats too), keys
#: only, one side only
picks = st.one_of(
    st.lists(st.integers(0, 5), min_size=1, max_size=7),
    st.sampled_from([[0], [3], [0, 3], [3, 0, 0]]),
    st.lists(st.integers(0, 2), min_size=1, max_size=4),
    st.lists(st.integers(3, 5), min_size=1, max_size=4),
)


def joined_col(position):
    return left_col(position) if position < 3 else right_col(position - 3)


def picked(pick):
    """The select list of `pick`, aliased: a position may be picked twice."""
    return [SelectItem(joined_col(position), f"o{i}") for i, position in enumerate(pick)]


def assert_vouch_holds(rows, width):
    """Each vouched column holds no type its vouch leaves out."""
    kinds = getattr(rows, "kinds", None)
    if kinds is None:
        return
    assert len(kinds) == width
    for position, vouch in enumerate(kinds):
        if vouch is not None:
            assert {type(row[position]) for row in rows} <= vouch


@given(
    left=join_rows, right=join_rows, key_count=st.integers(1, 2),
    kind=st.sampled_from(["INNER", "LEFT"]), residual=residuals, pick=picks,
    forms=st.tuples(st.sampled_from(FORMS), st.sampled_from(FORMS)),
    vouches=st.tuples(st.booleans(), st.booleans()),
)
@example(  # duplicate build keys, a NULL key on each side, a probe row matching nothing
    left=[(1, 0, 0), (None, 1, 1), (2, 2, 2), (1, 3, 3)], right=[(1, "a", 0), (1, "b", 1), (None, "c", 2)],
    key_count=1, kind="LEFT", residual=None, pick=[4, 1, 4], forms=("columns", "rows"), vouches=(True, False),
)
@example(  # every build key distinct; INNER drops the probe rows nothing matched
    left=[(1, 0, 0), (5, 1, 1), (2, 2, 2)], right=[(2, "b", 0), (1, "a", 1)],
    key_count=1, kind="INNER", residual=None, pick=[3, 2], forms=("columns", "columns"), vouches=(True, True),
)
@example(  # a residual rejecting every match pads every probe row under LEFT
    left=[(1, 0, "x")], right=[(1, 0, "x")], key_count=1, kind="LEFT",
    residual=BinaryOp("<>", left_col(2), right_col(2)), pick=[5, 0], forms=("batch", "batch"), vouches=(True, True),
)
@example(  # the right side's columns read off the wider rows they were picked from, padded
    left=[(1, 0, 0), (3, 1, 1)], right=[(1, "a", 0), (1, "b", 1)],
    key_count=1, kind="LEFT", residual=None, pick=[5, 4, 0], forms=("kept", "picked"), vouches=(True, True),
)
@settings(max_examples=400, deadline=None)
def test_a_join_emitting_its_pick_matches_the_row_loop(left, right, key_count, kind, residual, pick, forms, vouches):
    left_leaf, right_leaf = Held("l", left, forms[0], vouches[0]), Held("r", right, forms[1], vouches[1])
    equi = [BinaryOp("=", left_col(i), right_col(i)) for i in range(key_count)]
    join = LogicalJoin(left_leaf, right_leaf, kind, and_all(equi + ([residual] if residual is not None else [])))
    op = ENGINE.lower(LogicalProject(join, picked(pick)))
    assert type(op) is RelabelOp and op.explain_label().startswith("Project(")
    assert type(op.child) is HashJoinOp and op.explain().count("HashJoin") == 1
    residual_fn = compile_predicate(residual, join.schema) if residual is not None else None
    positions = list(range(key_count))

    def expected():
        rows = ref_hash_join(left, right, positions, positions, kind, residual_fn, 3)
        return [tuple([row[position] for position in pick]) for row in rows]

    assert outcome(op.run) == outcome(expected)
    if outcome(expected)[0] == "ok":
        emitted = op.run()
        if pick != list(range(6)):  # else the pick is a relabel of every joined row
            assert type(emitted) is Columns and len(emitted.columns) == len(pick)
        assert_vouch_holds(emitted.rows() if type(emitted) is Columns else emitted, len(pick))


@given(
    left=join_rows, remote=join_rows, kind=st.sampled_from(["INNER", "LEFT"]),
    residual=residuals, pick=picks, form=st.sampled_from(FORMS),
)
@example(
    left=[(None, 0, 0), (2, 2, 0), (2, 2, 1)], remote=[(2, 0, 0), (2, 1, 1), (None, 0, 0)],
    kind="LEFT", residual=None, pick=[3, 2, 4], form="columns",
)
@settings(max_examples=200, deadline=None)
def test_a_bind_join_emitting_its_pick_matches_its_old_loop(left, remote, kind, residual, pick, form):
    fetch_schema = Held("r", [], "rows", False).schema
    node = LogicalBindJoin(
        Held("l", left, form, True), None, StubSource(), fetch_schema, left_col(1), right_col(0),
        kind=kind, residual=residual,
    )
    op = ENGINE.lower(LogicalProject(node, picked(pick)), StubExecution(remote))
    assert type(op) is RelabelOp and type(op.child) is BindJoinOp
    residual_fn = compile_predicate(residual, node.schema) if residual is not None else None

    def expected():
        rows = ref_bind_join(left, 1, StubExecution(remote).rows_for, 0, kind, residual_fn, 3)
        return [tuple([row[position] for position in pick]) for row in rows]

    assert outcome(op.run) == outcome(expected)


def test_a_join_whose_consumer_reads_rows_still_concatenates_them():
    """No pick above it: the join hands out `row + other` as a list."""
    rows = [(1, "a", 0.5), (2, "b", None)]
    join = LogicalJoin(Held("l", rows, "columns", True), Held("r", rows, "batch", True), "INNER",
                       BinaryOp("=", left_col(0), right_col(0)))
    out = ENGINE.lower(join).run()
    assert type(out) is Batch and out == [row + row for row in rows]


def test_a_picked_join_shares_nothing_between_runs_or_threads():
    """A prepared tree is run by many threads at once: the join holds its
    pick, never a run's positions."""
    rows = [(i % 7, f"n{i}", float(i)) for i in range(300)]
    join = LogicalJoin(Held("l", rows, "columns", True), Held("r", rows[:7], "columns", True), "INNER",
                       BinaryOp("=", left_col(0), right_col(0)))
    op = ENGINE.lower(LogicalProject(join, picked([4, 2])))
    serial = list(op.run())
    answers, failures = [], []

    def caller():
        try:
            for _ in range(20):
                answers.append(list(op.run()))
        except Exception as exc:  # reported below
            failures.append(exc)

    threads = [threading.Thread(target=caller) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures and len(answers) == 80
    assert all(answer == serial for answer in answers)


# --- q4 at the hub: counted ---------------------------------------------------


def _ops(op: PhysicalOp):
    yield op
    for child in op.children:
        yield from _ops(child)


def test_q4_builds_its_rows_once_for_the_answer(monkeypatch):
    """Neither fetch builds its rows, the hub tree holds no `ProjectOp`, the
    join hands out `Columns` three wide, and `Columns.rows` runs once: for
    the answer."""
    fixture = build_enterprise(BenchConfig(scale=4, seed=42))
    engine = FederatedEngine(fixture.catalog(), EngineConfig(clock=SimClock()))
    sql = QUERIES["q4_crm_sales_join"]
    expected = list(engine.query(sql).relation.rows)  # cold: plans made
    fetched, builds, emitted, roots = [], [], [], []
    fetch, rows, join, relation = Execution.fetch, Columns.rows, HashJoinOp.run, PhysicalOp.relation

    def fetching(execution, node, collector=None):
        fetched.append(fetch(execution, node, collector))
        return fetched[-1]

    def building(columns):
        if columns._rows is None:
            builds.append(columns)
        return rows(columns)

    def joining(op, values=()):
        emitted.append(join(op, values))
        return emitted[-1]

    def relating(op, values=()):
        roots.append(op)
        return relation(op, values)

    monkeypatch.setattr(Execution, "fetch", fetching)
    monkeypatch.setattr(Columns, "rows", building)
    monkeypatch.setattr(HashJoinOp, "run", joining)
    monkeypatch.setattr(PhysicalOp, "relation", relating)
    result = engine.query(sql)
    assert result.relation.rows == expected and len(expected) > 3000
    relations = list({id(relation): relation for relation in fetched}.values())
    assert len(relations) == 2
    assert all(relation._rows is None and type(relation._columns) is Columns for relation in relations)
    assert len(emitted) == 1 and type(emitted[0]) is Columns and len(emitted[0].columns) == 3
    assert builds == [emitted[0]] and result.relation._columns is emitted[0]
    hub = roots[-1]
    assert not any(type(op) is ProjectOp for op in _ops(hub)), hub.explain()
    assert hub.explain().splitlines()[0] == "Project(c.name, o.total, o.status)"


def test_an_answer_passing_a_fetch_through_is_still_the_callers(monkeypatch):
    """q1's root hands its fetch's batch up: the answer is copied, by
    comparing batches, and the fetch's `Columns` keep the rows they built."""
    fixture = build_enterprise(BenchConfig(scale=1, seed=42))
    engine = FederatedEngine(fixture.catalog(), EngineConfig(clock=SimClock()))
    sql = QUERIES["q1_point_lookup"]
    fetched = []
    fetch = Execution.fetch
    monkeypatch.setattr(Execution, "fetch", lambda execution, node, collector=None: fetched.append(fetch(execution, node, collector)) or fetched[-1])
    answer = engine.query(sql).relation
    assert fetched and all(answer.rows is not relation.rows for relation in fetched)
    answer.rows.append(("edited",))
    assert engine.query(sql).relation.rows == answer.rows[:-1]


PICKED_JOINS = ["q4_crm_sales_join", "q7_support_risk", "q8_unpaid_invoices", "q11_credit_check"]


def test_caller_threads_share_the_fetch_cache_columns_the_joins_read():
    """Four caller threads run the picked joins from one engine's prepared
    trees and fetch cache - every join reads the same cached `Columns` - and
    answer as one caller does."""
    from repro.cache import CacheConfig, CacheHierarchy

    fixture = build_enterprise(BenchConfig(scale=1, seed=42))
    engine = FederatedEngine(fixture.catalog(), EngineConfig(
        clock=SimClock(), cache=CacheHierarchy(CacheConfig(result_enabled=False)),
    ))
    serial = {name: [repr(row) for row in engine.query(QUERIES[name]).relation.rows] for name in PICKED_JOINS}
    answers, failures = [], []

    def caller(offset):
        try:
            for i in range(3 * len(PICKED_JOINS)):
                name = PICKED_JOINS[(i + offset) % len(PICKED_JOINS)]
                result = engine.query(QUERIES[name])
                answers.append((name, [repr(row) for row in result.relation.rows], result.metrics.fetch_cache_hits))
        except Exception as exc:  # reported below, with the thread's statement
            failures.append(exc)

    threads = [threading.Thread(target=caller, args=(offset,)) for offset in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures and len(answers) == 12 * len(PICKED_JOINS)
    assert all(rows == serial[name] for name, rows, _ in answers)
    assert all(hits for _, _, hits in answers)


# --- the web service: one pass over the keys ----------------------------------


def per_key_reference(source, stmt, metrics):
    """`WebServiceSource.execute_select` as it stood: per distinct key one
    lookup and one `record_source_query`."""
    table_ref = stmt.from_tables[0]
    keys = None
    for conjunct in split_conjuncts(stmt.where):
        _, values = binding_supplier(conjunct)
        if keys is None:
            keys = dict.fromkeys(values)
        else:
            wanted = set(values)
            keys = {key: None for key in keys if key in wanted}
    rows = []
    for key in keys or ():
        rows.extend(source.lookup(key))
        metrics.record_source_query(source.name, source.capabilities.per_query_overhead_s + 0.0)
    return source._projected(stmt, source._backing.schema.with_qualifier(table_ref.binding), rows)


SERVICE_ROWS = [(key % 9, key, "ABC"[key % 3]) for key in range(20)]  # several rows per key


def service(handled: bool) -> WebServiceSource:
    def handler(key):
        return [list(row) for row in SERVICE_ROWS if row[0] == key][::-1]

    return WebServiceSource(
        "svc", "credit", [("cust_id", T.INT), ("score", T.INT), ("rating", T.STRING)], "cust_id",
        handler=handler if handled else None, rows=SERVICE_ROWS, per_call_overhead_s=0.037,
    )


def in_list(values) -> str:
    return f"cust_id IN ({', '.join(map(str, values))})"


@given(
    first=st.lists(st.integers(-1, 11), min_size=1, max_size=12),
    second=st.none() | st.lists(st.integers(-1, 11), min_size=1, max_size=8),
    handled=st.booleans(), start=st.floats(0, 5), columns=st.sampled_from(["*", "score, cust_id", "rating"]),
)
@example(first=[3, 3, 5, 40], second=[5, 3], handled=False, start=0.1, columns="*")
@example(first=[2, 2], second=None, handled=True, start=0.7, columns="rating")
@example(first=[40], second=None, handled=False, start=0.1, columns="*")
@settings(max_examples=200, deadline=None)
def test_a_web_service_answers_as_its_per_key_loop(first, second, handled, start, columns):
    """Duplicate keys, intersected IN lists, missing keys, with and without a
    handler: the same rows in the same order, the same query count and the
    same bits of simulated seconds."""
    where = in_list(first) if second is None else f"{in_list(first)} AND {in_list(second)}"
    stmt = parse(f"SELECT {columns} FROM credit WHERE {where}")
    answers = []
    for run in (WebServiceSource.execute_select, per_key_reference):
        metrics = MetricsCollector()
        metrics.simulated_seconds = start
        relation = run(service(handled), stmt, metrics)
        answers.append(([repr(row) for row in relation.rows], dict(metrics.source_queries), metrics.simulated_seconds.hex()))
    assert answers[0] == answers[1]


def test_record_source_queries_folds_as_repeated_calls():
    one_by_one, at_once = MetricsCollector(), MetricsCollector()
    one_by_one.simulated_seconds = at_once.simulated_seconds = 0.1
    for _ in range(235):
        one_by_one.record_source_query("creditsvc", 0.03)
    at_once.record_source_queries("creditsvc", 0.03, 235)
    at_once.record_source_queries("other", 0.03, 0)
    assert at_once.simulated_seconds.hex() == one_by_one.simulated_seconds.hex()
    assert at_once.simulated_seconds != 0.1 + 235 * 0.03  # the fold, not the product
    assert dict(at_once.source_queries) == dict(one_by_one.source_queries) == {"creditsvc": 235}


def test_the_relation_batch_is_what_it_adopted():
    schema = RelSchema([Column("c0", T.INT)])
    held = Columns(Gathered([[1, 2]]), None, 2)
    relation = Relation.adopt(schema, held)
    assert relation.batch is held and relation._rows is None
    assert relation.rows == [(1,), (2,)] and relation.batch is held
    relation.rows = [(3,)]
    assert relation.batch == [(3,)]
