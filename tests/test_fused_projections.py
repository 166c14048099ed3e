"""Counting oracle: rows are built once, where they leave a tree.

Lowering reads a plain-column `Project` through the positions it would pick
(`repro.engine.executor.LocalEngine._lower`): its consumer - an aggregate, a
join, a filter, a sort, a limit, another `Project` - reads the child's rows
where the columns sit, and the pick is built only by the tree's root. The
reference, `Unfused`, is the lowering this replaced: every `Project` a
`ProjectOp` building its own tuples, so every consumer reads built rows.

Over Q1-Q12 and the six lookup templates at scales 1 and 4, on every hub
tree and every member of every source's prepared `Family`:

- each component answer and each final answer equals the reference's, in
  order by `repr`, with the same `Batch.kinds` vouch;
- no plain-column `ProjectOp` sits below another operator;
- a warm pass runs `ProjectOp.run` at most once per run of a tree
  (counted with `sys.setprofile`, never timed);
- one engine's prepared trees answer four caller threads at once as they
  answer one: a fused tree holds no per-run state.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys
import threading

import pytest

from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.engine import LocalEngine
from repro.engine.executor import _tuple_kernel
from repro.engine.logical import LogicalProject
from repro.engine.physical import PhysicalOp, ProjectOp, pick_columns
from repro.federation import EngineConfig, FederatedEngine
from repro.sources.relational import RelationalSource
from repro.trace import Tracer

_WORKLOADS = pathlib.Path(__file__).parent.parent / "benchmarks/wallclock/workloads.py"


def _lookup_templates() -> dict:
    spec = importlib.util.spec_from_file_location("_fused_wallclock_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.LOOKUP_TEMPLATES


STATEMENTS = [
    *QUERIES.values(),
    *[template.format(id=i) for i in (7, 150) for template in _lookup_templates().values()],
]


class Unfused(LocalEngine):
    """The replaced lowering: a `Project` builds its tuples (a C-level pick
    when every item is a plain column), and what reads it reads those."""

    def _lower(self, plan, context):
        if not isinstance(plan, LogicalProject):
            return super()._lower(plan, context)
        child = self.lower(plan.child, context)
        to_tuples = _tuple_kernel([item.expr for item in plan.items], child.schema)
        description = ", ".join(str(item) for item in plan.items)
        return ProjectOp(child, to_tuples, plan.schema, description), None


def _sources(engine) -> list:
    catalog = engine.catalog
    found = {id(catalog.source_of(name)): catalog.source_of(name) for name in catalog.table_names()}
    return [source for source in found.values() if isinstance(source, RelationalSource)]


def _engine(fixture, unfused: bool) -> FederatedEngine:
    engine = FederatedEngine(fixture.catalog(), EngineConfig(tracer=Tracer()))
    if unfused:
        engine._local = Unfused(engine._local.db, optimize=False)
        for source in _sources(engine):
            source.engine = Unfused(source.db)
    return engine


def _shipping(engine, shipped: list) -> None:
    """Records ``(source, statement, rows)`` of every component answer into
    `shipped`, until `del source.execute_select`."""
    for source in _sources(engine):
        def execute_select(stmt, metrics=None, source=source, run=source.execute_select):
            relation = run(stmt, metrics)
            shipped.append((source.name, str(stmt), relation.rows))
            return relation

        source.execute_select = execute_select


@pytest.fixture(scope="module", params=[1, 4], ids=["scale1", "scale4"])
def engines(request):
    fixture = build_enterprise(BenchConfig(scale=request.param, seed=42))
    fused, unfused = _engine(fixture, False), _engine(fixture, True)
    for engine in (fused, unfused):  # cold: plans made, families filled
        for sql in STATEMENTS:
            engine.query(sql)
    return fused, unfused


def _kinds(rows):
    kinds = getattr(rows, "kinds", None)
    return None if kinds is None else [kind() if callable(kind) else kind for kind in kinds]


def _answer(rows) -> tuple:
    return [repr(row) for row in rows], _kinds(rows)


def _ops(op: PhysicalOp):
    yield op
    for child in op.children:
        yield from _ops(child)


def _is_pick(op) -> bool:
    return type(op) is ProjectOp and op.to_tuples.__qualname__.startswith(f"{pick_columns.__name__}.")


def _trees(engine) -> list:
    """Every member of every source's `Family`, and the hub tree of one warm
    pass over `STATEMENTS`."""
    trees = [
        member.physical
        for source in _sources(engine)
        for entry in list(source._prepared._entries.values())
        for member in entry.value.members
    ]
    return trees + [engine.query(sql).physical for sql in STATEMENTS]


def test_answers_equal_the_unfused_lowering(engines):
    fused, unfused = engines
    mine, theirs = [], []
    _shipping(fused, mine), _shipping(unfused, theirs)
    try:
        for sql in STATEMENTS:
            answers = [_answer(engine.query(sql).relation.rows) for engine in (fused, unfused)]
            assert answers[0] == answers[1], sql
    finally:
        for source in _sources(fused) + _sources(unfused):
            del source.execute_select
    assert len(mine) == len(theirs) > len(STATEMENTS)
    for (source, stmt, rows), (_, _, expected) in zip(mine, theirs):
        assert _answer(rows) == _answer(expected), f"{source}: {stmt}"


def test_the_reference_builds_a_pick_below_its_consumers(engines):
    """The oracle below is not vacuous: unfused, most source trees build one."""
    _, unfused = engines
    below = [
        tree for tree in _trees(unfused)
        if any(_is_pick(child) for op in _ops(tree) for child in op.children)
    ]
    assert len(below) >= 20


def test_no_plain_column_pick_sits_below_another_operator(engines):
    fused, _ = engines
    trees = _trees(fused)
    assert len(trees) > 2 * len(STATEMENTS)
    for tree in trees:
        for op in _ops(tree):
            assert not any(_is_pick(child) for child in op.children), tree.explain()


def test_a_warm_pass_builds_each_tree_s_rows_at_most_once(engines):
    """Each root's `relation()` is one run of a tree: a bind join's chunks
    run a source's tree inside the hub's, so calls are charged to the
    innermost run."""
    fused, _ = engines
    relation, build = PhysicalOp.relation.__code__, ProjectOp.run.__code__
    runs: list = []  # ProjectOp.run calls per tree run, innermost last
    finished: list = []

    def profile(frame, event, arg):
        if frame.f_code is relation:
            if event == "call":
                runs.append(0)
            elif event == "return":
                finished.append(runs.pop())
        elif frame.f_code is build and event == "call":
            runs[-1] += 1

    sys.setprofile(profile)
    try:
        for sql in STATEMENTS:
            fused.query(sql)
    finally:
        sys.setprofile(None)
    assert not runs and len(finished) > len(STATEMENTS)
    assert max(finished) == 1  # some tree still builds its answer: q4's fetches do
    assert sum(finished) < len(finished)


def test_caller_threads_share_the_prepared_trees(engines):
    fused, _ = engines
    serial = {sql: _answer(fused.query(sql).relation.rows) for sql in STATEMENTS}
    answers, failures = [], []

    def caller(offset):
        try:
            for i in range(len(STATEMENTS)):
                sql = STATEMENTS[(i + offset) % len(STATEMENTS)]
                answers.append((sql, _answer(fused.query(sql).relation.rows)))
        except Exception as exc:  # reported below, with the thread's statement
            failures.append(exc)

    threads = [threading.Thread(target=caller, args=(offset,)) for offset in range(0, 16, 4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures and len(answers) == 4 * len(STATEMENTS)
    for sql, answer in answers:
        assert answer == serial[sql], sql
