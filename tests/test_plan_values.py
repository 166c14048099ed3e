"""A plan is a value by construction: the plan cache hands one `FederatedPlan`
to every caller thread, so its nodes are frozen dataclasses and a write to
one raises; and what a planning pass keeps (the cost memo) is its thread's.
"""

import importlib
import pkgutil
import threading
from dataclasses import FrozenInstanceError, fields

import pytest

import repro
from repro.adaptive import AdaptiveContext
from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES
from repro.engine.logical import LogicalPlan
from repro.federation import EngineConfig, FederatedEngine

from tests.test_statement_shape import LOOKUPS


def cached_plans(engine):
    for entry in engine.cache.plans._entries.values():
        yield from entry.value.members


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


@pytest.fixture(scope="module")
def warm_engine():
    engine = FederatedEngine(build_enterprise(BenchConfig(scale=1, seed=42)).catalog())
    for sql in QUERIES.values():
        engine.query(sql)
    for template in LOOKUPS.values():
        for key in (7, 8):  # the second runs the first's plan
            engine.query(template.format(id=key))
    return engine


def test_every_cached_plan_and_node_refuses_a_write(warm_engine):
    plans = list(cached_plans(warm_engine))
    # one plan per shape and reads: q1 is `point_lookup`'s shape, and another id shares its plan
    assert len(plans) >= len(QUERIES) + len(LOOKUPS) - 1
    nodes = 0
    for plan in plans:
        for field in fields(plan):
            with pytest.raises(FrozenInstanceError):
                setattr(plan, field.name, getattr(plan, field.name))
        for node in plan.root.walk():
            nodes += 1
            names = {field.name for field in fields(node)} | {"schema"}
            for name in names:
                with pytest.raises(FrozenInstanceError):
                    setattr(node, name, getattr(node, name))
    assert nodes > len(plans)


def test_plan_nodes_name_their_inputs_once():
    """Every plan node of the package is a frozen dataclass compared by
    identity, and only `engine/logical.py` spells out `children` /
    `with_children` (the base, and a union's variadic inputs)."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found = [cls for cls in subclasses(LogicalPlan) if cls.__module__.startswith("repro.")]
    assert len(found) >= 12
    for cls in found:
        params = cls.__dataclass_params__
        assert params.frozen and not params.eq, cls
        if cls.__module__ != "repro.engine.logical":
            assert not {"children", "with_children"} & set(vars(cls)), cls


def test_one_shared_plan_labels_each_runs_constant():
    """One plan serves both ids; each result prints the constant it ran with."""
    engine = FederatedEngine(build_enterprise(BenchConfig(scale=1, seed=42)).catalog())
    seven, eight = (engine.query(LOOKUPS["point_lookup"].format(id=key)) for key in (7, 8))
    assert seven.plan is eight.plan
    assert "id = 7" in seven.explain() and "id = 8" not in seven.explain()
    assert "id = 8" in eight.explain() and "id = 7" not in eight.explain()
    assert "id = 7" in seven.plan.pretty()  # a plan prints the statement it was planned for


def elapsed_by_query(hold_a_scope: bool) -> dict:
    """Simulated seconds of a cold Q1-Q12 pass on a fresh adaptive engine;
    with `hold_a_scope`, while another thread holds a memo scope open on the
    engine planner's (shared) cost model."""
    engine = FederatedEngine(
        build_enterprise(BenchConfig(scale=1, seed=42)).catalog(),
        EngineConfig(adaptive=AdaptiveContext()),
    )
    entered, release = threading.Event(), threading.Event()

    def hold():
        with engine.planner.cost_model.memo_scope():
            entered.set()
            release.wait(60)

    holder = threading.Thread(target=hold)
    if hold_a_scope:
        holder.start()
        assert entered.wait(60)
    try:
        return {name: engine.query(sql).elapsed_seconds for name, sql in sorted(QUERIES.items())}
    finally:
        release.set()
        if hold_a_scope:
            holder.join(60)
            assert not holder.is_alive()


def test_another_threads_memo_scope_changes_no_answer():
    """Feedback moves the calibrations between queries; a memo shared with a
    thread that holds a scope open would serve estimates made before that."""
    assert elapsed_by_query(True) == elapsed_by_query(False)
