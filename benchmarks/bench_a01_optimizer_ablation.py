"""A1 (ablation) — what each optimizer stage buys.

DESIGN.md calls out three load-bearing choices in the local engine that
the whole federation inherits: predicate pushdown, cost-based join
ordering, and index access paths. This ablation executes the same 3-table
query with stages progressively enabled and reports estimated cost and the
rows the configuration's operators produce (every operator's output, summed:
the work done, counted rather than timed).
"""

from repro.common.types import DataType as T
from repro.engine import LocalEngine
from repro.engine.planner import bind_select
from repro.engine.rewrite import fold_plan_constants, prune_columns, push_filters
from repro.sql.parser import parse_select
from repro.storage import Database
from repro.trace import instrument_physical

SQL = (
    "SELECT c.name, o.total, t.severity "
    "FROM customers c, orders o, tickets t "
    "WHERE c.id = o.cust_id AND c.id = t.cust_id "
    "AND o.total > 350 AND t.severity = 4 AND c.city = 'SF'"
)


def build_db() -> Database:
    db = Database("abl")
    db.create_table(
        "customers", [("id", T.INT), ("name", T.STRING), ("city", T.STRING)],
        primary_key=["id"],
    )
    db.create_table(
        "orders", [("id", T.INT), ("cust_id", T.INT), ("total", T.FLOAT)],
        primary_key=["id"],
    )
    db.create_table(
        "tickets", [("id", T.INT), ("cust_id", T.INT), ("severity", T.INT)],
        primary_key=["id"],
    )
    cities = ["SF", "NY", "LA", "CHI"]
    for i in range(1, 41):
        db.table("customers").insert((i, f"c{i}", cities[i % 4]))
    for i in range(1, 81):
        db.table("orders").insert((i, (i % 40) + 1, float(i * 7 % 500)))
    for i in range(1, 41):
        db.table("tickets").insert((i, (i % 40) + 1, (i % 4) + 1))
    return db


def plan_for(engine, stage: str):
    """Build the logical plan with optimizer stages up to `stage`."""
    bound = bind_select(parse_select(SQL), engine.resolver)
    if stage == "naive":
        return bound
    plan = fold_plan_constants(bound)
    plan = push_filters(plan)
    if stage == "pushdown":
        return plan
    from repro.engine.joinorder import reorder_joins

    plan = reorder_joins(plan, engine.cost_model)
    plan = push_filters(plan)
    plan = prune_columns(plan)
    return plan  # "full"


def operators(op):
    yield op
    for child in op.children:
        yield from operators(child)


def test_a01_optimizer_ablation(record_experiment):
    db = build_db()
    engine = LocalEngine(db, optimize=False)

    stages = ["naive", "pushdown", "full", "full+index"]
    rows = []
    produced = {}
    answers = {}
    for stage in stages:
        if stage == "full+index":
            db.table("orders").create_index("cust_id")
            db.table("tickets").create_index("cust_id")
            logical = plan_for(engine, "full")
        else:
            logical = plan_for(engine, stage)
        estimate = engine.cost_model.estimate(logical)
        root = engine.lower(logical)
        instrument_physical(root)
        result = root.relation()
        produced[stage] = sum(op.actual_rows for op in operators(root))
        answers[stage] = result.sorted().rows
        rows.append(
            (stage, round(estimate.cost, 0), produced[stage], len(result))
        )

    record_experiment(
        "A1",
        "optimizer ablation: pushdown, join order and indexes each pay",
        ["configuration", "estimated_cost", "rows_produced", "result_rows"],
        rows,
        notes="same query, same data; 'naive' executes the bound plan as written",
    )

    # All configurations agree on the answer.
    assert all(answer == answers["naive"] for answer in answers.values())
    # Shape: each added stage reduces (or at worst preserves) estimated cost,
    # and the fully optimized plan's operators produce decisively fewer rows.
    costs = [row[1] for row in rows[:3]]
    assert costs[0] > costs[1] >= costs[2]
    assert produced["naive"] > 3 * produced["full"]
