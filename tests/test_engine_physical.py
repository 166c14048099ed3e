"""Physical-operator tests: join algorithm agreement, sort semantics, cost model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import RelSchema
from repro.common.types import DataType as T
from repro.engine.cost import CostModel
from repro.engine.physical import (
    HashJoinOp,
    LimitOp,
    NestedLoopJoinOp,
    SortOp,
    ValuesOp,
)


def values_op(qualifier, rows):
    schema = RelSchema.of((f"{qualifier}.k", T.INT), (f"{qualifier}.v", T.STRING))
    return ValuesOp(schema, rows)


row_lists = st.lists(
    st.tuples(
        st.one_of(st.integers(min_value=0, max_value=5), st.none()),
        st.sampled_from(["a", "b", "c"]),
    ),
    max_size=15,
)


@given(left=row_lists, right=row_lists)
@settings(max_examples=120, deadline=None)
def test_join_algorithms_agree_on_inner_equi_join(left, right):
    """Hash and nested-loop joins must produce identical bags."""
    left_op = values_op("l", left)
    right_op = values_op("r", right)

    hash_rows = HashJoinOp(left_op, right_op, [0], [0]).run()

    def nl_condition(row):
        return row[0] is not None and row[2] is not None and row[0] == row[2]

    nl_rows = NestedLoopJoinOp(left_op, right_op, nl_condition).run()

    assert sorted(map(repr, hash_rows)) == sorted(map(repr, nl_rows))


@given(left=row_lists, right=row_lists)
@settings(max_examples=60, deadline=None)
def test_left_join_preserves_every_left_row(left, right):
    left_op = values_op("l", left)
    right_op = values_op("r", right)
    out = HashJoinOp(left_op, right_op, [0], [0], kind="LEFT").run()
    # Every left row appears at least once (joined or NULL-padded).
    assert len(out) >= len(left)
    left_keys = [row[:2] for row in out]
    for row in left:
        assert tuple(row) in left_keys


class TestHashJoinDetails:
    def test_null_keys_never_match(self):
        left = values_op("l", [(None, "a"), (1, "b")])
        right = values_op("r", [(None, "x"), (1, "y")])
        out = HashJoinOp(left, right, [0], [0]).run()
        assert out == [(1, "b", 1, "y")]

    def test_residual_predicate_filters(self):
        left = values_op("l", [(1, "a"), (1, "b")])
        right = values_op("r", [(1, "a"), (1, "z")])

        def residual(row):
            return row[1] == row[3]

        out = HashJoinOp(left, right, [0], [0], residual_fn=residual).run()
        assert out == [(1, "a", 1, "a")]

    def test_left_join_residual_failure_still_pads(self):
        left = values_op("l", [(1, "a")])
        right = values_op("r", [(1, "z")])
        out = HashJoinOp(
            left, right, [0], [0], kind="LEFT", residual_fn=lambda row: False
        ).run()
        assert out == [(1, "a", None, None)]


class TestSortSemantics:
    def test_asc_nulls_first(self):
        op = values_op("t", [(3, "a"), (None, "b"), (1, "c")])
        rows = SortOp(op, [lambda r: r[0]], [True]).run()
        assert [row[0] for row in rows] == [None, 1, 3]

    def test_desc_nulls_last(self):
        op = values_op("t", [(3, "a"), (None, "b"), (1, "c")])
        rows = SortOp(op, [lambda r: r[0]], [False]).run()
        assert [row[0] for row in rows] == [3, 1, None]

    def test_multi_key_stability(self):
        op = values_op("t", [(1, "b"), (2, "a"), (1, "a"), (2, "b")])
        rows = SortOp(op, [lambda r: r[0], lambda r: r[1]], [True, False]).run()
        assert rows == [(1, "b"), (1, "a"), (2, "b"), (2, "a")]

    def test_limit(self):
        op = values_op("t", [(i, "x") for i in range(10)])
        assert len(LimitOp(op, 3).run()) == 3


class TestCostModel:
    def test_filter_reduces_estimate(self, engine):
        wide = engine.cost_model.estimate(engine.logical_plan("SELECT id FROM orders"))
        narrow = engine.cost_model.estimate(
            engine.logical_plan("SELECT id FROM orders WHERE status = 'open'")
        )
        assert narrow.rows < wide.rows

    def test_equi_join_estimate_reasonable(self, engine):
        est = engine.cost_model.estimate(
            engine.logical_plan(
                "SELECT c.id FROM customers c JOIN orders o ON c.id = o.cust_id"
            )
        )
        # True cardinality is 100; the estimate must be same order of magnitude.
        assert 20 <= est.rows <= 500

    def test_group_estimate_capped_by_ndv(self, engine):
        est = engine.cost_model.estimate(
            engine.logical_plan("SELECT city, COUNT(*) FROM customers GROUP BY city")
        )
        assert est.rows <= 5

    def test_limit_caps_rows(self, engine):
        est = engine.cost_model.estimate(
            engine.logical_plan("SELECT id FROM orders LIMIT 7")
        )
        assert est.rows <= 7

    def test_selectivity_range_via_histogram(self, engine):
        plan_low = engine.logical_plan("SELECT id FROM orders WHERE total < 50")
        plan_high = engine.logical_plan("SELECT id FROM orders WHERE total < 350")
        low = engine.cost_model.estimate(plan_low).rows
        high = engine.cost_model.estimate(plan_high).rows
        assert low < high

    def test_missing_stats_defaults(self):
        model = CostModel(stats_provider=None)
        from repro.engine.logical import LogicalScan
        from repro.common.schema import RelSchema

        scan = LogicalScan("t", "t", RelSchema.of(("x", T.INT)))
        est = model.estimate(scan)
        assert est.rows == 1000.0
