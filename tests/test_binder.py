"""The binder is the one place a query is understood: an agreement oracle.

`engine/planner.py`'s `Binder` binds, types and diagnoses a SELECT in one
pass. The engine raises its first error; `QueryAnalyzer` reports all of
them. Over a committed list of malformed statements, the federation
fuzzer's statements and a generator of mistyped ones:

- the engine raises iff the analyzer reports an error, and the raised error
  carries that error's code;
- where the engine answers, its rows equal the sqlite reference's
  (`tests/sqlite_reference.py`);
- nothing but an `EIIError` ever leaves `engine.query`.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import AnalysisError, QueryAnalyzer
from repro.bench import BenchConfig, build_enterprise
from repro.common.errors import EIIError, PlanError, SchemaError, TypeMismatchError
from repro.common.types import DataType
from repro.engine import LocalEngine
from repro.engine import planner as binder_module
from repro.federation import FederatedEngine
from repro.storage import Database
from tests.sqlite_reference import SqliteReference, row_mismatch
from tests.test_federation_fuzz import FIXTURE as FUZZ_FIXTURE
from tests.test_federation_fuzz import random_query

FIXTURE = build_enterprise(BenchConfig(scale=1, seed=42))
CATALOG = FIXTURE.catalog()
ENGINE = FederatedEngine(CATALOG)
ANALYZER = QueryAnalyzer(catalog=CATALOG)
REFERENCE = SqliteReference(FIXTURE)

#: Malformed, mistyped or once-refused statements, each with the code the
#: engine raises (None: it answers, with sqlite's rows).
STATEMENTS = [
    # answered wrongly, or with a raw TypeError, before the binder typed them
    ("SELECT SUM(name) FROM customers", "EII104"),
    ("SELECT AVG(segment) FROM customers", "EII104"),
    ("SELECT SUM(created) FROM customers", "EII104"),
    ("SELECT id FROM customers WHERE NOT name", "EII104"),
    ("SELECT id FROM customers WHERE id", "EII104"),
    ("SELECT id FROM customers WHERE name > 3", "EII104"),
    ("SELECT id FROM customers WHERE id BETWEEN 'a' AND 'z'", "EII104"),
    ("SELECT id FROM customers WHERE created > 5", "EII104"),
    ("SELECT CASE WHEN id THEN 1 ELSE 0 END FROM customers", "EII104"),
    ("SELECT segment, COUNT(*) FROM customers GROUP BY segment HAVING COUNT(*)", "EII104"),
    ("SELECT c.id FROM customers c JOIN orders o ON o.total", "EII104"),
    # refused before, though SQL and sqlite answer them
    ("SELECT name FROM customers ORDER BY id", None),
    ("SELECT c.name FROM customers c JOIN orders o ON c.id = o.cust_id ORDER BY o.total", None),
    ("SELECT id, name FROM customers ORDER BY created DESC LIMIT 3", None),
    ("SELECT segment, SUM(id) AS s FROM customers GROUP BY segment HAVING s > 1", None),
    ("SELECT segment FROM customers GROUP BY segment ORDER BY COUNT(*)", None),
    ("SELECT status FROM orders GROUP BY status ORDER BY SUM(total) DESC", None),
    # refused before, with the analyzer silent
    ("SELECT name, COUNT(*) FROM customers", "EII106"),
    ("SELECT DISTINCT segment FROM customers ORDER BY name", "EII113"),
    ("SELECT id FROM customers UNION SELECT id FROM orders ORDER BY nope", "EII113"),
    ("SELECT id, id FROM customers ORDER BY name", "EII113"),
    ("SELECT 1", "EII114"),
    ("SELECT x.* FROM customers c", "EII102"),
    ("SELECT c.name FROM customers c JOIN orders o ON SUM(o.total) > 1", "EII105"),
    ("SELECT id FROM orders GROUP BY COUNT(*)", "EII105"),
    ("SELECT id FROM orders HAVING COUNT(*) > 1", "EII106"),
    # one of each EII1xx the binder raises
    ("SELECT * FROM ghosts", "EII101"),
    ("SELECT nope FROM customers", "EII102"),
    ("SELECT id FROM customers c, orders o", "EII103"),
    ("SELECT name + 1 FROM customers", "EII104"),
    ("SELECT -name FROM customers", "EII104"),
    ("SELECT UPPER(id) FROM customers", "EII104"),
    ("SELECT YEAR(name) FROM customers", "EII104"),
    ("SELECT id FROM customers WHERE name LIKE 5", "EII104"),
    ("SELECT id FROM orders WHERE SUM(total) > 10", "EII105"),
    ("SELECT city, COUNT(*) FROM customers GROUP BY segment", "EII106"),
    ("SELECT FROBNICATE(name) FROM customers", "EII107"),
    ("SELECT * FROM customers, customers", "EII108"),
    ("SELECT id, name FROM customers UNION SELECT id FROM orders", "EII109"),
    ("SELECT SUM(COUNT(id)) FROM customers", "EII110"),
    ("SELECT id FROM orders HAVING id > 1", "EII111"),
    # warned about, and answered as sqlite answers
    ("SELECT id FROM customers WHERE name = 3", None),
    ("SELECT id FROM customers WHERE id IN ('a', 'b')", None),
    ("SELECT name || id FROM customers", None),
    ("SELECT id FROM customers UNION SELECT cust_id FROM orders ORDER BY id", None),
]


def agree(engine, analyzer, reference, sql):
    """Run `sql` on both readers of one bind: they must agree, code for code,
    and an answer must be sqlite's. Returns the code raised (None: answered)."""
    errors = analyzer.analyze(sql).errors
    try:
        rows = engine.query(sql).relation.rows
    except EIIError as exc:
        assert errors, f"{sql}: the engine raised {exc!r}, the analyzer found nothing"
        assert exc.code == errors[0].code, f"{sql}: raised {exc.code}, analyzer says {errors[0].code}"
        return exc.code
    assert not errors, f"{sql}: answered, but the analyzer found {errors}"
    assert row_mismatch(rows, reference.query(sql)) is None, sql
    return None


@pytest.mark.parametrize("sql,code", STATEMENTS, ids=[sql for sql, _ in STATEMENTS])
def test_engine_and_analyzer_agree_code_for_code(sql, code):
    assert agree(ENGINE, ANALYZER, REFERENCE, sql) == code


def test_sum_over_text_raises_typed():
    with pytest.raises(TypeMismatchError) as caught:
        ENGINE.query("SELECT SUM(name) FROM customers")
    assert caught.value.code == "EII104"


#: The decision rule, one row each: statement -> (code, severity) of its
#: one finding, or None for none.
RULE = [
    ("SELECT SUM(name) FROM customers", ("EII104", "ERROR")),
    ("SELECT AVG(segment) FROM customers", ("EII104", "ERROR")),
    ("SELECT id FROM customers WHERE name < 3", ("EII104", "ERROR")),
    ("SELECT id FROM customers WHERE name >= 3", ("EII104", "ERROR")),
    ("SELECT id FROM customers WHERE id BETWEEN 'a' AND 'z'", ("EII104", "ERROR")),
    ("SELECT id FROM customers WHERE id", ("EII104", "ERROR")),
    ("SELECT c.id FROM customers c JOIN orders o ON o.total", ("EII104", "ERROR")),
    ("SELECT segment FROM customers GROUP BY segment HAVING COUNT(*)", ("EII104", "ERROR")),
    ("SELECT CASE WHEN id THEN 1 END FROM customers", ("EII104", "ERROR")),
    ("SELECT id FROM customers WHERE NOT name", ("EII104", "ERROR")),
    ("SELECT LENGTH(id) FROM customers", ("EII104", "ERROR")),
    ("SELECT ABS(name) FROM customers", ("EII104", "ERROR")),
    ("SELECT MONTH(id) FROM customers", ("EII104", "ERROR")),
    ("SELECT id FROM customers WHERE name = 3", ("EII104", "WARNING")),
    ("SELECT id FROM customers WHERE name <> 3", ("EII104", "WARNING")),
    ("SELECT id FROM customers WHERE id IN ('a')", ("EII104", "WARNING")),
    ("SELECT name || id FROM customers", None),
    ("SELECT id FROM customers WHERE created > '2020-01-01'", None),
    ("SELECT name, COUNT(*) FROM customers", ("EII106", "ERROR")),
    ("SELECT DISTINCT segment FROM customers ORDER BY name", ("EII113", "ERROR")),
    ("SELECT id FROM customers UNION SELECT id FROM orders ORDER BY nope", ("EII113", "ERROR")),
    ("SELECT name FROM customers ORDER BY id", None),
]


@pytest.mark.parametrize("sql,finding", RULE, ids=[sql for sql, _ in RULE])
def test_the_decision_rule(sql, finding):
    found = [(d.code, d.severity.name) for d in ANALYZER.analyze(sql)]
    assert found == ([] if finding is None else [finding])


#: ORDER BY a column or an aggregate the select list lacks: exact sequences
#: (each ordered on a unique key), equal to sqlite's
HIDDEN_SORTS = [
    "SELECT name FROM customers ORDER BY id",
    "SELECT name FROM customers ORDER BY id DESC LIMIT 7",
    "SELECT o.status FROM orders o ORDER BY o.id LIMIT 25",
    "SELECT c.name FROM customers c JOIN orders o ON c.id = o.cust_id ORDER BY o.id DESC",
    "SELECT segment FROM customers GROUP BY segment ORDER BY COUNT(*)",
    "SELECT status FROM orders GROUP BY status ORDER BY SUM(total) DESC",
    "SELECT city FROM customers GROUP BY city ORDER BY MIN(id) LIMIT 3",
]


@pytest.mark.parametrize("sql", HIDDEN_SORTS)
def test_order_by_a_column_the_select_list_lacks(sql):
    result = ENGINE.query(sql)
    assert result.relation.rows == REFERENCE.query(sql), sql
    assert result.relation.schema == ENGINE.planner.logical_plan(sql).schema
    assert len(result.relation.schema) == 1


def test_a_single_source_query_ships_one_statement_with_its_order_by():
    plan = ENGINE.planner.plan("SELECT name FROM customers ORDER BY id DESC LIMIT 3")
    (fetch,) = plan.fetches
    assert str(fetch.stmt) == "SELECT name FROM customers AS customers ORDER BY id DESC LIMIT 3"


def test_a_query_sorting_on_selected_columns_keeps_its_plan():
    for sql in (
        "SELECT c.city, SUM(o.total) AS revenue FROM customers c "
        "JOIN orders o ON c.id = o.cust_id GROUP BY c.city ORDER BY revenue DESC",
        "SELECT name, id FROM customers ORDER BY id",
    ):
        assert "_o0" not in ENGINE.planner.plan(sql).pretty(), sql


def test_having_on_a_select_list_alias():
    sql = "SELECT segment, SUM(id) AS s FROM customers GROUP BY segment HAVING s > 6000"
    rows = ENGINE.query(sql).relation.rows
    assert rows and row_mismatch(rows, REFERENCE.query(sql)) is None


def test_strict_mode_binds_once_and_lists_every_defect(monkeypatch):
    db = Database("t")
    db.create_table("people", [("id", DataType.INT), ("name", DataType.STRING)])
    binds = []
    statement = binder_module.Binder.statement
    monkeypatch.setattr(
        binder_module.Binder, "statement",
        lambda self, stmt: binds.append(stmt) or statement(self, stmt),
    )
    with pytest.raises(AnalysisError) as caught:
        LocalEngine(db, validate=True).query("SELECT SUM(name), nope FROM people WHERE id")
    assert caught.value.report.codes() == {"EII102", "EII104"}
    assert len(caught.value.report.errors) == 3 and len(binds) == 1


def test_the_raised_error_keeps_the_engine_s_type():
    for sql, kind in (
        ("SELECT nope FROM customers", SchemaError),
        ("SELECT * FROM ghosts", SchemaError),
        ("SELECT name, COUNT(*) FROM customers", PlanError),
        ("SELECT FROBNICATE(name) FROM customers", TypeMismatchError),
    ):
        with pytest.raises(kind):
            ENGINE.query(sql)


def test_an_index_does_not_decide_whether_a_mistyped_conjunct_raises():
    """With an index on `k`, `k = 1 AND id < 'x'` could once answer from the
    index where the scan raised. The binder refuses it (EII104) before an
    access path is chosen: the same error with no index, a hash index on
    `k`, or a sorted one answering a range conjunct."""
    raised = {}
    for index in (None, "hash", "sorted"):
        db = Database("indexed")
        table = db.create_table("t", [("id", DataType.INT), ("k", DataType.INT)])
        for i in range(20):
            table.insert((i, i % 3))
        if index is not None:
            table.create_index("k", sorted=index == "sorted")
        engine = LocalEngine(db)
        for sql, access in (
            ("SELECT id FROM t WHERE k = 1 AND id < 'x'", "IndexEqScan"),
            ("SELECT id FROM t WHERE k >= 1 AND id < 'x'", "IndexRangeScan"),
        ):
            well_typed = sql.replace("'x'", "5")
            uses_index = access in engine.explain(well_typed)
            assert uses_index == (index == "sorted" or index == "hash" and access == "IndexEqScan")
            with pytest.raises(TypeMismatchError) as caught:
                engine.query(sql)
            raised[index, sql] = (caught.value.code, str(caught.value))
    assert {code for code, _ in raised.values()} == {"EII104"}
    for sql in {sql for _, sql in raised}:
        assert len({raised[index, sql] for index in (None, "hash", "sorted")}) == 1, sql


# -- generated statements ------------------------------------------------------

FUZZ_CATALOG = FUZZ_FIXTURE.catalog(include_credit=False, include_docs=False)
FUZZ_ENGINE = FederatedEngine(FUZZ_CATALOG)
FUZZ_ANALYZER = QueryAnalyzer(catalog=FUZZ_CATALOG)
FUZZ_REFERENCE = SqliteReference(FUZZ_FIXTURE)


@given(
    sql=random_query(),
    order=st.sampled_from([None, "c0.id", "c0.name DESC", "COUNT(*)", "c0.segment"]),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_fuzzer_s_statements_agree(sql, order):
    if order is not None:
        sql = f"{sql} ORDER BY {order}"
    agree(FUZZ_ENGINE, FUZZ_ANALYZER, FUZZ_REFERENCE, sql)


#: a column of each type, over `customers c JOIN orders o`
COLUMNS = ["c.id", "c.name", "c.created", "o.total", "o.status", "o.order_date"]
LITERALS = ["3", "2.5", "'x'", "TRUE", "'2004-03-01'", "NULL"]


@st.composite
def mistyped(draw):
    column, other = draw(st.sampled_from(COLUMNS)), draw(st.sampled_from(COLUMNS))
    literal, bound = draw(st.sampled_from(LITERALS)), draw(st.sampled_from(LITERALS))
    op = draw(st.sampled_from(["=", "<>", "<", ">=", "+", "*", "||"]))
    predicate = draw(st.sampled_from([
        f"{column} {op} {literal}",
        f"{column} BETWEEN {literal} AND {bound}",
        f"{column} IN ({literal}, {bound})",
        f"{column} LIKE {literal}",
        f"NOT {column}",
        column,
        f"CASE WHEN {column} THEN 1 ELSE 0 END = 1",
        f"UPPER({column}) = {literal}",
        f"YEAR({column}) > {literal}",
        f"ABS({column}) < {literal}",
        f"MOD({column}, 2) < {literal}",
        f"COALESCE({column}, {bound}) > {literal}",
        f"-{column} < {literal}",
    ]))
    aggregate = draw(st.sampled_from(["SUM", "AVG", "MIN", "MAX", "COUNT"]))
    shape = draw(st.sampled_from(["where", "select", "aggregate", "having", "order"]))
    joined = "FROM customers c JOIN orders o ON c.id = o.cust_id"
    if shape == "where":
        return f"SELECT c.id {joined} WHERE {predicate}"
    if shape == "select":
        return f"SELECT {column} {op} {literal} AS v {joined}"
    if shape == "aggregate":
        return f"SELECT c.segment, {aggregate}({column}) AS v {joined} GROUP BY c.segment"
    if shape == "having":
        return (
            f"SELECT c.segment {joined} GROUP BY c.segment "
            f"HAVING {aggregate}({column}) {op} {literal}"
        )
    return f"SELECT c.name {joined} WHERE {predicate} ORDER BY {other}"


@given(sql=mistyped())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_mistyped_statement_raises_only_typed_errors(sql):
    errors = ANALYZER.analyze(sql).errors
    try:
        ENGINE.query(sql)
    except EIIError as exc:
        assert errors and exc.code == errors[0].code, (sql, exc)
    else:
        assert not errors, (sql, errors)
