"""Tests for the heterogeneous source adapters."""

import pytest

from repro.common.errors import CapabilityError, SourceError
from repro.common.types import DataType as T
from repro.netsim import MetricsCollector
from repro.sources import CsvSource, RelationalSource, SourceCapabilities, WebServiceSource
from repro.sources.base import SCAN_ONLY
from repro.sources.relational import QUERY_LOG_LENGTH
from repro.sql.parser import parse_select
from repro.storage import Database
from repro.wrappers import CONSERVATIVE, GENERIC, QUIRK_AWARE


def make_relational(dialect=CONSERVATIVE):
    db = Database("src")
    db.create_table("t", [("id", T.INT), ("name", T.STRING)], primary_key=["id"])
    for i in range(5):
        db.table("t").insert((i, f"row{i}"))
    return RelationalSource("src", db, dialect=dialect)


class TestRelationalSource:
    def test_executes_supported_query(self):
        source = make_relational()
        result = source.execute_select(parse_select("SELECT id FROM t WHERE id > 2"))
        assert sorted(result.column_values("id")) == [3, 4]

    def test_rejects_unsupported_query(self):
        source = make_relational(dialect=GENERIC)
        with pytest.raises(CapabilityError):
            source.execute_select(parse_select("SELECT id FROM t WHERE name LIKE 'r%'"))

    def test_rejects_distinct_without_aggregate_support(self):
        """DISTINCT needs aggregate support, as the planner has it."""
        with pytest.raises(CapabilityError, match="DISTINCT"):
            make_relational().execute_select(parse_select("SELECT DISTINCT name FROM t"))
        assert len(make_relational(QUIRK_AWARE).execute_select(parse_select("SELECT DISTINCT name FROM t"))) == 5

    def test_metrics_accounting(self):
        source = make_relational()
        metrics = MetricsCollector()
        source.execute_select(parse_select("SELECT id FROM t"), metrics)
        assert metrics.source_queries["src"] == 1
        assert metrics.simulated_seconds > 0

    def test_query_log_in_dialect(self):
        source = make_relational()
        source.execute_select(parse_select("SELECT id FROM t WHERE id = 1"))
        assert list(source.query_log) == ["SELECT id FROM t WHERE (id = 1)"]

    def test_query_log_keeps_only_the_most_recent_statements(self):
        source = make_relational()
        for i in range(QUERY_LOG_LENGTH + 10):
            source.execute_select(parse_select(f"SELECT id FROM t WHERE id = {i}"))
        assert len(source.query_log) == QUERY_LOG_LENGTH
        assert source.query_log[0] == "SELECT id FROM t WHERE (id = 10)"
        assert source.query_log[-1].endswith(f"(id = {QUERY_LOG_LENGTH + 9})")

    def test_schema_and_stats(self):
        source = make_relational()
        assert source.schema_of("t").names == ["id", "name"]
        assert source.stats_of("t").row_count == 5
        assert source.estimated_rows("t") == 5.0

    def test_denied_access(self):
        source = make_relational()
        source.capabilities.allows_external_queries = False
        with pytest.raises(SourceError):
            source.execute_select(parse_select("SELECT id FROM t"))


class TestCsvSource:
    def make(self):
        source = CsvSource("files")
        source.add_table(
            "sheet", [("a", T.INT), ("b", T.STRING)], [(1, "x"), (2, "y")]
        )
        return source

    def test_full_scan(self):
        result = self.make().execute_select(parse_select("SELECT * FROM sheet"))
        assert result.rows == [(1, "x"), (2, "y")]

    def test_column_projection(self):
        result = self.make().execute_select(parse_select("SELECT b FROM sheet"))
        assert result.rows == [("x",), ("y",)]

    def test_rejects_filters(self):
        with pytest.raises(CapabilityError):
            self.make().execute_select(parse_select("SELECT a FROM sheet WHERE a = 1"))

    def test_rejects_computed_items(self):
        with pytest.raises(CapabilityError):
            self.make().execute_select(parse_select("SELECT a + 1 FROM sheet"))

    def test_rejects_unknown_table(self):
        with pytest.raises(CapabilityError):
            self.make().execute_select(parse_select("SELECT * FROM nope"))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,x\n2,\n")
        source = CsvSource("files")
        source.add_csv("sheet", path, [("a", T.INT), ("b", T.STRING)])
        result = source.execute_select(parse_select("SELECT * FROM sheet"))
        assert result.rows == [(1, "x"), (2, None)]


class TestWebServiceSource:
    def make(self):
        return WebServiceSource(
            "svc",
            "credit",
            [("cust_id", T.INT), ("score", T.INT)],
            "cust_id",
            rows=[(1, 700), (2, 650), (2, 655)],
        )

    def test_requires_binding(self):
        with pytest.raises(CapabilityError):
            self.make().execute_select(parse_select("SELECT * FROM credit"))

    def test_equality_binding(self):
        result = self.make().execute_select(
            parse_select("SELECT score FROM credit WHERE cust_id = 2")
        )
        assert sorted(result.column_values("score")) == [650, 655]

    def test_in_binding_counts_calls(self):
        metrics = MetricsCollector()
        result = self.make().execute_select(
            parse_select("SELECT * FROM credit WHERE cust_id IN (1, 2)"), metrics
        )
        assert len(result) == 3
        assert metrics.source_queries["svc"] == 2  # one invocation per key

    def test_duplicate_keys_deduplicated(self):
        metrics = MetricsCollector()
        self.make().execute_select(
            parse_select("SELECT * FROM credit WHERE cust_id IN (1, 1, 1)"), metrics
        )
        assert metrics.source_queries["svc"] == 1

    def test_anded_bindings_intersect(self):
        metrics = MetricsCollector()
        source = self.make()
        assert len(source.execute_select(parse_select("SELECT * FROM credit WHERE cust_id = 1 AND cust_id = 2"), metrics)) == 0
        assert "svc" not in metrics.source_queries  # no key left: no call
        both = parse_select("SELECT score FROM credit WHERE cust_id IN (2, 1) AND cust_id IN (1, 2, 3)")
        assert source.execute_select(both, metrics).rows == [(650,), (655,), (700,)]

    def test_rejects_other_predicates(self):
        with pytest.raises(CapabilityError):
            self.make().execute_select(
                parse_select("SELECT * FROM credit WHERE score > 600")
            )

    def test_custom_handler(self):
        source = WebServiceSource(
            "svc",
            "echo",
            [("k", T.INT), ("v", T.INT)],
            "k",
            handler=lambda key: [(key, key * 2)],
        )
        result = source.execute_select(parse_select("SELECT * FROM echo WHERE k = 21"))
        assert result.rows == [(21, 42)]

    def test_capabilities_expose_binding(self):
        source = self.make()
        assert source.capabilities.required_binding("credit") == "cust_id"
        assert source.capabilities.required_binding("other") is None
