"""Dialect and pushability tests."""

import pytest

from repro.sql import parse_expression, parse_select
from repro.wrappers import (
    ACMEDB,
    CONSERVATIVE,
    GENERIC,
    LEGACYSQL,
    QUIRK_AWARE,
    binding_supplier,
    fidelity_levels,
    statement_reasons,
    unsupported_reasons,
)
from repro.sources import SourceCapabilities
from repro.sources.base import SCAN_ONLY
from repro.sql.printer import expr_to_sql, to_sql
from repro.sql.shape import with_in_filter
from repro.sql.ast import ColumnRef


def pushes(expr, dialect):
    return not unsupported_reasons(expr, dialect)


def fits(stmt, dialect, **capabilities):
    return not statement_reasons(stmt, SourceCapabilities(dialect, **capabilities))


class TestCanPushExpr:
    def test_comparison_pushes_everywhere(self):
        expr = parse_expression("a > 3")
        for dialect in (GENERIC, CONSERVATIVE, QUIRK_AWARE, LEGACYSQL):
            assert pushes(expr, dialect)

    def test_like_blocked_on_generic(self):
        expr = parse_expression("name LIKE 'a%'")
        assert not pushes(expr, GENERIC)
        assert pushes(expr, CONSERVATIVE)

    def test_in_blocked_on_legacy(self):
        expr = parse_expression("x IN (1, 2)")
        assert not pushes(expr, LEGACYSQL)
        assert pushes(expr, CONSERVATIVE)

    def test_or_blocked_on_generic(self):
        expr = parse_expression("a = 1 OR b = 2")
        assert not pushes(expr, GENERIC)
        assert pushes(expr, CONSERVATIVE)

    def test_function_membership(self):
        expr = parse_expression("UPPER(name) = 'X'")
        assert not pushes(expr, GENERIC)
        assert pushes(expr, CONSERVATIVE)
        assert pushes(expr, QUIRK_AWARE)

    def test_vendor_function_only_on_quirk_aware(self):
        expr = parse_expression("YEAR(d) = 2005")
        assert not pushes(expr, CONSERVATIVE)
        assert pushes(expr, QUIRK_AWARE)

    def test_arithmetic_blocked_on_generic(self):
        expr = parse_expression("a + 1 > 2")
        assert not pushes(expr, GENERIC)

    def test_aggregate_requires_capability(self):
        expr = parse_expression("SUM(x)")
        assert not pushes(expr, CONSERVATIVE)
        assert pushes(expr, QUIRK_AWARE)

    def test_reasons_are_descriptive(self):
        reasons = unsupported_reasons(parse_expression("name LIKE 'a%'"), GENERIC)
        assert any("LIKE" in reason for reason in reasons)

    def test_and_is_transparent(self):
        expr = parse_expression("a = 1 AND b = 2")
        assert pushes(expr, GENERIC)


class TestCanPushSelect:
    def test_join_capability(self):
        stmt = parse_select("SELECT a.x FROM t a JOIN u b ON a.id = b.id")
        assert not fits(stmt, GENERIC)
        assert fits(stmt, CONSERVATIVE)

    def test_aggregate_capability(self):
        stmt = parse_select("SELECT COUNT(*) FROM t GROUP BY x")
        assert not fits(stmt, CONSERVATIVE)
        assert fits(stmt, QUIRK_AWARE)

    def test_order_limit_capability(self):
        stmt = parse_select("SELECT x FROM t ORDER BY x LIMIT 3")
        assert not fits(stmt, CONSERVATIVE)
        assert fits(stmt, QUIRK_AWARE)

    def test_fidelity_levels_are_ordered(self):
        levels = fidelity_levels()
        expr = parse_expression("name LIKE 'a%' AND x BETWEEN 1 AND 2")
        pushable = [
            pushes(expr, dialect) for dialect in levels.values()
        ]
        # generic < conservative <= quirk_aware in what they accept
        assert pushable == [False, True, True]


class TestStatementReasons:
    def test_binding_supplier_forms(self):
        assert binding_supplier(parse_expression("k = 3")) == (ColumnRef("k"), (3,))
        assert binding_supplier(parse_expression("3 = t.k")) == (ColumnRef("k", "t"), (3,))
        assert binding_supplier(parse_expression("k IN (1, 2)")) == (ColumnRef("k"), (1, 2))
        for text in ("k > 3", "k NOT IN (1)", "k IN (1, j)", "k = j", "UPPER(k) = 'A'"):
            assert binding_supplier(parse_expression(text)) is None, text

    def test_bind_chunk_keys_are_read_as_values(self):
        chunk = with_in_filter(parse_select("SELECT k FROM t"), ColumnRef("k"), [4, 5])
        assert binding_supplier(chunk.where) == (ColumnRef("k"), (4, 5))

    def test_distinct_needs_aggregate_support(self):
        stmt = parse_select("SELECT DISTINCT x FROM t")
        assert not fits(stmt, CONSERVATIVE)
        assert fits(stmt, QUIRK_AWARE)

    def test_scan_only_takes_bare_columns_and_no_predicate(self):
        assert fits(parse_select("SELECT a, b FROM t"), SCAN_ONLY)
        for text in ("SELECT a + 1 FROM t", "SELECT a FROM t WHERE a",
                     "SELECT a FROM t WHERE NOT a", "SELECT a FROM t WHERE a = 1"):
            assert not fits(parse_select(text), SCAN_ONLY), text

    def test_binding_suppliers_are_call_parameters(self):
        bound = {"binding_patterns": {"t": "k"}}
        for text in ("SELECT * FROM t WHERE k = 1", "SELECT * FROM t WHERE k IN (1, 2) AND k = 2",
                     "SELECT * FROM t x WHERE x.k = 1"):
            assert fits(parse_select(text), SCAN_ONLY, **bound), text
        reasons = statement_reasons(parse_select("SELECT * FROM t WHERE j = 1"), SourceCapabilities(SCAN_ONLY, **bound))
        assert any("j = 1" in reason for reason in reasons)
        assert any("binding on 'k'" in reason for reason in reasons)
        assert not fits(parse_select("SELECT * FROM t x WHERE y.k = 1"), SCAN_ONLY, **bound)


class TestDialectPrinting:
    def test_acmedb_spellings(self):
        expr = parse_expression("SUBSTR(name, 1, 2) || 'x'")
        text = expr_to_sql(expr, ACMEDB.print_options)
        assert "SUBSTRING" in text
        assert " + " in text

    def test_acmedb_integer_booleans(self):
        expr = parse_expression("active = TRUE")
        assert "1" in expr_to_sql(expr, ACMEDB.print_options)

    def test_statement_in_dialect(self):
        stmt = parse_select("SELECT LENGTH(name) FROM t")
        from repro.wrappers.dialects import BIZBASE

        assert "LEN(" in to_sql(stmt, BIZBASE.print_options)
