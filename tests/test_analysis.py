"""Static analysis subsystem: every diagnostic code, engine integration."""

from dataclasses import replace

import pytest

from tests.federation_fixtures import altered, build_catalog
from repro.analysis import (
    CODES,
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    QueryAnalyzer,
    Severity,
    analyze_statement,
    error,
    lint_gav,
    lint_lav,
    span_of,
    verify_plan,
    warning,
)
from repro.common.types import DataType
from repro.engine.executor import LocalEngine
from repro.federation import EngineConfig, FederatedEngine
from repro.federation.nodes import LogicalFetch
from repro.federation.planner import FederatedPlanner
from repro.mediator.cq import parse_cq
from repro.mediator.lav import LavMapping
from repro.sql.ast import BinaryOp, ColumnRef, Literal, Select, SelectItem, TableRef
from repro.storage.catalog import Database
from repro.wrappers.dialects import GENERIC


@pytest.fixture
def catalog():
    return build_catalog()


@pytest.fixture
def analyzer(catalog):
    return QueryAnalyzer(catalog=catalog)


def codes_of(report):
    return sorted(report.codes()) if hasattr(report, "codes") else sorted(
        {d.code for d in report}
    )


# ---------------------------------------------------------------------------
# Diagnostics core
# ---------------------------------------------------------------------------


class TestDiagnosticsCore:
    def test_unregistered_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("EII999", Severity.ERROR, "nope")

    def test_report_rollup_and_render(self):
        report = AnalysisReport()
        assert report.ok and len(report) == 0
        report.add(warning("EII203", "slow"))
        assert report.ok  # warnings alone do not fail
        report.add(error("EII101", "missing"))
        assert not report.ok
        assert report.has("EII101") and not report.has("EII102")
        assert "EII101" in report.headline()
        assert "missing" in report.render()

    def test_origin_stamping(self):
        diagnostic = error("EII101", "missing").with_origin("queries.sql")
        assert diagnostic.render().startswith("queries.sql: ")

    def test_span_of_points_at_token(self):
        text = "SELECT x\nFROM customers"
        span = span_of(text, "customers")
        assert span.line == 2 and span.column == 6

    def test_all_code_families_registered(self):
        families = {code[:4] for code in CODES}
        assert families == {"EII1", "EII2", "EII3", "EII4", "EII5"}


# ---------------------------------------------------------------------------
# EII1xx — semantic analysis
# ---------------------------------------------------------------------------


class TestSemanticPass:
    def test_eii100_syntax_error(self, analyzer):
        report = analyzer.analyze("SELEC nope")
        assert codes_of(report) == ["EII100"]

    def test_eii101_unknown_table(self, analyzer):
        report = analyzer.analyze("SELECT x FROM nonexistent")
        assert codes_of(report) == ["EII101"]

    def test_eii102_unknown_column(self, analyzer):
        report = analyzer.analyze("SELECT c.salary FROM customers c")
        assert codes_of(report) == ["EII102"]

    def test_eii103_ambiguous_column(self, analyzer):
        report = analyzer.analyze("SELECT id FROM customers c, orders o")
        assert "EII103" in codes_of(report)

    def test_eii104_type_mismatch_comparison(self, analyzer):
        report = analyzer.analyze("SELECT c.name FROM customers c WHERE c.name > 5")
        assert "EII104" in codes_of(report)

    def test_eii104_arithmetic_on_string(self, analyzer):
        report = analyzer.analyze("SELECT c.name + 1 FROM customers c")
        assert "EII104" in codes_of(report)

    def test_eii105_aggregate_in_where(self, analyzer):
        report = analyzer.analyze(
            "SELECT c.name FROM customers c WHERE SUM(c.id) > 3"
        )
        assert "EII105" in codes_of(report)

    def test_eii106_ungrouped_column(self, analyzer):
        report = analyzer.analyze(
            "SELECT c.name, COUNT(*) FROM customers c GROUP BY c.city"
        )
        assert "EII106" in codes_of(report)

    def test_grouped_column_accepted(self, analyzer):
        report = analyzer.analyze(
            "SELECT c.city, COUNT(*) FROM customers c GROUP BY c.city"
        )
        assert report.ok

    def test_eii107_unknown_function(self, analyzer):
        report = analyzer.analyze("SELECT FROBNICATE(c.name) FROM customers c")
        assert "EII107" in codes_of(report)

    def test_eii108_duplicate_binding(self, analyzer):
        report = analyzer.analyze("SELECT c.id FROM customers c, orders c")
        assert "EII108" in codes_of(report)

    def test_eii109_union_width_mismatch(self, analyzer):
        report = analyzer.analyze(
            "SELECT c.id FROM customers c UNION SELECT o.id, o.total FROM orders o"
        )
        assert "EII109" in codes_of(report)

    def test_eii110_nested_aggregate(self, analyzer):
        report = analyzer.analyze("SELECT SUM(COUNT(c.id)) FROM customers c")
        assert "EII110" in codes_of(report)

    def test_eii111_having_without_groups(self, analyzer):
        report = analyzer.analyze(
            "SELECT c.name FROM customers c HAVING c.name = 'x'"
        )
        assert "EII111" in codes_of(report)

    def test_eii112_insert_arity(self):
        db = Database("t")
        db.create_table("people", [("id", DataType.INT), ("name", DataType.STRING)])
        engine = LocalEngine(db, validate=True)
        with pytest.raises(AnalysisError) as exc:
            engine.execute("INSERT INTO people (id, name) VALUES (1, 'a', 'b')")
        assert exc.value.report.has("EII112")

    def test_order_by_alias_is_legal(self, analyzer):
        report = analyzer.analyze(
            "SELECT c.city AS town, COUNT(*) AS n FROM customers c "
            "GROUP BY c.city ORDER BY n DESC"
        )
        assert report.ok

    def test_clean_query_has_no_errors(self, analyzer):
        report = analyzer.analyze(
            "SELECT c.name, o.total FROM customers c, orders o "
            "WHERE c.id = o.cust_id AND o.total > 100"
        )
        assert report.ok

    def test_multiple_defects_collected_in_one_pass(self, analyzer):
        report = analyzer.analyze(
            "SELECT c.bogus, FROBNICATE(c.name) FROM customers c WHERE c.name > 5"
        )
        assert {"EII102", "EII107", "EII104"} <= set(codes_of(report))


# ---------------------------------------------------------------------------
# EII2xx — capability / binding patterns
# ---------------------------------------------------------------------------


class TestCapabilityPass:
    def test_eii201_unbound_binding_pattern(self, analyzer):
        report = analyzer.analyze("SELECT * FROM credit")
        assert "EII201" in codes_of(report)
        assert not report.ok

    def test_eii201_literal_binding_is_feasible(self, analyzer):
        report = analyzer.analyze("SELECT * FROM credit WHERE cust_id = 7")
        assert "EII201" not in codes_of(report)

    def test_eii201_join_supplies_binding(self, analyzer):
        report = analyzer.analyze(
            "SELECT c.name, cr.score FROM customers c, credit cr "
            "WHERE c.id = cr.cust_id"
        )
        assert "EII201" not in codes_of(report)

    def test_eii201_transitive_binding_chain(self, analyzer):
        # orders (unrestricted) feeds credit through an equi-join chain
        report = analyzer.analyze(
            "SELECT o.total, cr.score FROM orders o, credit cr "
            "WHERE o.cust_id = cr.cust_id"
        )
        assert "EII201" not in codes_of(report)

    def test_eii202_closed_source(self, catalog):
        catalog.sources["sales"].capabilities.allows_external_queries = False
        report = QueryAnalyzer(catalog=catalog).analyze(
            "SELECT o.total FROM orders o"
        )
        assert "EII202" in codes_of(report)
        assert not report.ok

    def test_eii203_unpushable_predicate(self):
        catalog = build_catalog(crm_dialect=GENERIC)
        report = QueryAnalyzer(catalog=catalog).analyze(
            "SELECT c.name FROM customers c WHERE UPPER(c.name) = 'ACME'"
        )
        assert "EII203" in codes_of(report)
        assert report.ok  # a warning, not an error

    def test_eii204_scan_only_whole_table(self, analyzer):
        report = analyzer.analyze("SELECT r.region FROM regions r")
        assert "EII204" in codes_of(report)
        assert report.ok  # informational


# ---------------------------------------------------------------------------
# EII3xx — mapping lint
# ---------------------------------------------------------------------------


class TestMappingLint:
    def test_eii301_view_over_unknown_table(self, catalog):
        catalog.define("v", "SELECT x.a FROM missing_table x")
        diags = lint_gav(catalog)
        assert "EII301" in {d.code for d in diags}

    def test_eii302_computed_column(self, catalog):
        catalog.define("v", "SELECT c.id, UPPER(c.name) AS loud FROM customers c")
        diags = lint_gav(catalog)
        assert "EII302" in {d.code for d in diags}

    def test_eii305_cyclic_views(self, catalog):
        catalog.define("a", "SELECT b.id FROM b")
        catalog.define("b", "SELECT a.id FROM a")
        diags = lint_gav(catalog)
        assert "EII305" in {d.code for d in diags}

    def test_gav_view_bodies_semantically_checked(self, catalog):
        catalog.define("v", "SELECT c.no_such_column FROM customers c")
        diags = lint_gav(catalog)
        found = [d for d in diags if d.code == "EII102"]
        assert found and found[0].origin == "v"

    def test_clean_gav_schema(self, catalog):
        catalog.define("v", "SELECT c.id, c.name FROM customers c")
        catalog.define("w", "SELECT v.name FROM v")
        assert lint_gav(catalog) == []

    def test_eii306_unsafe_rule(self):
        mapping = LavMapping(parse_cq("v(X, Y) :- r(X, Z)"))
        diags = lint_lav([mapping])
        assert "EII306" in {d.code for d in diags}

    def test_eii304_redundant_views(self):
        mappings = [
            LavMapping(parse_cq("v1(X, Y) :- r(X, Y)")),
            LavMapping(parse_cq("v2(A, B) :- r(A, B)")),
        ]
        diags = lint_lav(mappings)
        assert "EII304" in {d.code for d in diags}

    def test_eii307_unexposed_attribute(self):
        # r's second position is only ever an existential variable
        mappings = [LavMapping(parse_cq("v(X) :- r(X, Z)"))]
        diags = lint_lav(mappings)
        assert "EII307" in {d.code for d in diags}

    def test_eii303_dead_view(self):
        mappings = [
            LavMapping(parse_cq("v_used(X, Y) :- r(X, Y)")),
            LavMapping(parse_cq("v_dead(X, Y) :- s(X, Y)")),
        ]
        workload = [parse_cq("q(X, Y) :- r(X, Y)")]
        diags = lint_lav(mappings, workload)
        dead = [d for d in diags if d.code == "EII303"]
        assert [d.origin for d in dead] == ["v_dead"]

    def test_distinct_views_not_redundant(self):
        mappings = [
            LavMapping(parse_cq("v1(X, Y) :- r(X, Y)")),
            LavMapping(parse_cq("v2(X, Y) :- s(X, Y)")),
        ]
        assert not any(d.code == "EII304" for d in lint_lav(mappings))


# ---------------------------------------------------------------------------
# EII4xx — plan invariants
# ---------------------------------------------------------------------------


class TestPlanInvariants:
    def plan(self, catalog, sql):
        return FederatedPlanner(catalog).plan(sql)

    def test_clean_plan_verifies(self, catalog):
        plan = self.plan(
            catalog,
            "SELECT c.name, o.total FROM customers c, orders o "
            "WHERE c.id = o.cust_id",
        )
        assert [d for d in verify_plan(plan) if d.severity is Severity.ERROR] == []

    def test_eii401_fetch_exceeding_capabilities(self, catalog):
        plan = self.plan(catalog, "SELECT r.region FROM regions r")
        fetch = plan.fetches[0]
        # smuggle an unpushable predicate into the scan-only component query
        plan = altered(plan, fetch, stmt=Select(
            items=fetch.stmt.items,
            from_tables=fetch.stmt.from_tables,
            where=BinaryOp("=", ColumnRef("region", "r"), Literal("West")),
        ))
        diags = verify_plan(plan)
        assert "EII401" in {d.code for d in diags}

    def test_eii401_binding_conjunct_is_exempt(self, catalog):
        # a planned bind-join template against the credit service carries the
        # binding conjunct; that must NOT be flagged as exceeding capabilities
        plan = self.plan(
            catalog,
            "SELECT c.name, cr.score FROM customers c, credit cr "
            "WHERE c.id = cr.cust_id",
        )
        assert not any(d.code == "EII401" for d in verify_plan(plan))

    def test_eii401_bind_join_probing_another_column(self, catalog):
        plan = self.plan(
            catalog,
            "SELECT c.name, cr.score FROM customers c, credit cr "
            "WHERE c.id = cr.cust_id",
        )
        (bind,) = plan.bind_joins
        plan = altered(plan, bind, right_key=ColumnRef("score", bind.right_key.qualifier))
        hints = [d.hint for d in verify_plan(plan) if d.code == "EII401"]
        assert hints and "requires a binding on 'cust_id'" in hints[0]

    def test_eii402_cartesian_product(self, catalog):
        plan = self.plan(
            catalog, "SELECT c.name, o.total FROM customers c, orders o"
        )
        diags = verify_plan(plan)
        assert "EII402" in {d.code for d in diags}

    def test_eii403_bookkeeping_mismatch(self, catalog):
        plan = self.plan(catalog, "SELECT r.region FROM regions r")
        orphan = LogicalFetch(
            Select(
                items=(SelectItem(ColumnRef("city", "r")),),
                from_tables=(TableRef("regions", "r"),),
            ),
            plan.fetches[0].source,
            plan.fetches[0].schema,
        )
        plan = replace(plan, fetches=plan.fetches + (orphan,))
        diags = verify_plan(plan)
        assert "EII403" in {d.code for d in diags}

    def test_eii404_missing_dependency_tags(self, catalog):
        plan = self.plan(catalog, "SELECT r.region FROM regions r")
        plan = altered(plan, plan.fetches[0], tables=frozenset())
        diags = verify_plan(plan)
        assert "EII404" in {d.code for d in diags}

    def test_eii405_degradable_essential_branch(self, catalog):
        plan = self.plan(catalog, "SELECT r.region FROM regions r")
        # the engine's own marking never degrades a sole (essential) input...
        assert "EII405" not in {d.code for d in verify_plan(plan)}
        # ...and a marking that did is caught
        diags = verify_plan(plan, degradable={id(plan.fetches[0])})
        assert "EII405" in {d.code for d in diags}


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_infeasible_query_rejected_with_zero_bytes(self, catalog):
        engine = FederatedEngine(catalog, EngineConfig(validate=True))
        with pytest.raises(AnalysisError) as exc:
            engine.query("SELECT * FROM credit")
        assert exc.value.report.has("EII201")
        # the zero-byte guarantee: rejected before any source was contacted
        assert exc.value.metrics.payload_bytes == 0
        assert exc.value.metrics.rows_shipped == 0
        assert exc.value.metrics.source_queries == {}

    def test_a_left_join_binds_only_its_null_supplying_side(self):
        """As the planner does: a LEFT join binds its right side from its
        left, never back, so this order has no access path (EII201)."""
        from repro.bench import BenchConfig, build_enterprise

        fixture = build_enterprise(BenchConfig(scale=1, seed=42))
        engine = FederatedEngine(fixture.catalog(), EngineConfig(validate=True))
        with pytest.raises(AnalysisError) as exc:
            engine.query(
                "SELECT cr.score, c.name FROM credit cr "
                "LEFT JOIN customers c ON cr.cust_id = c.id"
            )
        assert exc.value.report.has("EII201")
        assert exc.value.metrics.payload_bytes == 0
        assert exc.value.metrics.source_queries == {}
        answered = engine.query(
            "SELECT cr.score, c.name FROM customers c "
            "LEFT JOIN credit cr ON cr.cust_id = c.id"
        )
        assert len(answered.relation) == 200

    def test_unknown_column_rejected_before_planning(self, catalog):
        engine = FederatedEngine(catalog, EngineConfig(validate=True))
        with pytest.raises(AnalysisError) as exc:
            engine.query("SELECT c.bogus FROM customers c")
        assert exc.value.report.has("EII102")

    def test_valid_query_unaffected_by_validation(self, catalog):
        strict = FederatedEngine(catalog, EngineConfig(validate=True))
        loose = FederatedEngine(build_catalog())
        sql = (
            "SELECT c.name, o.total FROM customers c, orders o "
            "WHERE c.id = o.cust_id ORDER BY o.total DESC"
        )
        assert strict.query(sql).relation.rows == loose.query(sql).relation.rows

    def test_validation_off_by_default(self, catalog):
        engine = FederatedEngine(catalog)
        # without validation the planner raises its own PlanError instead
        with pytest.raises(Exception) as exc:
            engine.query("SELECT * FROM credit")
        assert not isinstance(exc.value, AnalysisError)

    def test_explain_surfaces_warnings(self, catalog):
        engine = FederatedEngine(catalog, EngineConfig(validate=True))
        text = engine.explain("SELECT r.region FROM regions r")
        assert "diagnostics:" in text
        assert "EII204" in text

    def test_explain_clean_query_has_no_diagnostics_section(self, catalog):
        engine = FederatedEngine(catalog)
        text = engine.explain(
            "SELECT c.name FROM customers c WHERE c.city = 'Springfield'"
        )
        assert "diagnostics:" not in text

    def test_local_engine_collects_all_defects(self):
        db = Database("t")
        db.create_table("people", [("id", DataType.INT), ("name", DataType.STRING)])
        engine = LocalEngine(db, validate=True)
        with pytest.raises(AnalysisError) as exc:
            engine.query("SELECT nope, FROBNICATE(name) FROM people")
        assert {"EII102", "EII107"} <= exc.value.report.codes()

    def test_local_engine_valid_query_runs(self):
        db = Database("t")
        db.create_table("people", [("id", DataType.INT), ("name", DataType.STRING)])
        db.table("people").insert([1, "ada"])
        engine = LocalEngine(db, validate=True)
        assert len(engine.query("SELECT name FROM people")) == 1


# ---------------------------------------------------------------------------
# analyze_statement over ASTs (no text)
# ---------------------------------------------------------------------------


def test_ast_analysis_without_text(catalog):
    stmt = Select(
        items=(SelectItem(ColumnRef("bogus", "c")),),
        from_tables=(TableRef("customers", "c"),),
    )
    diags = analyze_statement(stmt, catalog)
    assert [d.code for d in diags] == ["EII102"]
    assert diags[0].span is None  # no text, no span — still a clean render
    assert "EII102" in diags[0].render()
