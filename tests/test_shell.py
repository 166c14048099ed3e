"""Tests for the federated SQL shell."""

import io

import pytest

from repro.shell import Shell


@pytest.fixture(scope="module")
def shell_output():
    """Run a scripted session once; tests inspect the transcript."""
    out = io.StringIO()
    shell = Shell(scale=1, out=out)
    script = [
        "\\tables",
        "\\sources",
        "SELECT name, city FROM customers WHERE id = 7",
        "\\explain SELECT COUNT(*) FROM orders",
        "SELECT nope FROM customers",
        "\\metrics",
        "SELECT COUNT(*) AS n FROM orders",
        "\\profile SELECT c.city, SUM(o.total) AS revenue FROM customers c "
        "JOIN orders o ON c.id = o.cust_id GROUP BY c.city",
        "\\scoreboard",
        "\\bogus",
        "\\quit",
        "SELECT should_never_run FROM customers",
    ]
    alive = True
    for line in script:
        alive = shell.handle(line)
        if not alive:
            break
    return out.getvalue(), shell


class TestShell:
    def test_tables_listed(self, shell_output):
        text, _ = shell_output
        assert "customers" in text and "@crm" in text

    def test_sources_listed(self, shell_output):
        text, _ = shell_output
        assert "creditsvc" in text
        assert "WebServiceSource" in text

    def test_query_executes_with_metrics(self, shell_output):
        text, _ = shell_output
        assert "component queries" in text

    def test_explain_shows_plan(self, shell_output):
        text, _ = shell_output
        assert "assembly site" in text

    def test_sql_errors_reported_not_raised(self, shell_output):
        text, _ = shell_output
        assert "error:" in text

    def test_metrics_toggle(self, shell_output):
        text, shell = shell_output
        assert "metrics off" in text
        assert shell.show_metrics is False

    def test_unknown_command_hint(self, shell_output):
        text, _ = shell_output
        assert "unknown command" in text

    def test_profile_renders_explain_analyze(self, shell_output):
        text, _ = shell_output
        assert "EXPLAIN ANALYZE (simulated time)" in text
        assert "of work)" in text

    def test_scoreboard_renders_sources(self, shell_output):
        text, shell = shell_output
        assert "p95_s" in text
        assert "simulated" in text and "remote work" in text
        # every executed query (including the profiled one) was traced
        assert shell.tracer.finished >= 3

    def test_profile_usage_lines(self):
        out = io.StringIO()
        shell = Shell(scale=1, out=out)
        shell.handle("\\profile")
        assert "usage: \\profile" in out.getvalue()

    def test_trace_toggle_and_scoreboard_off_hint(self):
        out = io.StringIO()
        shell = Shell(scale=1, out=out)
        shell.handle("\\trace")
        assert "tracing off" in out.getvalue()
        assert shell.engine.tracer.enabled is False
        # queries run untraced: no new traces recorded
        shell.handle("SELECT COUNT(*) AS n FROM orders")
        assert shell.tracer.finished == 0
        shell.handle("\\scoreboard")
        assert "tracing is off" in out.getvalue()
        # \profile still works while tracing is off (ephemeral tracer)
        shell.handle("\\profile SELECT COUNT(*) AS n FROM orders")
        assert "EXPLAIN ANALYZE" in out.getvalue()
        shell.handle("\\trace")
        assert "tracing on" in out.getvalue()
        assert shell.engine.tracer is shell.tracer

    def test_feedback_renders_calibrations(self):
        out = io.StringIO()
        shell = Shell(scale=1, out=out)
        shell.handle("SELECT COUNT(*) AS n FROM orders")
        shell.handle("\\feedback")
        text = out.getvalue()
        assert "calibration" in text or "feedback" in text

    def test_feedback_clear_drops_calibrations(self):
        out = io.StringIO()
        shell = Shell(scale=1, out=out)
        shell.handle("SELECT COUNT(*) AS n FROM orders")
        shell.handle("\\feedback clear")
        assert "feedback: dropped" in out.getvalue()
        shell.handle("\\feedback CLEAR")  # case-insensitive, idempotent
        assert out.getvalue().count("feedback: dropped") == 2

    def test_workload_runs_and_renders_tenant_table(self):
        out = io.StringIO()
        shell = Shell(scale=1, out=out)
        shell.handle("\\workload 10 3")
        text = out.getvalue()
        assert "tenant" in text and "mean_wait_s" in text
        assert "workload: 10 queries" in text
        assert "makespan" in text
        # each outcome reported once, to the engine's own telemetry plane
        assert shell.engine.telemetry is shell.telemetry
        assert sum(
            counter.value()
            for counter in shell.telemetry.registry.instruments()
            if counter.name == "eii_sched_outcomes_total"
        ) == 10

    def test_workload_defaults_and_bad_arguments(self):
        out = io.StringIO()
        shell = Shell(scale=1, out=out)
        shell.handle("\\workload nope")
        assert "usage: \\workload" in out.getvalue()
        shell.handle("\\workload 5")
        assert "workload: 5 queries" in out.getvalue()

    def test_workload_determinism_across_sessions(self):
        def transcript():
            out = io.StringIO()
            Shell(scale=1, out=out).handle("\\workload 8 1")
            return out.getvalue()

        assert transcript() == transcript()

    def test_quit_stops_session(self, shell_output):
        text, _ = shell_output
        assert "should_never_run" not in text

    def test_stream_mode(self):
        out = io.StringIO()
        shell = Shell(scale=1, out=out)
        shell.run(stream=io.StringIO("SELECT COUNT(*) AS n FROM customers\n"))
        assert "200" in out.getvalue()

    def test_main_entry(self, monkeypatch, capsys):
        import sys

        from repro import shell as shell_module

        monkeypatch.setattr(
            sys, "stdin", io.StringIO("SELECT COUNT(*) AS n FROM tickets\n")
        )
        monkeypatch.setattr(sys, "argv", ["repro", "--scale=1"])
        assert shell_module.main() == 0
        assert "300" in capsys.readouterr().out


class TestShellTelemetry:
    def test_health_dashboard_after_queries_and_workload(self):
        out = io.StringIO()
        shell = Shell(scale=1, out=out)
        shell.handle("SELECT COUNT(*) AS n FROM orders")
        shell.handle("\\workload 10 0")
        shell.handle("\\health")
        text = out.getvalue()
        assert "== telemetry ==" in text
        assert "-- source health --" in text
        assert "healthy" in text
        assert "fetches/window" in text

    def test_slo_and_alerts_commands(self):
        out = io.StringIO()
        shell = Shell(scale=1, out=out)
        shell.handle("\\workload 10 0")
        shell.handle("\\slo")
        shell.handle("\\alerts")
        text = out.getvalue()
        assert "tenant" in text and "err_burn" in text
        assert "alerts:" in text

    def test_help_lists_telemetry_commands(self):
        out = io.StringIO()
        shell = Shell(scale=1, out=out)
        shell.handle("\\help")
        text = out.getvalue()
        for command in ("\\health", "\\slo", "\\alerts", "\\workload"):
            assert command in text, command

    def test_clock_advances_by_simulated_elapsed(self):
        shell = Shell(scale=1, out=io.StringIO())
        assert shell.clock() == 0.0
        shell.handle("SELECT COUNT(*) AS n FROM orders")
        assert shell.clock() > 0.0

    def test_telemetry_off_commands_hint_instead_of_crashing(self):
        out = io.StringIO()
        shell = Shell(scale=1, out=out, telemetry=False)
        assert shell.telemetry is None and shell.clock is None
        for command in ("\\health", "\\slo", "\\alerts"):
            assert shell.handle(command) is True
        assert out.getvalue().count("telemetry is off") == 3

    def test_telemetry_off_session_matches_historical_output(self):
        def transcript(**kwargs):
            out = io.StringIO()
            shell = Shell(scale=1, out=out, **kwargs)
            shell.handle("SELECT COUNT(*) AS n FROM orders")
            shell.handle("\\workload 8 1")
            return out.getvalue()

        # telemetry observes without changing a byte of existing output
        assert transcript(telemetry=False) == transcript(telemetry=True)

    def test_workload_feeds_tenant_slos(self):
        shell = Shell(scale=1, out=io.StringIO())
        shell.handle("\\workload 12 2")
        statuses = shell.telemetry.slo.statuses()
        assert statuses, "workload outcomes should reach the SLO tracker"
        assert sum(s.samples for s in statuses) == 12
