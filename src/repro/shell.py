r"""An interactive federated SQL shell over the EIIBench enterprise.

    python -m repro            # interactive
    echo "SELECT ..." | python -m repro   # batch from stdin

Commands:
    \sources            list registered sources and their dialects
    \tables             list federated tables and defined names (views)
    \explain <sql>      show the federated plan without executing
    \lint <sql|path>    static analysis: a query, or a workspace directory
                        of .sql/.gav/.lav files (typed EIIxxx diagnostics)
    \metrics            toggle per-query execution accounting
    \profile <sql>      execute and show EXPLAIN ANALYZE (per-node actuals)
    \scoreboard         per-source latency/bytes/failure scoreboard
    \feedback [clear]   inspect (or drop) the adaptive cardinality
                        calibrations learned from executed queries
    \trace              toggle tracing (on by default; off = no-op tracer)
    \workload [n [seed]]  run a seeded n-query multi-tenant workload
                        through the concurrent scheduler (default 25, seed 0)
    \views              materialized views (staleness, hits) and the
                        auto-materialization advisor's recommendations
    \health             telemetry dashboard: per-source health, sparklines
    \slo                per-tenant SLO status (burn rates, breaches)
    \alerts             alert history (firing and resolved)
    \help               show this command list
    \quit               exit

Anything else is executed as federated SQL against the generated
customer-360 enterprise (CRM + sales + support + finance + spreadsheet +
credit web service + NETMARK documents).
"""

from __future__ import annotations

import sys

import repro
from repro.adaptive import AdaptiveContext
from repro.bench import BenchConfig, build_enterprise
from repro.common.errors import EIIError
from repro.federation import EngineConfig
from repro.netsim import SimClock
from repro.sql.printer import to_sql
from repro.telemetry import TelemetryPlane
from repro.trace import Tracer


class Shell:
    def __init__(self, scale: int = 1, out=None, telemetry: bool = True):
        self.out = out if out is not None else sys.stdout
        fixture = build_enterprise(BenchConfig(scale=scale))
        self.tracer = Tracer()
        self.adaptive = AdaptiveContext()
        # With telemetry on, the shell runs on a SimClock advanced by each
        # query's simulated elapsed time, so health/SLO windows roll on the
        # same timeline the netsim charges. Telemetry off keeps the
        # historical wall-clock engine, byte-identical output included.
        config = EngineConfig(
            tracer=self.tracer,
            adaptive=self.adaptive,
            views=True,
            auto_materialize=True,
        )
        self.clock = None
        self.telemetry = None
        if telemetry:
            self.clock = SimClock()
            self.telemetry = TelemetryPlane(clock=self.clock)
            config = config.with_overrides(
                clock=self.clock, telemetry=self.telemetry
            )
        self.engine = repro.connect(fixture.catalog(), config)
        self.show_metrics = True
        self.tracing = True

    def write(self, text: str = "") -> None:
        print(text, file=self.out)

    # -- command dispatch -----------------------------------------------------

    def handle(self, line: str) -> bool:
        """Process one input line; returns False when the shell should exit."""
        line = line.strip()
        if not line:
            return True
        if line.startswith("\\"):
            return self._command(line)
        self._run_sql(line)
        return True

    def _command(self, line: str) -> bool:
        command, _, argument = line.partition(" ")
        command = command.lower()
        if command in ("\\quit", "\\q"):
            return False
        if command == "\\sources":
            for name, source in sorted(self.engine.catalog.sources.items()):
                caps = source.capabilities
                self.write(
                    f"  {name:12} {type(source).__name__:18} "
                    f"dialect={caps.dialect} wire={caps.wire_format.name}"
                )
            return True
        if command == "\\tables":
            for table in self.engine.catalog.table_names():
                entry = self.engine.catalog.entry(table)
                columns = ", ".join(entry.schema.names)
                self.write(f"  {table:14} @{entry.source.name:10} ({columns})")
            for name, record in sorted(self.engine.catalog.definitions.items()):
                rows = "" if record.policy is None else (
                    f" [materialized, {'dirty' if record.dirty else 'fresh'}"
                    + (f"; {record.unmatchable}" if record.unmatchable else "")
                    + "]"
                )
                self.write(f"  {name:14} = {to_sql(record.statement)}{rows}")
            return True
        if command == "\\explain":
            if not argument.strip():
                self.write("usage: \\explain <sql>")
                return True
            try:
                self.write(self.engine.explain(argument))
            except EIIError as exc:
                self.write(f"error: {exc}")
            return True
        if command == "\\lint":
            if not argument.strip():
                self.write("usage: \\lint <sql | workspace path>")
                return True
            self._lint(argument.strip())
            return True
        if command == "\\metrics":
            self.show_metrics = not self.show_metrics
            self.write(f"metrics {'on' if self.show_metrics else 'off'}")
            return True
        if command == "\\profile":
            if not argument.strip():
                self.write("usage: \\profile <sql>")
                return True
            try:
                result = self.engine.query(argument, analyze=True)
            except EIIError as exc:
                self.write(f"error: {exc}")
                return True
            if self.clock is not None:
                self.clock.advance(result.elapsed_seconds)
            self.write(result.explain_analyze())
            return True
        if command == "\\scoreboard":
            if not self.tracing:
                self.write(
                    "tracing is off — \\trace to re-enable span collection"
                )
                return True
            self.write(self.engine.scoreboard.render(self.tracer.finished))
            return True
        if command == "\\feedback":
            if argument.strip().lower() == "clear":
                dropped = self.adaptive.clear()
                self.write(f"feedback: dropped {dropped} calibration(s)")
            else:
                self.write(self.adaptive.render())
            return True
        if command == "\\trace":
            self.tracing = not self.tracing
            self.engine.set_tracer(self.tracer if self.tracing else None)
            self.write(f"tracing {'on' if self.tracing else 'off'}")
            return True
        if command == "\\workload":
            self._workload(argument.split())
            return True
        if command == "\\views":
            self._views()
            return True
        if command == "\\health":
            if self._telemetry_off():
                return True
            self.telemetry.tick(self.clock())
            self.write(self.telemetry.render_dashboard())
            return True
        if command == "\\slo":
            if self._telemetry_off():
                return True
            self.telemetry.tick(self.clock())
            self.write(self.telemetry.slo.render())
            return True
        if command == "\\alerts":
            if self._telemetry_off():
                return True
            self.telemetry.tick(self.clock())
            self.write(self.telemetry.alerts.render())
            return True
        if command == "\\help":
            self.write(self._help_text())
            return True
        self.write(
            f"unknown command {command!r} "
            "(try \\help \\sources \\tables \\explain \\lint \\profile "
            "\\scoreboard \\feedback \\workload \\views \\health \\slo "
            "\\alerts \\quit)"
        )
        return True

    def _telemetry_off(self) -> bool:
        if self.telemetry is None:
            self.write(
                "telemetry is off — start the shell with telemetry enabled "
                "(Shell(telemetry=True), the default)"
            )
            return True
        return False

    @staticmethod
    def _help_text() -> str:
        """The Commands section of the module docstring, verbatim."""
        lines = (__doc__ or "").splitlines()
        try:
            start = next(i for i, l in enumerate(lines) if l.startswith("Commands:"))
        except StopIteration:
            return __doc__ or ""
        end = start + 1
        while end < len(lines) and (not lines[end] or lines[end].startswith(" ")):
            end += 1
        return "\n".join(lines[start:end]).rstrip()

    def _workload(self, args: list) -> None:
        """Run a seeded concurrent workload and print the tenant table."""
        from repro.sched import (
            DEFAULT_TENANTS,
            SchedulerConfig,
            WorkloadScheduler,
            make_workload,
        )

        try:
            n = int(args[0]) if args else 25
            seed = int(args[1]) if len(args) > 1 else 0
        except ValueError:
            self.write("usage: \\workload [n [seed]]")
            return
        scheduler = WorkloadScheduler(self.engine, DEFAULT_TENANTS, SchedulerConfig())
        self.write(scheduler.run(make_workload(n, seed=seed)).render())

    def _views(self) -> None:
        """Materialized-view status plus the advisor's current ranking."""
        manager = self.engine.views
        if manager is None:
            self.write("views are off (EngineConfig(views=True) to enable)")
            return
        names = manager.materialized_names()
        if not names:
            self.write("no materialized views yet")
        else:
            now = self.clock() if self.clock is not None else None
            for name in names:
                view = manager.view(name)
                state = "dirty" if view.dirty else "fresh"
                self.write(
                    f"  {name:20} {state:5} "
                    f"staleness={view.staleness(now):8.1f}s "
                    f"refreshes={view.refresh_count} serves={view.serve_count}"
                )
        selector = self.engine.view_selector
        if selector is None:
            return
        recommendations = selector.recommendations(limit=5)
        if recommendations:
            self.write("advisor ranking (benefit = repeats x seconds / byte):")
        for rec in recommendations:
            status = (
                f"materialized as {rec.materialized_as}"
                if rec.materialized_as
                else "candidate"
            )
            sql = rec.sql if len(rec.sql) <= 56 else rec.sql[:53] + "..."
            self.write(
                f"  {rec.benefit:10.2e}  x{rec.count:<3} {status:28} {sql}"
            )

    def _lint(self, argument: str) -> None:
        """Static analysis of one query, or of a workspace directory."""
        import os

        from repro.analysis import QueryAnalyzer, lint_workspace

        if os.path.exists(argument):
            report = lint_workspace(argument, self.engine.catalog)
        else:
            report = QueryAnalyzer(catalog=self.engine.catalog).analyze(argument)
        for diagnostic in report:
            self.write(f"  {diagnostic.render()}")
        self.write(report.headline())

    def _run_sql(self, sql: str) -> None:
        try:
            result = self.engine.query(sql)
        except EIIError as exc:
            self.write(f"error: {exc}")
            return
        if self.clock is not None:
            # telemetry mode: the shell's timeline advances by each query's
            # simulated elapsed time, rolling health/SLO windows forward
            self.clock.advance(result.elapsed_seconds)
        self.write(result.relation.pretty())
        if self.show_metrics:
            summary = result.metrics.summary()
            self.write(
                f"-- {len(result.relation)} rows; "
                f"{summary['source_queries']} component queries; "
                f"{summary['rows_shipped']} rows / {summary['wire_bytes']} bytes shipped; "
                f"{result.elapsed_seconds:.4f}s simulated"
            )

    # -- loops ---------------------------------------------------------------------

    def run(self, stream=None) -> None:
        interactive = stream is None and sys.stdin.isatty()
        stream = stream or sys.stdin
        if interactive:
            self.write("repro federated SQL shell — \\tables to look around, \\quit to exit")
        while True:
            if interactive:
                self.out.write("eii> ")
                self.out.flush()
            line = stream.readline()
            if not line:
                break
            if not self.handle(line):
                break


def main(argv=None) -> int:
    scale = 1
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].startswith("--scale="):
        scale = int(argv[0].split("=", 1)[1])
    Shell(scale=scale).run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
