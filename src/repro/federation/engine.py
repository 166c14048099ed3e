"""Federated execution: component fetches + assembly-site evaluation.

Plan = value, execution = context, facts recorded once. `FederatedEngine.query()`
is a straight line of stages, each yielding a `FederatedResult` or passing:
canonicalize (+ strict-mode pre-flight) → result cache → view answering →
plan (plan cache, strict verification) → admission → execute. Every answer,
whichever stage produced it, leaves through one epilogue (result-cache
admission, the query's end reported to telemetry and traced, advisor feed);
a query that raises reports its end the same way, as an error.
A plan is never written to once planned — the plan cache hands one
`FederatedPlan` to every caller — so one engine may answer many threads at
once: what a run needs lives in its `repro.federation.execution.Execution`,
which runs the plan's component queries on the calling thread (their
parallelism is simulated: `makespan` over ``parallel_workers`` slots), serves
the assembly-site operators lowered against it, and is the only writer of the
observers (`MetricsCollector`, the engine's per-source record ``scoreboard``,
telemetry plane). No span is written on the way: a traced query's tree is
built from the execution's record when it ends (`_trace`).
`attach_invalidation` subscribes `invalidate_table`, the engine's one
invalidation entry point, to an EAI broker's table-change events so writes
evict dependent entries and dirty dependent views.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.cache import CacheConfig, CacheHierarchy, canonical_statement
from repro.common.errors import AdmissionError, EIIError, PlanError
from repro.common.relation import Batch, Relation, vouched
from repro.eai.table_events import subscribe_table_changes
from repro.engine.executor import LocalEngine
from repro.engine.logical import LogicalPlan
from repro.federation.catalog import FederationCatalog
from repro.federation.config import EngineConfig
from repro.federation.execution import Execution, Recorder
from repro.federation.limits import SourceLimiter
from repro.federation.planner import FederatedPlan, FederatedPlanner
from repro.federation.report import Report, counter_line
from repro.federation.resilience import CompletenessReport, ResilienceManager
from repro.netsim.metrics import MetricsCollector
from repro.netsim.network import NetworkModel
from repro.sql.ast import Select, UnionSelect
from repro.sql.shape import Family, lift
from repro.storage.catalog import Database
from repro.telemetry.plane import resolve_telemetry
from repro.trace import (
    NULL_TRACER,
    QueryScoreboard,
    Tracer,
    explain_analyze,
    instrument_physical,
    makespan,
)
from repro.trace.build import query_trace

#: Simulated seconds per local cost unit at the assembly site.
HUB_TIME_PER_COST_UNIT_S = 2e-6


@dataclass
class FederatedResult:
    """A federated query's answer plus its full execution accounting."""

    relation: Relation
    plan: FederatedPlan
    metrics: MetricsCollector
    #: ``(LogicalFetch, simulated seconds)`` per component fetch, in the
    #: submission order `makespan` charged (LPT's, on an adaptive engine)
    fetch_timings: list = field(default_factory=list)
    elapsed_seconds: float = 0.0  # simulated wall clock (parallelism-aware)
    from_cache: bool = False
    #: which sources answered / were skipped / were served stale (engines
    #: with resilience or partial results only)
    completeness: Optional[CompletenessReport] = None
    #: breaker state per source at the end of execution (resilience only)
    breaker_states: dict = field(default_factory=dict)
    #: span tree of this query (a tracer attached, or analyze=True)
    trace: Optional[object] = None
    #: the executed physical operator tree with per-operator actual row
    #: counts, kept only when tracing, for EXPLAIN ANALYZE
    physical: Optional[object] = None
    #: mid-query re-optimization report (`repro.adaptive.ReplanReport`);
    #: None when the plan survived its own actuals
    replan: Optional[object] = None
    #: view provenance (`repro.views.ViewProvenance`) when this result was
    #: answered from a materialized view instead of federating
    view: Optional[object] = None
    #: the constants `plan` ran with (its `Param`s'), which its texts show
    values: tuple = ()

    @property
    def is_partial(self) -> bool:
        return self.completeness is not None and not self.completeness.complete

    @property
    def payload_bytes(self) -> int:
        """The answer's wire size, as sized for the transfer every run ends with."""
        return self.metrics.transfers[-1].payload_bytes

    def report(self, analyze: bool = False) -> Report:
        """This result's execution account as a sectioned `Report`.

        The one rendering surface behind `explain()`/`explain_analyze()`:
        consumers needing a single facet read the section by its stable name
        (documented in `repro.federation.report`) instead of string-scraping.
        """
        report = Report()
        report.add("plan", self.plan.pretty(self.values))  # the constants it ran with
        if self.replan is not None:
            report.add("replan", self.replan.describe(), self.replan.pretty(self.values))
        for name, counters in self.metrics.shown_groups():
            report.add(name, counter_line(name, counters))
        if self.view is not None:
            report.add("views", self.view.describe())
        report.add("elapsed", f"simulated elapsed: {self.elapsed_seconds:.4f}s")
        if self.breaker_states:
            states = sorted(self.breaker_states.items())
            report.add(
                "breakers", "breakers: " + ", ".join(f"{n}={s}" for n, s in states)
            )
        if self.completeness is not None:
            prefix = "completeness: PARTIAL — " if self.is_partial else "completeness: "
            report.add("completeness", prefix + self.completeness.describe())
        if analyze:
            report.add("analyze", explain_analyze(self))
        return report

    def explain(self) -> str:
        return self.report().render()

    def explain_analyze(self) -> str:
        """EXPLAIN ANALYZE text (requires the query to have been traced)."""
        return self.report(analyze=True).section("analyze").text()


class FederatedEngine:
    """The EII server: plans and executes queries over registered sources."""

    def __init__(
        self, catalog: FederationCatalog, config: Optional[EngineConfig] = None
    ):
        """Build an engine over `catalog`, configured by an `EngineConfig`.

        ``repro.connect(catalog, config, **overrides)`` is the documented
        construction facade; this constructor takes the config whole.
        """
        self.config = config = config or EngineConfig()
        self.catalog = catalog
        self.clock = clock = config.clock if config.clock is not None else time.time
        self.network = config.network or NetworkModel()
        self.parallel_workers = max(config.parallel_workers, 1)
        self.planner = config.planner or FederatedPlanner(
            catalog,
            network=self.network,
            semijoin=config.semijoin,
            choose_assembly_site=config.choose_assembly_site,
        )
        #: adaptive execution (cardinality feedback, mid-query replanning, LPT
        #: prefetch scheduling); None keeps the static engine byte for byte
        self.adaptive = self._resolve_adaptive(config.adaptive)
        if self.adaptive is not None and self.adaptive.policy.feedback:
            from repro.adaptive import FeedbackCostModel

            self.planner.cost_model = FeedbackCostModel(self.adaptive.store, catalog)
        #: Default hierarchy: plan caching on (a pure win); fetch and result
        #: levels off, so repeated queries observably re-hit sources unless
        #: the caller passes a hierarchy.
        self.cache = (
            config.cache
            if config.cache is not None
            else CacheHierarchy(
                CacheConfig(fetch_enabled=False, result_enabled=False), clock=clock
            )
        )
        #: per-source retry/breaker/failover behavior; None = fail fast,
        #: exactly the pre-resilience all-or-nothing engine
        resilience = config.resilience
        if resilience is None or isinstance(resilience, ResilienceManager):
            self.resilience = resilience
        else:
            self.resilience = ResilienceManager(resilience, clock=clock)
        #: this engine's own bound on the caller threads inside one source's
        #: round trips, built from ``config.source_limits`` (None = no caps)
        limits = dict(config.source_limits)
        self.source_limiter = SourceLimiter(limits) if limits else None
        self._analyzer = None
        self._scratch = Database("assembly")
        self._local = LocalEngine(self._scratch, optimize=False)
        self.tracer = NULL_TRACER
        self.set_tracer(config.tracer)
        #: what each source was observed to do, across every query - the one
        #: per-source record, always on; `Recorder` is its only writer
        self.scoreboard = QueryScoreboard()
        #: observe-only telemetry plane, shared by every execution and by a
        #: workload scheduler; the no-op default does no work, like `NULL_TRACER`
        self.telemetry = resolve_telemetry(config.telemetry)
        if self.telemetry.enabled:
            if self.telemetry.clock is None:
                # windows roll on the engine's (usually simulated) clock
                self.telemetry.clock = clock
                self.telemetry.series.clock = clock
            # per-source instruments and health are read from this engine's record
            self.telemetry.attach_scoreboard(
                self.scoreboard, managed=self.resilience is not None
            )
            if self.resilience is not None:
                self.resilience.attach_telemetry(self.telemetry)
        #: answering queries using views: an engine-owned `ViewManager` plus
        #: the matcher (and the advisor, with ``auto_materialize``); all None
        #: when views are off, keeping the query path byte-identical to the
        #: view-less engine. Imported lazily like `repro.adaptive`: the views
        #: package pulls in the local executor.
        self.views = self._answering = self.view_selector = None
        if config.views or config.auto_materialize:
            from repro.views.answering import ViewAnswering
            from repro.views.catalog import ServePolicy
            from repro.views.manager import ViewManager

            self.views = ViewManager(self)
            self._answering = ViewAnswering(self, config.view_policy or ServePolicy())
        if config.auto_materialize:
            from repro.advisor.selector import ViewSelector

            self.view_selector = ViewSelector(self)

    @staticmethod
    def _resolve_adaptive(adaptive):
        """Accept an `AdaptiveContext`, True, or None / False.

        Imported lazily (like `repro.analysis`): the adaptive package
        imports federation planner/nodes at module level, so a top-level
        import here would be circular.
        """
        if adaptive is None or adaptive is False:
            return None
        from repro.adaptive import AdaptiveContext

        if adaptive is True:
            return AdaptiveContext()
        if isinstance(adaptive, AdaptiveContext):
            return adaptive
        raise PlanError(
            f"adaptive must be an AdaptiveContext or bool, got {type(adaptive).__name__}"
        )

    def set_tracer(self, tracer) -> None:
        """Attach a `Tracer` (or None for the zero-cost no-op default)."""
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- public -----------------------------------------------------------------

    def query(
        self,
        query: Union[str, Select, UnionSelect],
        analyze: bool = False,
        use_views: bool = True,
    ) -> FederatedResult:
        """Plan and execute a federated query (cache- and admission-aware).

        A name in FROM may be a source table or stand for a query
        (`FederationCatalog.define`); the planner unfolds it, every stage applies.
        ``analyze=True`` traces this one query even when the engine has no
        tracer, so `FederatedResult.explain_analyze()` can render per-node
        actuals. With views enabled, a SELECT subsumed by a fresh materialized
        view is answered from the view's rows (zero network; see
        `repro.views.answering`), as is one whose FROM is such a view's name;
        ``use_views=False`` forces base federation
        — view refresh runs this way, and differential oracles use it as the
        ground truth. A query that raises still finishes its trace, with the
        error's type on the root span.
        """
        tracer = self.tracer
        if analyze and not tracer.enabled:
            tracer = Tracer(keep=1)
        statement, canonical, stamp = self._canonicalize(query)
        # The result level keeps its historical contract: only *textual*
        # queries are served whole from cache (now under the canonical key,
        # so reformatted spellings of one query share an entry).
        result_key = stamp + canonical if isinstance(query, str) else None
        view_fallbacks: list = []
        planned = run = None  # what the query's trace is built from, however it ends
        try:
            if self.config.validate:
                # strict pre-flight: an infeasible query never reaches a cache
                self._raise_unless_ok(
                    self._get_analyzer().analyze(
                        statement, query if isinstance(query, str) else None
                    )
                )
            result = self._cached_result(result_key)
            if result is None and use_views and self._answering is not None:
                result, view_fallbacks = self._view_result(statement)
            if result is None:
                planned = ()  # planning raised: the trace shows the parse alone
                plan, plan_was_cached, values = self._plan_for(statement, canonical, stamp)
                planned = plan, plan_was_cached
                if self.config.validate:
                    self._raise_unless_ok(self._get_analyzer().verify(plan, values))
                self._admit(plan)
                run = Execution(self, plan, MetricsCollector(network=self.network), values)
                result = self._run(run, tracer.enabled)
                if plan_was_cached:
                    result.metrics.plan_cache_hits += 1
        except Exception as exc:
            attrs = {"sql": canonical, "error": type(exc).__name__}
            self._finish(tracer, "error", attrs, planned, run)
            raise
        self._admit_result(result, result_key)
        if view_fallbacks:
            Recorder(result.metrics, self.telemetry).view_fallbacks(view_fallbacks)
        if tracer.enabled or self.telemetry.enabled:
            attrs = {"sql": canonical, "rows": len(result.relation)}
            if result.from_cache:
                status, attrs["result_cache"] = "cached", "hit"
            else:
                status = "partial" if result.is_partial else "ok"
                attrs["elapsed_s"] = result.elapsed_seconds
                view = result.view
                attrs.update(
                    {"partial": result.is_partial} if view is None
                    else {"view": view.view, "view_fresh": view.fresh}
                )
            result.trace = self._finish(tracer, status, attrs, planned, run)
        if self.view_selector is not None and use_views:
            if result.view is not None:
                self.view_selector.observe_hit(result.view.view)
            elif not result.from_cache:
                self.view_selector.observe(canonical, result)
                self.view_selector.maintain()
        return result

    # -- query stages (each yields a FederatedResult or None) ----------------------

    def _canonicalize(self, query) -> tuple:
        """``(statement, canonical SQL, stamp)``; rejects anything but a SELECT, as
        text or parsed. What is cached of a statement naming a definition is keyed
        under its stamp (`FederationCatalog.stamp`), empty for any other."""
        statement, canonical = canonical_statement(query)
        if not isinstance(statement, (Select, UnionSelect)):
            raise PlanError("federated queries must be SELECT statements")
        catalog = self.catalog
        return statement, canonical, catalog.stamp(statement) if catalog.definitions else ""

    def _cached_result(self, result_key) -> Optional[FederatedResult]:
        hit = self.cache.get_result(result_key)  # a None key never hits
        if hit is None:
            return None
        return FederatedResult(
            hit.relation, hit.plan, hit.metrics, hit.fetch_timings,
            elapsed_seconds=0.0, from_cache=True, completeness=hit.completeness,
            values=hit.values,
        )

    def _view_result(self, statement) -> tuple:
        """Answer from a materialized view: ``(result | None, fallbacks)``.

        ``fallbacks`` names views that matched but were too dirty/stale to
        serve; they count only when the query goes on to live federation. An
        answer is charged a local scan of the view's rows at the hub plus the
        hub→client transfer — no source queries, no federation bytes.
        """
        answer, fallbacks = self._answering.try_answer(statement)
        if answer is None:
            return None, fallbacks
        view = answer.provenance
        metrics = MetricsCollector(network=self.network)
        Recorder(metrics, self.telemetry).view_served(
            view.view, view.fresh, view.staleness_s
        )
        scan_seconds = answer.rows_scanned * HUB_TIME_PER_COST_UNIT_S
        metrics.charge_seconds(scan_seconds)
        payload_bytes = answer.relation.size_bytes()
        transfer_seconds = metrics.record_transfer(
            "hub", "client", rows=len(answer.relation), payload_bytes=payload_bytes,
            description=f"view answer from {view.view}",
        )
        plan = FederatedPlan(
            root=answer.plan, fetches=(), bind_joins=(), assembly_site="hub",
            est_result_rows=float(len(answer.relation)),
            est_result_bytes=payload_bytes,
        )
        result = FederatedResult(
            answer.relation, plan, metrics, fetch_timings=[],
            elapsed_seconds=scan_seconds + transfer_seconds, view=view,
        )
        return result, []

    def _admit(self, plan: FederatedPlan) -> None:
        budget = self.config.admission_budget_s
        if budget is None:
            return
        predicted = self.predict_elapsed(plan)
        if predicted > budget:
            raise AdmissionError(
                f"query predicted to take {predicted:.3f}s, over the "
                f"{budget:.3f}s admission budget",
                predicted_seconds=predicted,
            )

    def _admit_result(self, result, result_key) -> None:
        view = result.view
        # Never re-admit a hit, serve a partial answer later as if it were
        # whole, or a stale view serve as if it were live. Tags (the plan's
        # tables, or the view and its base tables) let upstream writes evict.
        if (
            result_key is not None
            and self.cache.results is not None
            and not result.from_cache
            and not result.is_partial
            and (view is None or view.fresh)
        ):
            self.cache.put_result(
                result_key,
                result,
                tags=result.plan.table_dependencies()
                if view is None
                else view.tables | {view.view},
                size_bytes=result.payload_bytes,
                cost_seconds=result.elapsed_seconds,
            )

    def _finish(self, tracer, status, attrs, planned=None, run=None):
        """A query ended, answered or failed: its one report to telemetry, then its trace."""
        Recorder(None, self.telemetry).query_finished(
            status, self.clock, attrs.get("rows"), attrs.get("elapsed_s")
        )
        return self._trace(tracer, "query", attrs, planned, run)

    @staticmethod
    def _trace(tracer, name, attrs, planned=None, run=None):
        """A finished query's tree, built and laid out if traced: `query()` and a
        direct `execute_plan()` both end here."""
        return tracer.finish(query_trace(name, attrs, planned, run)) if tracer.enabled else None

    def prepare(self, query: Union[str, Select, UnionSelect]) -> FederatedPlan:
        """Plan a query — through the plan cache — without executing it.

        The workload scheduler's admission control prices a queued query with
        this and `predict_elapsed` before any byte is shipped; the plan lands
        in the cache, so a later `query()` reuses it. It holds this statement's
        constants as its `values`, which `execute_plan` runs it with.
        """
        plan, _, values = self._plan_for(*self._canonicalize(query))
        return plan if plan.values == values else replace(plan, values=values)

    def _plan_for(self, statement, canonical, stamp) -> "tuple[FederatedPlan, bool, tuple]":
        """Cached-plan lookup + planning; returns (plan, was_cached, values):
        the plan runs with `values`, the statement's constants.

        Plans are kept in a `repro.sql.shape.Family` per statement shape, so
        what is fresh lies in the key: the catalog's generation and, under
        feedback, the calibrations'.
        """
        key, values = canonical, ()
        if isinstance(statement, Select):
            key, _, values = lift(statement)
        if self.adaptive is not None and self.adaptive.policy.feedback:
            # Calibrations are keyed on the constants, so plans are per text - and
            # per generation: the cache must not serve what feedback disowned.
            key = f"{self.adaptive.generation}: {canonical}"
        key = stamp + key  # the catalog's generation, when a definition is named
        family = self.cache.get_plan(key) or Family()
        found = family.find(values, lambda: self.planner.cost_model.slot_reads(statement))
        plan = self.planner.plan(statement) if found is None else found
        kept = family.add(plan)
        if kept is not family:  # planned
            self.cache.put_plan(key, kept)
        return plan, found is not None, values

    def attach_invalidation(self, broker) -> None:
        """Hear the broker's table-change events, with `invalidate_table`."""
        subscribe_table_changes(broker, self.invalidate_table)

    def invalidate_table(self, table: str) -> None:
        """`table` changed: the one entry point, fanned out to the cache
        hierarchy, the adaptive calibrations, the views and (a session
        event: it falls between queries) this engine's tracer."""
        counts = self.cache.invalidate_table(table)
        self.tracer.session_event(
            "cache.invalidate", table=table,
            fetch=counts["fetch"], result=counts["result"],
        )
        if self.adaptive is not None:
            # Calibrations describe table contents, so they expire with them.
            self.adaptive.store.invalidate_table(table)
        if self.views is not None:
            # Looked up per event: covers views defined after attachment.
            self.views.on_table_changed(table)

    def predict_elapsed(self, plan: FederatedPlan) -> float:
        """Pre-execution prediction of simulated elapsed seconds.

        Sums per-fetch predictions (source overhead + estimated execution +
        estimated transfer to the assembly site), list-schedules them over
        the simulated worker slots, and adds assembly compute plus the final
        transfer.
        """
        # lazy like every adaptive import: that package imports this one
        from repro.adaptive.scheduler import static_fetch_seconds

        site = plan.assembly_site
        fetch_predictions = [
            static_fetch_seconds(fetch, fetch.est_rows, self.network, site)
            for fetch in plan.fetches
        ]
        elapsed = makespan(fetch_predictions, self.parallel_workers)
        elapsed += self._assembly_cost(plan, plan.root, plan.values)
        elapsed += self.network.transfer_seconds(site, "client", plan.est_result_bytes)
        for bind in plan.bind_joins:
            caps = bind.source.capabilities
            elapsed += (
                caps.per_query_overhead_s + bind.est_rows * caps.time_per_cost_unit_s
            )
        return elapsed

    def explain(self, query: Union[str, Select, UnionSelect]) -> str:
        plan = self.planner.plan(query)
        report = Report()
        report.add("plan", plan.pretty())
        try:
            statement, _ = canonical_statement(query)
            analysis = self._get_analyzer().analyze(
                statement, query if isinstance(query, str) else None
            )
            analysis.extend(self._get_analyzer().verify(plan, plan.values).diagnostics)
        except EIIError:
            analysis = None
        if analysis is not None and len(analysis):
            report.add(
                "diagnostics", "diagnostics:", *(f"  {d.render()}" for d in analysis)
            )
        return report.render()

    def _get_analyzer(self):
        # lazy: repro.analysis imports federation plan nodes (a cycle otherwise)
        if self._analyzer is None:
            from repro.analysis import QueryAnalyzer

            self._analyzer = QueryAnalyzer(catalog=self.catalog)
        return self._analyzer

    def _raise_unless_ok(self, report) -> None:
        """Strict mode: reject on analyzer findings with zero bytes shipped."""
        from repro.analysis import AnalysisError

        if not report.ok:
            raise AnalysisError(report, metrics=MetricsCollector(network=self.network))

    def execute_plan(self, plan: FederatedPlan) -> FederatedResult:
        """Run a plan as it is: no cache, view or admission stage."""
        tracer, run = self.tracer, Execution(self, plan, MetricsCollector(network=self.network), plan.values)
        try:
            result = self._run(run, tracer.enabled)
        except Exception as exc:
            self._trace(tracer, "execute_plan", {"error": type(exc).__name__}, run=run)
            raise
        attrs = {"rows": len(result.relation), "elapsed_s": result.elapsed_seconds}
        result.trace = self._trace(tracer, "execute_plan", attrs, run=run)
        return result

    def _run(self, run: Execution, traced: bool) -> FederatedResult:
        try:
            plan, metrics = run.plan, run.metrics
            fetch_timings = run.prefetch(plan.fetches)
            # simulated slots, list-scheduled in submission order by the function
            # the trace layout uses: a trace's elapsed time equals the engine's
            fetch_elapsed = makespan([s for _, s in fetch_timings], self.parallel_workers)

            # Mid-query re-optimization: the prefetched relations carry actual
            # cardinalities; when they contradict the estimates badly enough,
            # rebuild the assembly tree above the (identity-preserved,
            # already-materialized) fetches before lowering it.
            replan_report = None
            if self.adaptive is not None and self.adaptive.policy.replan:
                from repro.adaptive import maybe_replan

                replan_report = maybe_replan(
                    plan, run, self.planner, self.adaptive.policy.replan_threshold
                )
                if replan_report is not None:
                    run.replanned(replan_report)

            after_fetch_work = metrics.simulated_seconds
            physical = self._local.lower(run.root, run)
            if traced:
                instrument_physical(physical)
            relation = physical.relation(run.values)
            # Bind joins and any late fetches executed serially during assembly.
            serial_tail = metrics.simulated_seconds - after_fetch_work

            assembly_seconds = self._assembly_cost(plan, run.root, run.values)
            metrics.charge_seconds(assembly_seconds)
            final_transfer = metrics.record_transfer(
                plan.assembly_site, "client", rows=len(relation),
                payload_bytes=relation.size_bytes(), description="final result to client",
            )
            run.assembled = (assembly_seconds, final_transfer)
            # The answer's list is the caller's: not the result memo's (maybe a
            # fetch-cache entry's too), which a pass-through root - q1's - hands up.
            # The batches are compared: reading a fetch's rows would build them.
            held = relation.batch
            rows = relation.rows
            if any(held is fetched.batch for fetched in run.local.values()):
                relation.rows = vouched(Batch(rows), getattr(rows, "kinds", None))
            elapsed = fetch_elapsed + serial_tail + assembly_seconds + final_transfer
            result = FederatedResult(
                relation, plan, metrics, fetch_timings, elapsed,
                completeness=run.report, replan=replan_report, values=run.values,
            )
            if self.resilience is not None:
                result.breaker_states = self.resilience.breaker_states()
            if traced:
                result.physical = physical
            return result
        except EIIError as exc:
            # Attach the partial accounting so callers (benchmarks, tests)
            # can observe how many bytes a failed query shipped before dying.
            if getattr(exc, "metrics", None) is None:
                exc.metrics = run.metrics
            raise

    # -- internals ----------------------------------------------------------------

    def _assembly_cost(self, plan: FederatedPlan, root: LogicalPlan, values: tuple) -> float:
        """Simulated seconds of `root` run with `values`: the plan's estimate holds
        for every values tuple it serves (equal reads), but not for a root
        re-optimized in flight or under feedback, whose calibrations move under
        one plan."""
        cost = plan.est_cost
        if cost is None or root is not plan.root or (self.adaptive is not None and self.adaptive.policy.feedback):
            with self.planner.cost_model.memo_scope(values):
                cost = self.planner.cost_model.estimate(root).cost
        return cost * HUB_TIME_PER_COST_UNIT_S
