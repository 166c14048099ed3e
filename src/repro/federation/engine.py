"""Federated execution: parallel component fetches + assembly-site evaluation.

`FederatedEngine.query()` is a straight line of stages, each yielding a
`FederatedResult` or passing: canonicalize (+ strict-mode pre-flight) →
result cache → view answering → plan (plan cache, strict verification) →
admission → execute. Every answer, whichever stage produced it, leaves
through the one `_publish` epilogue: trace finish, result-cache admission,
telemetry, advisor feed. Execution prefetches the plan's component queries
in parallel, then evaluates the residual plan at the assembly site. Every
statement sent to a source — a whole fetch or one bind-join chunk — takes
the one path `_FetchRuntime._fetch_statement`: fetch-cache lookup, guarded
remote call (a `ResiliencePolicy` adds retries with backoff on the simulated
clock, per-source breakers and replica failover), degradation of failed
*non-essential* branches to an annotated partial result under
`partial_results` (see `FederatedResult.completeness`), and accounting with
the payload sized once. `attach_invalidation` subscribes the cache hierarchy
to an EAI broker so writes evict dependent entries.
"""

from __future__ import annotations

import threading
import time
from concurrent import futures
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.cache import CacheConfig, CacheHierarchy, canonical_statement, fetch_key
from repro.common.errors import (
    AdmissionError,
    EIIError,
    PlanError,
    SourceError,
    SourceTimeoutError,
)
from repro.common.relation import Relation
from repro.engine.executor import LocalEngine
from repro.engine.logical import LogicalJoin, LogicalPlan, LogicalUnion
from repro.federation.catalog import FederationCatalog
from repro.federation.config import EngineConfig
from repro.federation.nodes import LogicalBindJoin, LogicalFetch, with_in_filter
from repro.federation.planner import FederatedPlan, FederatedPlanner
from repro.federation.report import Report, counter_line
from repro.federation.resilience import (
    CompletenessReport,
    ResilienceManager,
    rename_statement_tables,
)
from repro.netsim.metrics import MetricsCollector
from repro.netsim.network import NetworkModel
from repro.sql.ast import Select, UnionSelect
from repro.sql.printer import to_sql
from repro.storage.catalog import Database
from repro.telemetry.plane import resolve_telemetry
from repro.trace import (
    NULL_TRACER,
    Tracer,
    explain_analyze,
    instrument_physical,
    makespan,
)

#: Simulated seconds per local cost unit at the assembly site.
HUB_TIME_PER_COST_UNIT_S = 2e-6


#: Elapsed time of running durations on N parallel slots: list scheduling in
#: submission order — the policy the thread pool uses — so the simulated
#: clock matches what the executor overlaps, and the one function the trace
#: layout uses, so a trace's elapsed time equals the engine's by construction.
parallel_makespan = makespan


@dataclass
class FederatedResult:
    """A federated query's answer plus its full execution accounting."""

    relation: Relation
    plan: FederatedPlan
    metrics: MetricsCollector
    fetch_seconds: list = field(default_factory=list)
    elapsed_seconds: float = 0.0  # simulated wall clock (parallelism-aware)
    from_cache: bool = False
    #: which sources answered / were skipped / were served stale; present
    #: whenever the engine ran with resilience or partial-results enabled
    completeness: Optional[CompletenessReport] = None
    #: breaker state per source at the end of execution (resilience only)
    breaker_states: dict = field(default_factory=dict)
    #: span tree for this execution (None unless a tracer was attached or
    #: the query ran with analyze=True)
    trace: Optional[object] = None
    #: the executed physical operator tree, retained (with per-operator
    #: actual row counts) only when tracing, for EXPLAIN ANALYZE
    physical: Optional[object] = None
    #: mid-query re-optimization report (`repro.adaptive.ReplanReport`);
    #: None when the plan survived its own actuals
    replan: Optional[object] = None
    #: view provenance (`repro.views.ViewProvenance`) when this result was
    #: answered from a materialized view instead of federating
    view: Optional[object] = None

    @property
    def is_partial(self) -> bool:
        return self.completeness is not None and not self.completeness.complete

    def report(self, analyze: bool = False) -> Report:
        """This result's execution account as a sectioned `Report`.

        The one rendering surface behind `explain()`/`explain_analyze()`:
        consumers needing a single facet (the replan verdict, view
        provenance, completeness) read the section by its stable name
        instead of string-scraping. Section names and order are documented
        in `repro.federation.report`.
        """
        report = Report()
        report.add("plan", self.plan.pretty())
        if self.replan is not None:
            report.add("replan", self.replan.describe(), self.replan.pretty())
        report.add("metrics", counter_line("metrics", self.metrics.base_summary()))
        for name, counters in (
            ("cache", self.metrics.cache_summary()),
            ("resilience", self.metrics.resilience_summary()),
            ("adaptive", self.metrics.adaptive_summary()),
            ("views", self.metrics.views_summary()),
        ):
            if any(counters.values()):
                report.add(name, counter_line(name, counters))
        if self.view is not None:
            report.add("views", self.view.describe())
        report.add("elapsed", f"simulated elapsed: {self.elapsed_seconds:.4f}s")
        if self.breaker_states:
            report.add(
                "breakers",
                "breakers: "
                + ", ".join(
                    f"{name}={state}"
                    for name, state in sorted(self.breaker_states.items())
                ),
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


def _statement_span(parent, category: str, node, sql, **attrs):
    """A child span for one component statement (None when not tracing)."""
    if parent is None:
        return None
    span = parent.child(
        f"{category}:{node.source.name}",
        category=category,
        source=node.source.name,
        **attrs,
        sql=to_sql(sql),
    )
    # Deterministic node tags tie spans to plan nodes (an id()-based key
    # would leak allocation order into the exported JSON).
    tag = getattr(node, "_trace_tag", None)
    if tag is not None:
        span.set(node=tag)
    return span


class _FetchRuntime:
    """Shared state the fetch/bind-join nodes use during one execution.

    `local` memoizes per-plan-node results within one execution (a node
    referenced twice runs once); the engine's cache hierarchy provides the
    *cross-query* fetch store keyed by `(source, canonical SQL)`. Remote
    calls funnel through `_remote_fetch`, which layers retries, breakers
    and replica failover around the raw source call when the engine has a
    resilience policy.
    """

    def __init__(self, engine: "FederatedEngine", metrics: MetricsCollector, site: str):
        self.engine = engine
        self.metrics = metrics
        self.site = site
        self.local: dict[int, Relation] = {}
        self.report: Optional[CompletenessReport] = None
        #: span for the assembly phase; bind-join chunk spans attach here
        #: (None when tracing is off — every trace call site guards on it)
        self.span = None

    # -- the guarded remote call -------------------------------------------------

    def _attempt(self, source, stmt, collector, description):
        """One attempt against one source: execute, ship, check the timeout.

        Runs on a private collector so a failed or timed-out attempt can be
        accounted without polluting `collector` with a half-recorded
        transfer; on success the private collector is merged in whole.
        Returns ``(relation, payload_bytes, attempt_simulated_seconds,
        source)`` — the payload is sized here, once, for every consumer.
        """
        local = MetricsCollector(network=collector.network)
        try:
            raw = source.execute_select(stmt, local)
        except EIIError:
            collector.merge(local)  # the failed round trip still took time
            raise
        size = raw.size_bytes()
        local.record_transfer(
            source.name,
            self.site,
            rows=len(raw),
            payload_bytes=size,
            wire_format=source.capabilities.wire_format,
            description=description,
        )
        manager = self.engine.resilience
        timeout = manager.policy.fetch_timeout_s if manager is not None else None
        if timeout is not None and local.simulated_seconds > timeout:
            # we "waited" until the deadline, then abandoned the attempt
            collector.charge_seconds(timeout)
            raise SourceTimeoutError(
                f"fetch from {source.name!r} exceeded the {timeout:.3f}s "
                f"timeout (attempt took {local.simulated_seconds:.3f}s simulated)",
                source=source.name,
                timeout_s=timeout,
            )
        collector.merge(local)
        return raw, size, local.simulated_seconds, source

    def _candidates(self, node, stmt):
        """The primary, then every replica source able to answer `stmt`."""
        yield node.source, stmt
        manager = self.engine.resilience
        if manager is None or not manager.policy.failover or not node.tables:
            return
        catalog = self.engine.catalog
        for source, mapping in catalog.failover_candidates(
            node.source.name, node.tables
        ):
            rename = {}
            for global_name in node.tables:
                primary_local = catalog.entry(global_name).local_name.lower()
                rename[primary_local] = mapping[global_name]
            yield source, rename_statement_tables(stmt, rename)

    def _remote_fetch(self, node, stmt, collector, description, span=None):
        """Execute `stmt` with retries/breaker/failover per the policy.

        Returns ``(relation, payload_bytes, cost_seconds, source_used)``;
        raises the last candidate's error when every access path is exhausted.
        """
        # The per-source limiter (when attached) bounds how many pool
        # workers may sit inside one source's round trips at a time, so a
        # slow source queues its own callers instead of monopolizing the
        # whole prefetch pool. Simulated time is unaffected — the limiter
        # shapes wall-clock thread concurrency only.
        limiter = self.engine.config.source_limiter
        guard = (
            limiter.slot(node.source.name) if limiter is not None else nullcontext()
        )
        with guard:
            manager = self.engine.resilience
            if manager is None:
                return self._attempt(node.source, stmt, collector, description)
            last_error: Optional[Exception] = None
            for index, (source, candidate_stmt) in enumerate(
                self._candidates(node, stmt)
            ):
                try:
                    answer = manager.run_guarded(
                        source.name,
                        lambda s=source, q=candidate_stmt: self._attempt(
                            s, q, collector, description
                        ),
                        collector,
                        span=span,
                    )
                except SourceError as exc:
                    last_error = exc
                    continue
                if index > 0:
                    collector.failovers += 1
                    if span is not None:
                        span.set(failover_to=source.name)
                        span.event(
                            "failover", span.offset_from(collector), source=source.name
                        )
                return answer
            assert last_error is not None
            raise last_error

    def _degrade(self, node, error, collector, kind, est_rows, span=None) -> bool:
        """Record a skipped non-essential branch; True when degradation applies."""
        if not (
            self.engine.config.partial_results and getattr(node, "degradable", False)
        ):
            return False
        collector.degraded_fetches += 1
        if span is not None:
            span.set(degraded=True)
            span.event(
                "degraded", span.offset_from(collector), kind=kind, error=str(error)
            )
        if self.report is not None:
            self.report.note_skipped(
                node.source.name, node.tables, error, est_rows, kind
            )
        return True

    def _note_stale_if_down(self, node, collector, span=None) -> None:
        """Annotate a cache hit whose every access path is currently down.

        A fetch served from cache never touches a breaker — but when the
        primary's breaker is open and no replica could answer either, the
        caller must know this answer *cannot currently be re-validated*.
        """
        manager = self.engine.resilience
        if manager is None or not manager.source_down(node.source.name):
            return
        if manager.policy.failover:
            for source, _ in self.engine.catalog.failover_candidates(
                node.source.name, node.tables
            ):
                if not manager.source_down(source.name):
                    return
        collector.stale_cache_hits += 1
        if span is not None:
            span.event("cache.stale_hit", span.offset_from(collector))
        if self.report is not None:
            self.report.note_stale(node.tables or node.depends_on)

    # -- fetch / bind-fetch ------------------------------------------------------

    def _fetch_statement(
        self, node, stmt, collector, span, description, kind, est_rows, keys=None
    ) -> list:
        """Answer one component statement, from the fetch cache or remotely.

        The only path a statement takes to a source: `fetch` sends a node's
        whole statement, `bind_fetch` one IN-list chunk of ``keys`` keys.
        Returns the raw rows — none when a non-essential branch degraded.
        ``est_rows``, the share of the node's estimate this statement stands
        for, weighs the completeness report whichever way it ends; `span`
        is charged whatever the statement adds to `collector`.
        """
        if span is not None:
            span.clock_base = base_seconds = collector.simulated_seconds
            base_rows = collector.rows_shipped
            base_payload = collector.payload_bytes
            base_wire = collector.wire_bytes
        try:
            engine = self.engine
            telemetry = engine.telemetry
            primary = node.source.name
            caching = engine.cache.fetches is not None
            key = fetch_key(primary, stmt) if caching else None
            entry = engine.cache.get_fetch(key) if caching else None
            if entry is not None:
                rows, answered_by = entry.value.rows, primary  # only it is cached
                size, seconds = entry.size_bytes, entry.cost_seconds
                collector.fetch_cache_hits += 1
                collector.cache_seconds_saved += seconds
                collector.cache_bytes_saved += size
                if telemetry.enabled:
                    telemetry.on_fetch(primary, cache="hit")
                if span is not None:
                    span.set(cache="hit")
                    span.event(
                        "cache.hit",
                        span.offset_from(collector),
                        seconds_saved=seconds,
                        bytes_saved=size,
                    )
                self._note_stale_if_down(node, collector, span)
            else:
                if caching:
                    collector.fetch_cache_misses += 1
                    if span is not None:
                        span.set(cache="miss")
                    if telemetry.enabled:
                        telemetry.on_fetch(primary, cache="miss")
                try:
                    raw, size, seconds, source_used = self._remote_fetch(
                        node, stmt, collector, description, span
                    )
                except EIIError as exc:
                    if telemetry.enabled and engine.resilience is None:
                        # with a resilience manager, per-attempt failures are
                        # already reported through its own hooks
                        telemetry.on_fetch(primary, ok=False)
                    if self._degrade(node, exc, collector, kind, est_rows, span):
                        return []  # this branch's rows are lost, not the query
                    raise
                rows, answered_by = raw.rows, source_used.name
                if telemetry.enabled:
                    telemetry.on_fetch(
                        answered_by, seconds=seconds, payload_bytes=size
                    )
                # Only a primary-served fetch is cached: the entry's key and tags
                # describe the primary, and a replica answer must not mask it.
                if caching and source_used is node.source:
                    engine.cache.put_fetch(
                        key, raw, size, tags=node.depends_on, cost_seconds=seconds
                    )
            if self.report is not None:
                self.report.note_answered(answered_by, est_rows)
            adaptive = engine.adaptive
            if adaptive is not None:
                # A cache hit is still a true cardinality observation.
                from_cache = entry is not None
                if keys is None:
                    adaptive.observe_fetch(
                        node, rows=len(rows), payload_bytes=size,
                        seconds=seconds, from_cache=from_cache,
                    )
                else:
                    adaptive.observe_bind_chunk(
                        node, keys=keys, rows=len(rows), payload_bytes=size,
                        seconds=seconds, from_cache=from_cache,
                    )
            return rows
        finally:
            if span is not None:
                span.self_seconds = collector.simulated_seconds - base_seconds
                span.set(
                    rows=collector.rows_shipped - base_rows,
                    payload_bytes=collector.payload_bytes - base_payload,
                    wire_bytes=collector.wire_bytes - base_wire,
                )

    def fetch(
        self,
        node: LogicalFetch,
        metrics: Optional[MetricsCollector] = None,
        span=None,
    ) -> Relation:
        cached = self.local.get(id(node))
        if cached is not None:
            return cached
        collector = metrics if metrics is not None else self.metrics
        rows = self._fetch_statement(
            node, node.stmt, collector, span,
            f"fetch from {node.source.name}", "fetch", node.est_rows,
        )
        # Relabel positionally: the residual plan resolves against the
        # schema of the subtree the fetch replaced.
        result = Relation(node.schema, rows)
        self.local[id(node)] = result
        return result

    def bind_fetch(self, node: LogicalBindJoin, keys: list) -> Relation:
        rows: list[tuple] = []
        for chunk_index, start in enumerate(range(0, len(keys), node.max_inlist)):
            chunk = keys[start : start + node.max_inlist]
            stmt = with_in_filter(node.template, node.right_key, chunk)
            span = _statement_span(
                self.span, "bind_fetch", node, node.template,
                chunk=chunk_index, keys=len(chunk),
            )
            rows.extend(
                self._fetch_statement(
                    node, stmt, self.metrics, span,
                    f"bind fetch from {node.source.name} ({len(chunk)} keys)",
                    "bind_chunk",
                    # the node's estimate, split by this chunk's key share
                    node.est_rows * (len(chunk) / len(keys)),
                    keys=len(chunk),
                )
            )
        return Relation(node.fetch_schema, rows)


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
        #: adaptive execution (cardinality feedback, mid-query replanning,
        #: LPT prefetch scheduling); None keeps the static engine — every
        #: adaptive code path is gated on this, so the default is
        #: byte-identical to the pre-adaptive behavior
        self.adaptive = self._resolve_adaptive(config.adaptive)
        if self.adaptive is not None and self.adaptive.policy.feedback:
            from repro.adaptive import FeedbackCostModel

            self.planner.cost_model = FeedbackCostModel(
                self.adaptive.store, catalog
            )
        #: Default hierarchy: plan caching on (pure win — plans depend only
        #: on the schema); fetch and result levels off, so repeated queries
        #: observably re-hit sources unless the caller passes a hierarchy.
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
        self._analyzer = None
        #: the prefetch pool: started by the first multi-fetch query, kept
        #: until `close()` (idle workers also exit once the engine is garbage)
        self._pool: Optional[futures.ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._scratch = Database("assembly")
        self._local = LocalEngine(self._scratch, optimize=False)
        self.tracer = NULL_TRACER
        self.set_tracer(config.tracer)
        #: observe-only telemetry plane; the no-op default keeps execution
        #: byte-identical to an engine without telemetry (same contract as
        #: `NULL_TRACER` — every call site guards on ``telemetry.enabled``)
        self.telemetry = resolve_telemetry(config.telemetry)
        if self.telemetry.enabled:
            if self.telemetry.clock is None:
                # windows roll on the engine's (usually simulated) clock
                self.telemetry.clock = clock
                self.telemetry.series.clock = clock
            if self.resilience is not None:
                self.resilience.attach_telemetry(self.telemetry)
        #: answering queries using views: a `ViewManager` (engine-owned by
        #: default) plus the matcher; both None when views are off, keeping
        #: the query path byte-identical to the view-less engine
        self.views = self._resolve_views(config.views, config.auto_materialize)
        self.view_selector = self._resolve_selector(config.auto_materialize)
        if self.views is not None:
            from repro.views.answering import ViewAnswering
            from repro.views.catalog import ServePolicy

            self._answering = ViewAnswering(
                self, config.view_policy or ServePolicy()
            )
        else:
            self._answering = None

    def _resolve_views(self, views, auto_materialize):
        """Accept a `ViewManager`, True, or None (implied on by the advisor).

        Imported lazily like `repro.analysis`/`repro.adaptive` — the views
        package pulls in the local executor, which this module must not
        import at class-definition time.
        """
        if views is None or views is False:
            if not auto_materialize:
                return None
            views = True
        if views is True:
            from repro.views.manager import ViewManager

            return ViewManager(self)
        return views

    def _resolve_selector(self, auto_materialize):
        """Accept a `ViewSelector`, a byte budget, True, or None."""
        if auto_materialize is None or auto_materialize is False:
            return None
        from repro.advisor.selector import ViewSelector

        if auto_materialize is True:
            return ViewSelector(self)
        if isinstance(auto_materialize, (int, float)):
            return ViewSelector(self, byte_budget=int(auto_materialize))
        if isinstance(auto_materialize, ViewSelector):
            auto_materialize.attach(self)
            return auto_materialize
        raise PlanError(
            f"auto_materialize must be a ViewSelector, byte budget or bool, "
            f"got {type(auto_materialize).__name__}"
        )

    @staticmethod
    def _resolve_adaptive(adaptive):
        """Accept an `AdaptiveContext`, an `AdaptivePolicy`, True, or None.

        Imported lazily (like `repro.analysis`): the adaptive package
        imports federation planner/nodes at module level, so a top-level
        import here would be circular.
        """
        if adaptive is None or adaptive is False:
            return None
        from repro.adaptive import AdaptiveContext, AdaptivePolicy

        if isinstance(adaptive, AdaptiveContext):
            return adaptive
        if isinstance(adaptive, AdaptivePolicy):
            return AdaptiveContext(adaptive)
        if adaptive is True:
            return AdaptiveContext()
        raise PlanError(
            f"adaptive must be an AdaptiveContext, AdaptivePolicy or bool, "
            f"got {type(adaptive).__name__}"
        )

    def close(self) -> None:
        """Stop the prefetch workers (a later query starts new ones)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "FederatedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _prefetch_pool(self) -> futures.ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = futures.ThreadPoolExecutor(
                    max_workers=self.parallel_workers,
                    thread_name_prefix="eii-prefetch",
                )
            return self._pool

    def set_tracer(self, tracer) -> None:
        """Attach a `Tracer` (or None for the zero-cost no-op default)."""
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.cache.tracer = self.tracer if self.tracer.enabled else None

    # -- public -----------------------------------------------------------------

    def query(
        self,
        query: Union[str, Select, LogicalPlan],
        analyze: bool = False,
        use_views: bool = True,
    ) -> FederatedResult:
        """Plan and execute a federated query (cache- and admission-aware).

        With ``analyze=True`` the execution is traced even when the engine
        has no tracer attached, so `FederatedResult.explain_analyze()` can
        render the per-node actuals for this one query.

        When the engine has views enabled, a SELECT subsumed by a fresh
        materialized view is answered from the view's rows (zero network;
        see `repro.views.answering`); ``use_views=False`` forces base
        federation — view refresh itself runs this way, and the bench
        differential oracle uses it as the ground truth.
        """
        tracer = self.tracer
        if analyze and not tracer.enabled:
            tracer = Tracer(keep=1)
        statement, canonical = self._canonicalize(query)
        trace = tracer.begin("query", sql=canonical)
        if self.config.validate and not isinstance(statement, LogicalPlan):
            # strict pre-flight: an infeasible query never reaches a cache
            self._raise_unless_ok(
                self._get_analyzer().analyze(
                    statement, query if isinstance(query, str) else None
                )
            )
        # The result level keeps its historical contract: only *textual*
        # queries are served whole from cache (now under the canonical key,
        # so reformatted spellings of one query share an entry).
        result_key = canonical if isinstance(query, str) else None
        result = self._cached_result(result_key)
        view_fallbacks: list = []
        if result is None and use_views and self._answering is not None:
            result, view_fallbacks = self._view_result(statement)
        if result is None:
            plan, plan_was_cached = self._plan(statement, canonical, trace)
            self._admit(plan)
            try:
                result = self.execute_plan(plan, trace=trace)
            except EIIError:
                self._observe_query("error")
                raise
            if plan_was_cached:
                result.metrics.plan_cache_hits += 1
        return self._publish(
            result, trace, tracer, result_key, view_fallbacks,
            advisor_key=canonical if use_views else None,
        )

    # -- query stages (each yields a FederatedResult or None) ----------------------

    @staticmethod
    def _canonicalize(query) -> tuple:
        """``(statement, canonical SQL)``; rejects anything but a SELECT."""
        statement, canonical = canonical_statement(query)
        if not isinstance(statement, (Select, UnionSelect, LogicalPlan)):
            raise PlanError("federated queries must be SELECT statements")
        return statement, canonical

    def _cached_result(self, result_key) -> Optional[FederatedResult]:
        hit = self.cache.get_result(result_key)  # a None key never hits
        if hit is None:
            return None
        return FederatedResult(
            hit.relation,
            hit.plan,
            hit.metrics,
            hit.fetch_seconds,
            elapsed_seconds=0.0,
            from_cache=True,
            completeness=hit.completeness,
        )

    def _view_result(self, statement) -> tuple:
        """Answer from a materialized view: ``(result | None, fallbacks)``.

        ``fallbacks`` names views that matched but were too dirty/stale to
        serve; they count only when the query goes on to live federation.
        Accounting of an answer: a local scan of the view's rows at the hub
        plus the hub→client transfer — no source queries, no federation
        bytes.
        """
        from repro.views.answering import ViewProvenance

        answer, fallbacks = self._answering.try_answer(statement)
        if answer is None:
            return None, fallbacks
        metrics = MetricsCollector(network=self.network)
        if answer.fresh:
            metrics.view_hits += 1
        else:
            metrics.view_stale_serves += 1
        scan_seconds = answer.rows_scanned * HUB_TIME_PER_COST_UNIT_S
        metrics.charge_seconds(scan_seconds)
        payload_bytes = answer.relation.size_bytes()
        transfer_seconds = metrics.record_transfer(
            "hub",
            "client",
            rows=len(answer.relation),
            payload_bytes=payload_bytes,
            description=f"view answer from {answer.view}",
        )
        plan = FederatedPlan(
            root=answer.plan,
            fetches=[],
            bind_joins=[],
            assembly_site="hub",
            est_result_rows=float(len(answer.relation)),
            est_result_bytes=payload_bytes,
        )
        result = FederatedResult(
            answer.relation,
            plan,
            metrics,
            fetch_seconds=[],
            elapsed_seconds=scan_seconds + transfer_seconds,
            view=ViewProvenance(
                answer.view, answer.kind, answer.staleness_s, answer.fresh,
                answer.tables,
            ),
        )
        return result, []

    def _plan(self, statement, canonical, trace) -> tuple:
        """``(plan, was_cached)`` through the plan cache, verified if strict."""
        if trace is not None:
            trace.root.child("parse", category="parse", sql=canonical)
        plan, plan_was_cached = self._plan_for(statement, canonical)
        if trace is not None:
            trace.root.child(
                "plan",
                category="plan",
                cached=plan_was_cached,
                assembly_site=plan.assembly_site,
                fetches=len(plan.fetches),
                bind_joins=len(plan.bind_joins),
            )
        if self.config.validate:
            self._raise_unless_ok(self._get_analyzer().verify(plan))
        return plan, plan_was_cached

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

    def _publish(
        self, result, trace, tracer, result_key, view_fallbacks, advisor_key
    ) -> FederatedResult:
        """The one epilogue of `query()`, whichever stage answered: close the
        trace, admit to the result cache, then feed telemetry and the advisor."""
        rows = len(result.relation)
        view = result.view
        if trace is not None:
            if result.from_cache:
                trace.root.set(result_cache="hit", rows=rows)
                trace.root.event("cache.result_hit")
            else:
                how = (
                    {"partial": result.is_partial}
                    if view is None
                    else {"view": view.view, "view_fresh": view.fresh}
                )
                trace.root.set(rows=rows, elapsed_s=result.elapsed_seconds, **how)
            tracer.finish(trace)
            result.trace = trace
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
                # the hub→client transfer every execution ends with
                size_bytes=result.metrics.transfers[-1].payload_bytes,
                cost_seconds=result.elapsed_seconds,
            )
        telemetry = self.telemetry
        if view_fallbacks:
            result.metrics.view_fallbacks += len(view_fallbacks)
            for name in view_fallbacks:  # a no-op plane when telemetry is off
                telemetry.on_view(name, "fallback")
        if view is not None and telemetry.enabled:
            telemetry.on_view(
                view.view,
                "hit" if view.fresh else "stale",
                staleness_s=view.staleness_s,
            )
        status = (
            "cached" if result.from_cache
            else "partial" if result.is_partial
            else "ok"
        )
        self._observe_query(status, result.elapsed_seconds, rows)
        if self.view_selector is not None and advisor_key is not None:
            if view is not None:
                self.view_selector.observe_hit(view.view)
            elif not result.from_cache:
                self.view_selector.observe(advisor_key, result)
                self.view_selector.maintain()
        return result

    def _observe_query(self, status: str, seconds: float = 0.0, rows: int = 0) -> None:
        """Report one finished query to the telemetry plane and roll its windows."""
        if self.telemetry.enabled:
            self.telemetry.on_query(status, seconds=seconds, rows=rows)
            self.telemetry.tick(self.clock())

    def prepare(self, query: Union[str, Select, LogicalPlan]) -> FederatedPlan:
        """Plan a query — through the plan cache — without executing it.

        The workload scheduler uses this for admission control: combined
        with `predict_elapsed` it prices a queued query before any byte is
        shipped. The plan landing in the cache here is the very plan a
        later `query()` call reuses, so preparing is never wasted work.
        """
        plan, _ = self._plan_for(*self._canonicalize(query))
        return plan

    def _plan_for(self, statement, canonical) -> "tuple[FederatedPlan, bool]":
        """Cached-plan lookup + (re)planning; returns (plan, was_cached)."""
        plan = self.cache.get_plan(canonical)
        if (
            plan is not None
            and self.adaptive is not None
            and self.adaptive.policy.feedback
            and plan.feedback_generation != self.adaptive.generation
        ):
            # Calibrations moved since this plan was built: replan so the
            # cache never serves an ordering the feedback already disowned.
            plan = None
        was_cached = plan is not None
        if plan is None:
            plan = self.planner.plan(statement)
            if self.adaptive is not None and self.adaptive.policy.feedback:
                plan.feedback_generation = self.adaptive.generation
            self.cache.put_plan(canonical, plan)
        return plan, was_cached

    def attach_invalidation(self, broker) -> None:
        """Evict dependent cache entries on `table.<name>.changed` events."""
        self.cache.attach(broker)
        if self.adaptive is not None:
            # Calibrations describe table contents, so they expire with them.
            self.adaptive.attach(broker)
        if self.views is not None:
            # Dirty-mark dependent materialized views dynamically (covers
            # views defined after attachment, e.g. advisor-created ones).
            def on_change(message):
                table = message.payload.get("table")
                if table:
                    self.views.on_table_changed(table)

            broker.subscribe("table.*.changed", on_change)

    def predict_elapsed(self, plan: FederatedPlan) -> float:
        """Pre-execution prediction of simulated elapsed seconds.

        Sums per-fetch predictions (source overhead + estimated execution +
        estimated transfer to the assembly site), list-schedules them over
        the worker pool, and adds assembly compute plus the final transfer.
        """
        # lazy like every adaptive import: that package imports this one
        from repro.adaptive.scheduler import static_fetch_seconds

        site = plan.assembly_site
        fetch_predictions = [
            static_fetch_seconds(fetch, fetch.est_rows, self.network, site)
            for fetch in plan.fetches
        ]
        elapsed = parallel_makespan(fetch_predictions, self.parallel_workers)
        elapsed += self._assembly_cost(plan.root)
        elapsed += self.network.transfer_seconds(site, "client", plan.est_result_bytes)
        for bind in plan.bind_joins:
            caps = bind.source.capabilities
            elapsed += (
                caps.per_query_overhead_s + bind.est_rows * caps.time_per_cost_unit_s
            )
        return elapsed

    def explain(self, query: Union[str, Select, LogicalPlan]) -> str:
        plan = self.planner.plan(query)
        report = Report()
        report.add("plan", plan.pretty())
        try:
            statement, _ = canonical_statement(query)
            analysis = self._get_analyzer().analyze(
                statement, query if isinstance(query, str) else None
            )
            analysis.extend(self._get_analyzer().verify(plan).diagnostics)
        except EIIError:
            analysis = None
        if analysis is not None and len(analysis):
            report.add(
                "diagnostics", "diagnostics:", *(f"  {d.render()}" for d in analysis)
            )
        return report.render()

    def _get_analyzer(self):
        # imported lazily: repro.analysis imports federation plan nodes, so
        # a module-level import here would be circular
        if self._analyzer is None:
            from repro.analysis import QueryAnalyzer

            self._analyzer = QueryAnalyzer(catalog=self.catalog)
        return self._analyzer

    def _raise_unless_ok(self, report) -> None:
        """Strict mode: reject on analyzer findings with zero bytes shipped."""
        from repro.analysis import AnalysisError

        if not report.ok:
            raise AnalysisError(
                report, metrics=MetricsCollector(network=self.network)
            )

    def execute_plan(self, plan: FederatedPlan, trace=None) -> FederatedResult:
        owns_trace = False
        if trace is None and self.tracer.enabled:
            # direct execute_plan() callers still get traced
            trace = self.tracer.begin("execute_plan")
            owns_trace = True
        metrics = MetricsCollector(network=self.network)
        try:
            result = self._execute_plan(plan, metrics, trace)
        except EIIError as exc:
            # Attach the partial accounting so callers (benchmarks, tests)
            # can observe how many bytes a failed query shipped before dying.
            if getattr(exc, "metrics", None) is None:
                exc.metrics = metrics
            raise
        if owns_trace and trace is not None:
            trace.root.set(
                rows=len(result.relation), elapsed_s=result.elapsed_seconds
            )
            self.tracer.finish(trace)
        return result

    def _execute_plan(
        self, plan: FederatedPlan, metrics: MetricsCollector, trace=None
    ) -> FederatedResult:
        runtime = _FetchRuntime(self, metrics, plan.assembly_site)
        if self.resilience is not None or self.config.partial_results:
            runtime.report = CompletenessReport()
        if self.config.partial_results:
            _mark_degradable(plan.root, False)
        for node in plan.root.walk():
            if isinstance(node, (LogicalFetch, LogicalBindJoin)):
                node.runtime = runtime

        execute_span = fetch_span = None
        if trace is not None:
            execute_span = trace.root.child("execute", category="execute")
            for i, fetch_node in enumerate(plan.fetches):
                fetch_node._trace_tag = f"fetch[{i}]"
            for j, bind_node in enumerate(plan.bind_joins):
                bind_node._trace_tag = f"bind[{j}]"
            fetch_span = execute_span.child(
                "prefetch",
                category="prefetch",
                parallel_slots=self.parallel_workers,
            )
        fetch_seconds = self._prefetch(plan.fetches, runtime, metrics, fetch_span)
        fetch_elapsed = parallel_makespan(fetch_seconds, self.parallel_workers)

        # Mid-query re-optimization: the prefetched relations carry actual
        # cardinalities; when they contradict the estimates badly enough,
        # rebuild the assembly tree above the (identity-preserved,
        # already-materialized) fetches before lowering it.
        root = plan.root
        replan_report = None
        if self.adaptive is not None and self.adaptive.policy.replan:
            from repro.adaptive import maybe_replan

            replan_report = maybe_replan(
                plan, runtime, self.planner, self.adaptive.policy.replan_threshold
            )
            if replan_report is not None:
                root = replan_report.root
                for node in root.walk():
                    if isinstance(node, (LogicalFetch, LogicalBindJoin)):
                        node.runtime = runtime
                metrics.replans += 1
                if execute_span is not None:
                    execute_span.event(
                        "plan.reoptimized",
                        execute_span.offset_from(metrics),
                        worst_ratio=round(replan_report.worst_ratio, 3),
                        threshold=replan_report.threshold,
                        converted_bind_joins=replan_report.converted_bind_joins,
                    )

        after_fetch_work = metrics.simulated_seconds
        assembly_span = None
        if execute_span is not None:
            assembly_span = execute_span.child(
                "assembly", category="assembly", site=plan.assembly_site
            )
            runtime.span = assembly_span  # bind-join chunk spans attach here
        physical = self._local.lower(root)
        if execute_span is not None:
            instrument_physical(physical)
        relation = physical.relation()
        # Bind joins and any late fetches executed serially during assembly.
        serial_tail = metrics.simulated_seconds - after_fetch_work

        assembly_seconds = self._assembly_cost(root)
        metrics.charge_seconds(assembly_seconds)

        final_transfer = metrics.record_transfer(
            plan.assembly_site,
            "client",
            rows=len(relation),
            payload_bytes=relation.size_bytes(),
            description="final result to client",
        )
        if execute_span is not None:
            assembly_span.self_seconds = assembly_seconds
            shipped = metrics.transfers[-1]  # the record just made
            transfer_span = execute_span.child(
                "final_transfer",
                category="transfer",
                rows=shipped.rows,
                payload_bytes=shipped.payload_bytes,
                wire_bytes=shipped.wire_bytes,
            )
            transfer_span.self_seconds = final_transfer
        elapsed = fetch_elapsed + serial_tail + assembly_seconds + final_transfer
        result = FederatedResult(
            relation, plan, metrics, fetch_seconds, elapsed,
            completeness=runtime.report, replan=replan_report,
        )
        if self.resilience is not None:
            result.breaker_states = self.resilience.breaker_states()
        if trace is not None:
            result.trace = trace
            result.physical = physical
        return result

    # -- internals ----------------------------------------------------------------

    def _prefetch(
        self, fetches: list, runtime: _FetchRuntime, metrics, parent_span=None
    ) -> list:
        """Run component queries concurrently; returns per-fetch sim seconds.

        Failure discipline: when any fetch fails, not-yet-started tasks are
        cancelled, in-flight tasks are joined, every completed task's
        metrics are merged, and the *first failure in submission order* is
        raised — so a multi-fetch failure is deterministic and no work is
        left running behind the caller's back.
        """
        durations: list[float] = []
        if not fetches:
            return durations

        if (
            self.adaptive is not None
            and self.adaptive.policy.lpt
            and len(fetches) > 1
        ):
            # Longest-predicted-first submission: list scheduling charges
            # each slot in submission order, so fronting the predicted
            # stragglers lowers the makespan on skewed fetch sets. The
            # reorder happens before span creation — submission order (and
            # therefore the trace) stays a pure function of plan + store.
            reordered = self.adaptive.lpt_order(fetches, self.network, runtime.site)
            if reordered != fetches:
                metrics.lpt_reorders += 1
            fetches = reordered

        # Spans are created on this thread in submission order (so the trace
        # is deterministic regardless of completion order); each worker only
        # ever touches its own span.
        spans = [
            _statement_span(parent_span, "fetch", node, node.stmt) for node in fetches
        ]

        def run_one(node: LogicalFetch, span=None):
            local = MetricsCollector(network=self.network)
            error = None
            try:
                runtime.fetch(node, metrics=local, span=span)
            except Exception as exc:  # noqa: BLE001 - re-raised in order below
                error = exc
            return local, error

        outcomes: list = []
        if self.parallel_workers == 1 or len(fetches) == 1:
            for node, span in zip(fetches, spans):
                outcome = run_one(node, span)
                outcomes.append(outcome)
                if outcome[1] is not None:
                    break  # serial mode: fail fast, later fetches never start
        else:
            pool = self._prefetch_pool()
            tasks = [
                pool.submit(run_one, node, span) for node, span in zip(fetches, spans)
            ]
            pending = set(tasks)
            while pending:
                done, pending = futures.wait(
                    pending, return_when=futures.FIRST_COMPLETED
                )
                if any(task.result()[1] is not None for task in done):
                    for task in pending:
                        task.cancel()
                    # join every in-flight task; a cancelled one counts as
                    # done once a worker has discarded it
                    futures.wait(pending)
                    break
            outcomes = [task.result() for task in tasks if not task.cancelled()]

        first_error: Optional[Exception] = None
        for local, error in outcomes:
            metrics.merge(local)
            if error is not None:
                if first_error is None:
                    first_error = error
            else:
                durations.append(local.simulated_seconds)
        if first_error is not None:
            raise first_error
        return durations

    def _assembly_cost(self, root: LogicalPlan) -> float:
        estimate = self.planner.cost_model.estimate(root)
        return estimate.cost * HUB_TIME_PER_COST_UNIT_S


def _mark_degradable(node: LogicalPlan, degradable: bool) -> None:
    """Mark which remote branches may degrade under `partial_results`.

    A branch is non-essential when dropping it cannot fabricate wrong rows,
    only miss some: an arm of a UNION ALL, or anything on the nullable side
    of a LEFT join (including the probed side of a LEFT bind join). Inner
    joins, aggregates' only input, and the driver side stay essential —
    failing them fails the query.
    """
    if isinstance(node, LogicalFetch):
        node.degradable = degradable
        return
    if isinstance(node, LogicalBindJoin):
        node.degradable = degradable or node.kind == "LEFT"
        _mark_degradable(node.left, degradable)
        return
    if isinstance(node, LogicalUnion):
        for child in node.children:
            _mark_degradable(child, True)
        return
    if isinstance(node, LogicalJoin):
        _mark_degradable(node.left, degradable)
        _mark_degradable(node.right, degradable or node.kind == "LEFT")
        return
    for child in node.children:
        _mark_degradable(child, degradable)
