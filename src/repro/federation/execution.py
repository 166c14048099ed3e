"""One execution of one plan: its context, and the one writer of its facts.

A `FederatedPlan` is a value — the plan cache hands the same object to every
caller, on every thread — so nothing after planning assigns to a plan node.
What one run of one plan needs lives in an `Execution`: collector, assembly
site, per-node result memo, completeness report, the branches that may
degrade under `partial_results`, and the record of what it did. It is
handed to `FetchOp` / `BindJoinOp` when the assembly plan is lowered, and
every statement sent to a source — a whole fetch or one bind-join chunk —
takes its one path, `Execution._fetch_statement`.

Each runtime fact is recorded once, by the `Recorder` method named after it,
which updates every observer that keeps the fact — `MetricsCollector`, the
engine's per-source record (``engine.scoreboard``), telemetry plane
(DESIGN.md tabulates fact × observer; the plane reads source facts from the
record). A recorder is bound to one scope: the collector being written (each
prefetched fetch has its own), the record and the plane (the no-op plane
when off). Scoped to one statement it is that statement's record, kept by
the `Execution`; a query's span tree is built from the records when it ends
(`repro.trace.build`), so the query path writes no span.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import chain
from typing import Optional, Sequence

from repro.cache import fetch_key
from repro.common.errors import EIIError, SourceError, SourceTimeoutError
from repro.common.relation import Relation
from repro.engine.logical import LogicalJoin, LogicalPlan, LogicalUnion
from repro.federation.nodes import LogicalBindJoin, LogicalFetch
from repro.federation.resilience import CompletenessReport, rename_statement_tables
from repro.netsim.metrics import MetricsCollector
from repro.sql.shape import Bound, params_in, with_in_filter
from repro.telemetry.plane import NULL_TELEMETRY
from repro.trace.span import Event


class Recorder:
    """Writes each runtime fact once, to every observer that reads it; scoped to
    one statement (its plan `node`, and a bind join's `chunk` and `keys`), it
    keeps what it wrote as that statement's record, which the trace reads."""

    __slots__ = (
        "collector", "telemetry", "scoreboard", "base", "events", "node", "chunk",
        "keys", "seconds", "rows", "payload_bytes", "wire_bytes", "cache",
        "failover_to", "was_degraded",
    )

    def __init__(
        self, collector, telemetry=NULL_TELEMETRY, scoreboard=None,
        node=None, chunk=None, keys=None,
    ):
        self.collector = collector
        self.telemetry = telemetry
        self.scoreboard = scoreboard  # None where no source fact is written
        self.base = 0.0  # the collector's seconds when the statement began
        self.events: list = []
        self.node, self.chunk, self.keys = node, chunk, keys
        self.failover_to, self.was_degraded = None, False

    def scoped(self, collector, node, chunk=None, keys=None) -> "Recorder":
        """The recorder, and record, of one statement of `node`."""
        return Recorder(collector, self.telemetry, self.scoreboard, node, chunk, keys)

    def _event(self, name: str, **attrs) -> None:
        self.events.append(Event(name, self.collector.simulated_seconds - self.base, attrs))

    # -- one component statement ---------------------------------------------------

    def cache_hit(self, seconds: float, size: int) -> None:
        collector = self.collector
        collector.fetch_cache_hits += 1
        collector.cache_seconds_saved += seconds
        collector.cache_bytes_saved += size
        self._event("cache.hit", seconds_saved=seconds, bytes_saved=size)

    def cache_miss(self) -> None:
        self.collector.fetch_cache_misses += 1

    def remote_failure(self, source: str) -> None:
        self.scoreboard.count(source, "failures")

    def statement_finished(self, source: str, base: tuple, cache, answer) -> None:
        """One component statement ended: what it added to the collector since
        `base` (its seconds, rows, payload and wire bytes then) and its
        fetch-cache outcome (None with no fetch cache) are its record and, with
        its remote answer ``(source, seconds, size)``, go to the source record.
        The collector read the answer's transfer itself (`Execution._attempt`)."""
        collector = self.collector
        self.seconds = seconds = collector.simulated_seconds - base[0]
        self.rows = rows = collector.rows_shipped - base[1]
        self.payload_bytes = payload_bytes = collector.payload_bytes - base[2]
        self.wire_bytes = wire_bytes = collector.wire_bytes - base[3]
        self.cache = cache
        self.scoreboard.statement(
            source, seconds, rows, payload_bytes, wire_bytes, cache, answer
        )

    def stale_hit(self) -> None:
        self.collector.stale_cache_hits += 1
        self._event("cache.stale_hit")

    def degraded(self, kind: str, error: Exception) -> None:
        self.collector.degraded_fetches += 1
        self.was_degraded = True
        self._event("degraded", kind=kind, error=str(error))

    def failover(self, source: str) -> None:
        self.collector.failovers += 1
        self.failover_to = source
        self._event("failover", source=source)

    # -- the guarded call (`ResilienceManager.run_guarded`) ------------------------

    def breaker_short_circuit(self, source: str) -> None:
        self.collector.breaker_short_circuits += 1
        self.scoreboard.count(source, "short_circuits")
        self._event("breaker.open", source=source)

    def source_failure(self, source: str, attempt: int, error: Exception) -> None:
        self.collector.source_failures += 1
        self.scoreboard.count(source, "failures")
        self._event("source_failure", source=source, attempt=attempt, error=str(error))

    def retry(self, source: str, attempt: int, delay: float) -> None:
        collector = self.collector
        collector.retries += 1
        collector.backoff_seconds += delay
        collector.charge_seconds(delay)
        self.scoreboard.count(source, "retries")
        self._event("retry", source=source, attempt=attempt, backoff_s=delay)

    # -- one execution, one query --------------------------------------------------

    def replanned(self, report) -> None:
        self.collector.replans += 1
        self._event(
            "plan.reoptimized", worst_ratio=round(report.worst_ratio, 3),
            threshold=report.threshold,
            converted_bind_joins=report.converted_bind_joins,
        )

    def lpt_reordered(self) -> None:
        self.collector.lpt_reorders += 1

    def view_served(self, view: str, fresh: bool, staleness_s: float) -> None:
        if fresh:
            self.collector.view_hits += 1
        else:
            self.collector.view_stale_serves += 1
        if self.telemetry.enabled:
            status = "hit" if fresh else "stale"
            self.telemetry.on_view(view, status, staleness_s=staleness_s)

    def view_fallbacks(self, views: list) -> None:
        self.collector.view_fallbacks += len(views)
        if self.telemetry.enabled:
            for view in views:
                self.telemetry.on_view(view, "fallback")

    def query_finished(self, status, clock, rows=None, seconds=None) -> None:
        if self.telemetry.enabled:
            self.telemetry.on_query(status, seconds=seconds or 0.0, rows=rows or 0)
            self.telemetry.tick(clock())


def degradable_branches(root: LogicalPlan) -> frozenset:
    """``id()`` of every remote branch that may degrade under `partial_results`.

    A branch is non-essential when dropping it cannot fabricate wrong rows,
    only miss some: an arm of a UNION ALL, or anything on the nullable side
    of a LEFT join (the probed side of a LEFT bind join included). Everything
    else stays essential — failing it fails the query.
    """
    marked = set()

    def mark(node: LogicalPlan, degradable: bool) -> None:
        if isinstance(node, LogicalFetch):
            if degradable:
                marked.add(id(node))
        elif isinstance(node, LogicalBindJoin):
            if degradable or node.kind == "LEFT":
                marked.add(id(node))
            mark(node.left, degradable)
        elif isinstance(node, LogicalUnion):
            for child in node.children:
                mark(child, True)
        elif isinstance(node, LogicalJoin):
            mark(node.left, degradable)
            mark(node.right, degradable or node.kind == "LEFT")
        else:
            for child in node.children:
                mark(child, degradable)

    mark(root, False)
    return frozenset(marked)


class Execution:
    """Everything one run of one plan needs; the plan itself is only read.

    `local` memoizes per-plan-node results within this execution (a node
    referenced twice runs once); the engine's cache hierarchy is the
    *cross-query* fetch store keyed by `(source, shape, constants)` (`fetch_key`).
    """

    def __init__(self, engine, plan, metrics: MetricsCollector, values: tuple):
        self.engine = engine
        self.plan = plan
        self.metrics = metrics
        #: the constants this run's `Param`s stand for: its statement's
        self.values = values
        self.site = plan.assembly_site
        self.local: dict[int, Relation] = {}
        #: the assembly tree being run (mid-query re-optimization swaps it)
        self.root = plan.root
        self.report: Optional[CompletenessReport] = (
            CompletenessReport()
            if engine.config.partial_results or engine.resilience is not None
            else None
        )
        self.record = Recorder(metrics, engine.telemetry, engine.scoreboard)
        # What the trace build reads, traced or not: each statement's record in
        # the order they ran, the fetches `prefetch` submitted, how many
        # statements it ran (None until it returned) and, once the answer
        # shipped, ``(assembly seconds, final-transfer seconds)``.
        self.statements: list[Recorder] = []
        self.planned: Sequence = ()
        self.prefetched: Optional[int] = None
        self.assembled: Optional[tuple] = None

    def replanned(self, report) -> None:
        """Mid-query re-optimization rebuilt the assembly tree above the fetches."""
        self.root = report.root
        self.record.replanned(report)

    # -- the guarded remote call -------------------------------------------------

    def _attempt(self, source, stmt, collector, description):
        """One attempt against one source: execute, ship, check the timeout.

        Runs on a private collector, merged in whole on success, so a failed
        or timed-out attempt never leaves a half-recorded transfer. Returns
        ``(relation, payload_bytes, attempt_simulated_seconds, source)`` — the
        payload is sized here, once, for every consumer.
        """
        local = MetricsCollector(network=collector.network)
        try:
            raw = source.execute_select(stmt, local)
        except EIIError:
            collector.merge(local)  # the failed round trip still took time
            raise
        size = raw.size_bytes()
        local.record_transfer(
            source.name, self.site, rows=len(raw), payload_bytes=size,
            wire_format=source.capabilities.wire_format, description=description,
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
        candidates = catalog.failover_candidates(node.source.name, node.tables)
        for source, mapping in candidates:
            rename = {  # the primary's local table name -> the replica's
                catalog.entry(name).local_name.lower(): mapping[name]
                for name in node.tables
            }
            if isinstance(stmt, Bound):
                yield source, Bound(rename_statement_tables(stmt.stmt, rename), stmt.values)
            else:
                yield source, rename_statement_tables(stmt, rename)

    def _remote_fetch(self, node, stmt, record: Recorder, description):
        """Execute `stmt` with retries/breaker/failover per the policy.

        Returns ``(relation, payload_bytes, cost_seconds, source_used)``;
        raises the last candidate's error when every access path is exhausted.
        """
        # The engine's limiter (None without caps) bounds how many caller threads
        # may sit inside one source's round trips, so a slow source queues its
        # own callers instead of every thread. Simulated time is unaffected.
        limiter = self.engine.source_limiter
        collector = record.collector
        with limiter.slot(node.source.name) if limiter is not None else nullcontext():
            manager = self.engine.resilience
            if manager is None:
                return self._attempt(node.source, stmt, collector, description)
            last_error: Optional[Exception] = None
            candidates = self._candidates(node, stmt)
            for index, (source, candidate_stmt) in enumerate(candidates):
                try:
                    answer = manager.run_guarded(
                        source.name,
                        lambda s=source, q=candidate_stmt: self._attempt(
                            s, q, collector, description
                        ),
                        record,
                    )
                except SourceError as exc:
                    last_error = exc
                    continue
                if index > 0:
                    record.failover(source.name)
                return answer
            assert last_error is not None
            raise last_error

    def _note_stale_if_down(self, node, record: Recorder) -> None:
        """Annotate a cache hit whose every access path is currently down: it
        touched no breaker, but the answer *cannot currently be re-validated*."""
        manager = self.engine.resilience
        if manager is None or not manager.source_down(node.source.name):
            return
        if manager.policy.failover:
            for source, _ in self.engine.catalog.failover_candidates(
                node.source.name, node.tables
            ):
                if not manager.source_down(source.name):
                    return
        record.stale_hit()
        if self.report is not None:
            self.report.note_stale(node.tables or node.depends_on)

    # -- fetch / bind-fetch ------------------------------------------------------

    def _fetch_statement(
        self, node, stmt, record: Recorder, description, kind, est_rows
    ) -> list:
        """Answer one component statement, from the fetch cache or remotely.

        The only path a statement takes to a source: `fetch` sends a node's
        whole statement, `bind_fetch` one IN-list chunk of ``record.keys`` keys.
        Returns the answer's batch (`Relation.batch`: `Columns` a source shipped
        stay unbuilt) — no rows when a non-essential branch degraded.
        ``est_rows``, the share of the node's estimate this statement stands
        for, weighs the completeness report whichever way it ends; `record`
        and the primary's record are charged whatever the statement adds to
        `record`'s collector, and `record` joins the execution's statements.
        """
        collector = record.collector
        base = (
            collector.simulated_seconds, collector.rows_shipped,
            collector.payload_bytes, collector.wire_bytes,
        )
        record.base = base[0]
        primary = node.source.name
        cache = answer = None
        if params_in(stmt):  # sent with the constants its `Param`s stand for
            stmt = Bound(stmt, self.values)
        try:
            engine = self.engine
            caching = engine.cache.fetches is not None
            key = fetch_key(primary, stmt) if caching else None
            entry = engine.cache.get_fetch(key) if caching else None
            if entry is not None:
                cache = "hit"
                rows, answered_by = entry.value.batch, primary  # only it is cached
                size, seconds = entry.size_bytes, entry.cost_seconds
                record.cache_hit(seconds, size)
                self._note_stale_if_down(node, record)
            else:
                if caching:
                    cache = "miss"
                    record.cache_miss()
                try:
                    raw, size, seconds, source_used = self._remote_fetch(
                        node, stmt, record, description
                    )
                except EIIError as exc:
                    if engine.resilience is None:
                        # a resilience manager reports each failed attempt itself
                        record.remote_failure(primary)
                    if not (
                        engine.config.partial_results
                        and id(node) in degradable_branches(self.root)
                    ):
                        raise
                    # a non-essential branch: its rows are lost, not the query
                    record.degraded(kind, exc)
                    if self.report is not None:
                        self.report.note_skipped(
                            primary, node.tables, exc, est_rows, kind
                        )
                    return []
                rows, answered_by = raw.batch, source_used.name
                answer = (answered_by, seconds, size)
                # Only a primary-served fetch is cached: the entry's key and tags
                # describe the primary, and a replica answer must not mask it.
                if caching and source_used is node.source:
                    engine.cache.put_fetch(
                        key, raw, size, tags=node.depends_on, cost_seconds=seconds
                    )
            if self.report is not None:
                self.report.note_answered(answered_by, est_rows)
            if engine.adaptive is not None:
                # A cache hit is still a true cardinality observation.
                engine.adaptive.observe(node, len(rows), size, record.keys, self.values)
            return rows
        finally:
            record.statement_finished(primary, base, cache, answer)
            self.statements.append(record)

    def fetch(self, node: LogicalFetch, collector=None) -> Relation:
        cached = self.local.get(id(node))
        if cached is not None:
            return cached
        rows = self._fetch_statement(
            node, node.stmt,
            # a fetch nobody prefetched runs serially, on the execution's collector
            self.record.scoped(self.metrics if collector is None else collector, node),
            f"fetch from {node.source.name}", "fetch", node.est_rows,
        )
        # Relabel positionally: the residual plan resolves against the
        # schema of the subtree the fetch replaced; the batch, maybe a cache
        # entry's, is shared with its vouch - `Columns` unbuilt - not copied.
        result = Relation.adopt(node.schema, rows)
        self.local[id(node)] = result
        return result

    def bind_fetch(self, node: LogicalBindJoin, keys: list) -> Relation:
        chunks = []
        for chunk_index, start in enumerate(range(0, len(keys), node.max_inlist)):
            chunk = keys[start : start + node.max_inlist]
            stmt = with_in_filter(node.template, node.right_key, chunk)
            chunks.append(
                self._fetch_statement(
                    node, stmt,
                    self.record.scoped(self.metrics, node, chunk_index, len(chunk)),
                    f"bind fetch from {node.source.name} ({len(chunk)} keys)",
                    "bind_chunk",
                    # the node's estimate, split by this chunk's key share
                    node.est_rows * (len(chunk) / len(keys)),
                )
            )
        # one chunk's rows are shared like a fetch's, vouch and all; several vouch nothing
        rows = chunks[0] if len(chunks) == 1 else list(chain.from_iterable(chunks))
        return Relation.adopt(node.fetch_schema, rows)

    def prefetch(self, fetches: Sequence) -> list:
        """Run the plan's component queries; returns ``(node, sim seconds)``
        per fetch, in the order they ran.

        They run on the calling thread, in submission order, each on its own
        collector: their parallelism is simulated — `makespan` list-schedules
        the returned seconds over ``parallel_workers`` slots — so no thread
        would buy simulated time. The first failure stops the loop; every
        started fetch's collector is merged, then that error is raised.
        """
        engine = self.engine
        adaptive = engine.adaptive
        if adaptive is not None and adaptive.policy.lpt and len(fetches) > 1:
            # Longest-predicted-first submission: list scheduling charges each
            # slot in submission order, so fronting the predicted stragglers
            # lowers the makespan on skewed fetch sets.
            reordered = adaptive.lpt_order(
                fetches, engine.network, self.site, engine.scoreboard, self.values
            )
            if reordered != list(fetches):
                self.record.lpt_reordered()
            fetches = reordered
        self.planned = fetches
        collectors: list = []
        try:
            for node in fetches:
                local = MetricsCollector(network=engine.network)
                collectors.append(local)
                self.fetch(node, local)
        finally:
            for local in collectors:
                self.metrics.merge(local)
        self.prefetched = len(self.statements)
        return [(node, c.simulated_seconds) for node, c in zip(fetches, collectors)]
