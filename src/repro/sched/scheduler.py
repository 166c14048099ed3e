"""The concurrent multi-query workload scheduler.

`WorkloadScheduler` runs a batch of `QueryRequest`s against one shared
`FederatedEngine` on the simulated clock: a discrete-event loop advances
virtual time through arrivals, fetch completions and query completions,
while weighted-fair queueing (`repro.sched.wfq`), per-source concurrency
limits, in-flight fetch coalescing (`_RunState.flights`) and deadline-based
load shedding decide who runs when.

Correctness by construction: the *answer* to each admitted query comes
from one real `engine.query()` call issued at its virtual dispatch time,
in dispatch order — exactly the rows a serial run of the same sequence
would produce. Concurrency lives entirely in the virtual timeline (which
worker slot a fetch occupies, when it completes, what coalesces with
what), the same way the netsim "ships" bytes without sending packets. The
differential oracle suite (`tests/test_sched_oracle.py`) verifies the
construction: concurrent answers ≡ serial answers, with and without fault
injection, and seeded runs replay byte-identically.

Virtual execution model, per dispatched query:

- its component fetches (from the engine's own per-fetch accounting)
  become tasks competing for `workers` global slots, subject to the
  engine's per-source limits; identical in-flight fetch keys coalesce;
- when its last fetch lands, an assembly stage (bind joins, local
  operators, final transfer — everything the engine charged beyond the
  prefetch makespan) runs uncontended;
- the whole timeline lands in a manually-laid-out `repro.trace.Trace`.

Facts recorded once: arrival, rejection, shed, dispatch, completion (with
its deadline verdict) and coalescing each have one write site below, which
updates the `QueryOutcome`, the tenant's and the run's `TenantStats`, and
the engine's telemetry plane (whose no-op default does nothing).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

from repro.cache import fetch_key
from repro.common.errors import AdmissionError, EIIError
from repro.sched.request import (
    FAILED,
    OK,
    PARTIAL,
    REJECTED,
    SHED,
    QueryOutcome,
    QueryRequest,
    Tenant,
    TenantStats,
    WorkloadResult,
)
from repro.sched.wfq import FairQueue
from repro.sql.shape import Bound
from repro.trace import Trace, makespan


@dataclass
class SchedulerConfig:
    """Knobs of the workload scheduler's virtual execution model.

    The admission budget and the per-source caps are the engine's own
    (`EngineConfig.admission_budget_s`, `EngineConfig.source_limits`), so
    the virtual timeline applies exactly what the engine applies.
    """

    #: global simulated fetch slots shared by every active query
    workers: int = 8
    #: queries allowed past the admission queue at once (None = `workers`)
    max_active: Optional[int] = None
    #: bound on the admission queue; arrivals past it are rejected with an
    #: `AdmissionError` carrying the queue state (None = unbounded)
    queue_depth: Optional[int] = None
    #: "wfq" (weighted-fair across tenants, strict priorities) or "fifo"
    policy: str = "wfq"
    #: coalesce identical in-flight fetch keys across concurrent queries
    coalesce: bool = True

    def __post_init__(self):
        self.workers = max(int(self.workers), 1)
        if self.max_active is None:
            self.max_active = self.workers
        self.max_active = max(int(self.max_active), 1)


@dataclass
class _FetchTask:
    """One component fetch of one active query, on the virtual timeline."""

    key: tuple
    source: str
    duration_s: float
    state: str = "pending"  # pending -> running | attached -> done


@dataclass
class _Active:
    """Bookkeeping for a dispatched (really-executed) query."""

    outcome: QueryOutcome
    tasks: list = field(default_factory=list)
    remaining: int = 0
    assembly_s: float = 0.0


class WorkloadScheduler:
    """Runs query workloads concurrently over one shared federated engine,
    observed through the engine's own telemetry plane."""

    def __init__(
        self,
        engine,
        tenants: Optional[dict] = None,
        config: Optional[SchedulerConfig] = None,
    ):
        self.engine = engine
        self.config = config or SchedulerConfig()
        #: tenant name -> `Tenant`; unknown tenants get weight-1 defaults
        self.tenants = {t.name: t for t in (tenants or {}).values()} if isinstance(
            tenants, dict
        ) else {t.name: t for t in (tenants or [])}

    # -- public ------------------------------------------------------------------

    def run(self, requests: list) -> WorkloadResult:
        """Execute `requests` on the virtual timeline; returns the account."""
        state = _RunState(self, list(requests))
        return state.run()


class _RunState:
    """One workload run's mutable state (the event loop lives here)."""

    def __init__(self, scheduler: WorkloadScheduler, requests: list):
        self.engine = engine = scheduler.engine
        self.config = scheduler.config
        self.telemetry = engine.telemetry
        self.requests = requests
        self.queue = FairQueue(
            tenants=dict(scheduler.tenants),
            depth=self.config.queue_depth,
            policy=self.config.policy,
        )
        #: fetch key -> the `(query index, task)` tokens attached to its
        #: running fetch; a key is here exactly while its fetch runs, so a
        #: task only ever rides a fetch of its own statement
        self.flights: dict[tuple, list] = {}
        self.events: list = []  # heap of (time, seq, kind, payload)
        self.seq = 0
        self.now = 0.0
        self.free_workers = self.config.workers
        #: free virtual slots per capped source: the engine's
        #: `source_limits`, which bound its real caller threads too
        self.source_free: dict[str, int] = dict(engine.config.source_limits)
        self.active: dict[int, _Active] = {}
        self.active_order: list[int] = []  # dispatch order of active ids
        self.outcomes: dict[int, QueryOutcome] = {}
        self.total = TenantStats("total")
        self.tenants: dict[str, TenantStats] = {}
        self.dispatched = 0
        self.serial_s = 0.0
        self.makespan_s = 0.0
        self.audit: list = []

    def _records(self, outcome: QueryOutcome) -> tuple:
        """The accounts a fact about `outcome` lands in: its tenant's, the run's."""
        name = outcome.request.tenant
        record = self.tenants.get(name)
        if record is None:
            record = self.tenants[name] = TenantStats(name)
        return record, self.total

    # -- event plumbing ----------------------------------------------------------

    def _push(self, time_s: float, kind: str, payload) -> None:
        heapq.heappush(self.events, (time_s, self.seq, kind, payload))
        self.seq += 1

    def run(self) -> WorkloadResult:
        for index, request in enumerate(self.requests):
            self.outcomes[index] = QueryOutcome(
                request, arrival_s=request.arrival_s
            )
            self._push(max(request.arrival_s, 0.0), "arrive", index)
        while self.events:
            time_s, _, kind, payload = heapq.heappop(self.events)
            self.now = max(self.now, time_s)
            # close telemetry windows up to virtual time before the event
            # lands in the window containing `now`
            self.telemetry.tick(self.now)
            if kind == "arrive":
                self._on_arrive(payload)
            elif kind == "fetch_done":
                self._fetch_done(*payload)
            elif kind == "query_done":
                self._on_query_done(payload)
            self._refill()
        return self._finalize()

    # -- arrival / admission -----------------------------------------------------

    def _estimate(self, request: QueryRequest) -> Optional[float]:
        """Predicted simulated elapsed for `request` (None when unplannable)."""
        try:
            plan = self.engine.prepare(request.sql)
            return self.engine.predict_elapsed(plan)
        except EIIError:
            return None

    def _on_arrive(self, index: int) -> None:
        outcome = self.outcomes[index]
        request = outcome.request
        for record in self._records(outcome):
            record.queries += 1
        estimate = self._estimate(request)
        budget = self.engine.config.admission_budget_s
        if budget is not None and estimate is not None and estimate > budget:
            self._reject(
                outcome,
                AdmissionError(
                    f"query {request.label!r} predicted to take "
                    f"{estimate:.3f}s, over the {budget:.3f}s admission budget",
                    predicted_seconds=estimate,
                    queued=len(self.queue),
                    queue_depth=self.config.queue_depth,
                ),
            )
            return
        try:
            self.queue.push(
                request,
                self.now,
                service_estimate_s=estimate if estimate is not None else 1.0,
                token=index,
            )
        except AdmissionError as exc:
            self._reject(outcome, exc)
            return
        self.telemetry.on_arrival(request.tenant, len(self.queue))

    def _reject(self, outcome: QueryOutcome, error: AdmissionError) -> None:
        outcome.status = REJECTED
        outcome.finish_s = self.now
        outcome.error = str(error)
        for record in self._records(outcome):
            record.rejected += 1
        self.telemetry.on_outcome(outcome, now=self.now)

    # -- dispatch (the one place real execution happens) -------------------------

    def _dispatch(self, index: int) -> None:
        outcome = self.outcomes[index]
        outcome.dispatch_s = self.now
        outcome.queue_wait_s = max(0.0, self.now - outcome.arrival_s)
        outcome.dispatch_index = self.dispatched
        self.dispatched += 1
        self._sync_clock()
        try:
            result = self.engine.query(outcome.request.sql)
        except EIIError as exc:
            # what a failed query did before it died is work done: it counts
            # in serial_s and in the accounts, like an answer's
            executed = getattr(exc, "metrics", None)
            outcome.status = FAILED
            outcome.error = str(exc)
            duration = executed.simulated_seconds if executed is not None else 0.0
            tasks, assembly_s = [], duration
        else:
            outcome.result = result
            outcome.status = PARTIAL if result.is_partial else OK
            # a result-cache hit re-serves an execution, with its collector
            executed = None if result.from_cache else result.metrics
            duration = result.elapsed_seconds
            tasks, assembly_s = self._decompose(result)
        self.serial_s += duration
        for record in self._records(outcome):
            record.waits_s.append(outcome.queue_wait_s)
            # ok / partial / failed: one counter field per status
            setattr(record, outcome.status, getattr(record, outcome.status) + 1)
            if executed is not None:
                record.metrics.merge(executed)
        self.active[index] = _Active(
            outcome, tasks=tasks, remaining=len(tasks), assembly_s=assembly_s
        )
        self.active_order.append(index)
        if not tasks:
            self._push(self.now + assembly_s, "query_done", index)

    def _sync_clock(self) -> None:
        """Advance the engine's SimClock to workload virtual time, so
        time-windowed behavior (cache TTLs, outage windows) sees the workload
        timeline."""
        clock = getattr(self.engine, "clock", None)
        if clock is None or not hasattr(clock, "advance"):
            return  # wall clock (time.time) — nothing to keep in step
        behind = self.now - clock.now()
        if behind > 0:
            clock.advance(behind)

    def _decompose(self, result) -> "tuple[list, float]":
        """Split one executed query into fetch tasks + an assembly stage.

        Each task is a fetch paired with the seconds it took, in the order the
        engine submitted them; a whole-result cache hit is one opaque stage.
        """
        if result.from_cache:
            return [], result.elapsed_seconds
        tasks = [
            _FetchTask(
                key=fetch_key(node.source.name, Bound(node.stmt, result.values)),  # its constants
                source=node.source.name.lower(),
                duration_s=duration,
            )
            for node, duration in result.fetch_timings
        ]
        fetch_elapsed = makespan(
            [task.duration_s for task in tasks], self.engine.parallel_workers
        )
        assembly_s = max(0.0, result.elapsed_seconds - fetch_elapsed)
        return tasks, assembly_s

    # -- the scheduling round ----------------------------------------------------

    def _refill(self) -> None:
        """Admit queued queries and hand pending fetches to free slots."""
        while len(self.active) < self.config.max_active:
            entry = self.queue.pop()
            if entry is None:
                break
            request = entry.request
            index = entry.token
            deadline = request.deadline_s
            if deadline is not None and self.now > deadline:
                # its deadline passed while it queued: shed, do not run late
                self._shed(index)
                continue
            self._dispatch(index)
        startable_blocked = 0
        for index in self.active_order:
            active = self.active.get(index)
            if active is None:
                continue
            for task in active.tasks:
                if task.state != "pending":
                    continue
                if self.config.coalesce and task.key in self.flights:
                    task.state = "attached"
                    self._attach(task.key, (index, task))
                    self._coalesced(active.outcome, task.duration_s)
                    continue
                if self.free_workers <= 0:
                    continue
                if not self._source_available(task.source):
                    continue
                self._start_task(index, task)
        # audit: a pending task with a free worker AND a free source slot
        # should not exist after this round (work conservation)
        if self.free_workers > 0:
            for index in self.active_order:
                active = self.active.get(index)
                if active is None:
                    continue
                for task in active.tasks:
                    if task.state == "pending" and self._source_available(
                        task.source
                    ):
                        startable_blocked += 1
        self.audit.append(
            (
                round(self.now, 9),
                self.free_workers,
                len(self.queue),
                len(self.active),
                startable_blocked,
            )
        )

    def _coalesced(self, outcome: QueryOutcome, seconds_saved: float) -> None:
        """A fetch rode an identical in-flight fetch instead of taking a slot."""
        outcome.coalesced_fetches += 1
        outcome.coalesced_seconds_saved += seconds_saved
        for record in self._records(outcome):
            record.coalesced_fetches += 1
            record.coalesced_seconds_saved += seconds_saved

    def _attach(self, key: tuple, token) -> None:
        """Ride the running fetch for exactly `key`; a `KeyError` when none
        runs, so a task is never completed by another statement's fetch."""
        self.flights[key].append(token)

    def _source_available(self, source: str) -> bool:
        free = self.source_free.get(source)
        return free is None or free > 0

    def _start_task(self, index: int, task: _FetchTask) -> None:
        task.state = "running"
        self.free_workers -= 1
        if task.source in self.source_free:
            self.source_free[task.source] -= 1
        if self.config.coalesce:
            assert task.key not in self.flights, f"{task.key!r} already in flight"
            self.flights[task.key] = []
        self._push(self.now + task.duration_s, "fetch_done", (index, id(task)))

    # -- completions -------------------------------------------------------------

    def _fetch_done(self, index: int, task_id: int) -> None:
        active = self.active[index]
        task = next(t for t in active.tasks if id(t) == task_id)
        self.free_workers += 1
        if task.source in self.source_free:
            self.source_free[task.source] += 1
        finished = [(index, task)]
        if self.config.coalesce:
            finished.extend(self.flights.pop(task.key))
        for query_index, done_task in finished:
            done_task.state = "done"
            follower = self.active[query_index]
            follower.remaining -= 1
            if follower.remaining == 0:
                self._push(
                    self.now + follower.assembly_s, "query_done", query_index
                )

    def _on_query_done(self, index: int) -> None:
        active = self.active.pop(index)
        self.active_order.remove(index)
        outcome = active.outcome
        outcome.finish_s = self.now
        outcome.service_s = max(0.0, self.now - outcome.dispatch_s)
        deadline = outcome.request.deadline_s
        outcome.deadline_missed = deadline is not None and outcome.finish_s > deadline
        for record in self._records(outcome):
            record.service_s += outcome.service_s
            record.deadline_misses += outcome.deadline_missed
        self.makespan_s = max(self.makespan_s, self.now)
        self.telemetry.on_outcome(outcome, now=self.now)

    def _shed(self, index: int) -> None:
        outcome = self.outcomes[index]
        wait = max(0.0, self.now - outcome.arrival_s)
        outcome.status = SHED
        outcome.finish_s = self.now
        outcome.queue_wait_s = wait
        outcome.error = str(
            AdmissionError(
                f"query {outcome.request.label!r} shed: deadline "
                f"{outcome.request.deadline_s:.3f}s passed after "
                f"{wait:.3f}s in the queue",
                queued=len(self.queue),
                queue_depth=self.config.queue_depth,
                queue_wait_s=wait,
            )
        )
        for record in self._records(outcome):
            record.shed += 1
        self.makespan_s = max(self.makespan_s, self.now)
        self.telemetry.on_outcome(outcome, now=self.now)

    # -- finalization ------------------------------------------------------------

    def _finalize(self) -> WorkloadResult:
        self.telemetry.on_workload_end(self.makespan_s)
        result = WorkloadResult(
            outcomes=[self.outcomes[i] for i in range(len(self.requests))],
            makespan_s=self.makespan_s,
            serial_s=self.serial_s,
            total=self.total,
            tenants=self.tenants,
            audit=self.audit,
        )
        result.trace = self._build_trace(result)
        return result

    def _build_trace(self, result: WorkloadResult) -> Trace:
        """Lay the workload out as a span tree on the virtual timeline.

        `finalize()` computes every span's extent; the schedule, not serial
        or list-scheduled composition, then places each query span (and its
        queue wait and service) where it ran. The root's
        `makespan_s`/`serial_s` attrs carry the run-level timings; its
        summed extent is the workload's total turnaround.
        """
        config = self.config
        trace = Trace(
            "workload",
            policy=config.policy,
            workers=config.workers,
            max_active=config.max_active,
            coalesce=config.coalesce,
            queries=len(result.outcomes),
        )
        trace.root.set(
            makespan_s=round(result.makespan_s, 9),
            serial_s=round(result.serial_s, 9),
            coalesced_fetches=result.total.coalesced_fetches,
        )
        placed: list = []  # (span, start_s, lane) as the schedule ran it
        for outcome in result.outcomes:
            span = trace.root.child(
                f"query:{outcome.request.label}",
                category="sched.query",
                tenant=outcome.request.tenant,
                status=outcome.status,
                dispatch_index=outcome.dispatch_index,
            )
            dispatched = outcome.dispatch_index >= 0
            lane = 1 + outcome.dispatch_index % config.workers if dispatched else 0
            placed.append((span, outcome.arrival_s, lane))
            if outcome.coalesced_fetches:
                span.set(
                    coalesced_fetches=outcome.coalesced_fetches,
                    coalesced_seconds_saved=round(
                        outcome.coalesced_seconds_saved, 9
                    ),
                )
            if outcome.status in (SHED, REJECTED):
                span.event("sched." + outcome.status, 0.0, error=outcome.error)
                continue
            queued = span.child("queued", category="sched.wait")
            queued.self_seconds = outcome.queue_wait_s
            placed.append((queued, outcome.arrival_s, lane))
            service = span.child("service", category="sched.service")
            service.self_seconds = outcome.service_s
            placed.append((service, outcome.dispatch_s, lane))
            if outcome.deadline_missed:
                span.event(
                    "sched.deadline_missed",
                    max(0.0, outcome.finish_s - outcome.arrival_s),
                    deadline_s=outcome.request.deadline_s,
                )
        trace.finalize()
        for span, start, lane in placed:
            span.start_s, span.lane = start, lane
        return trace


__all__ = [
    "SchedulerConfig",
    "Tenant",
    "WorkloadScheduler",
]
