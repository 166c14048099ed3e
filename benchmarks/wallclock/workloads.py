"""The four EIIBench-wall workloads: what each one runs, and on what engine.

A workload is a sequence of equal-work *chunks*. Every chunk of one run is
the same list of `Step`s (same statements, same order, same write
positions), so chunk walls are comparable and the fastest quarter of them
is a fair sample of the undisturbed machine. The enterprise data is always
generated from `DATA_SEED`; the run's `--seed` only picks literals,
statement order and which answers are re-checked.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

import repro
from repro.bench import BenchConfig, build_enterprise
from repro.bench.workload import QUERIES, QUERY_MIX
from repro.cache import CacheConfig, CacheHierarchy
from repro.eai import MessageBroker
from repro.federation import EngineConfig
from repro.netsim import SimClock
from repro.views.invalidation import ChangeNotifier

DATA_SEED = 42

#: share of reads (beyond the first read of a text after a write) whose
#: answer is re-computed on the reference engine
CHECK_SHARE = 0.10


class Step(NamedTuple):
    """One operation of a chunk: a read (`sql` set) or a write (`sql` None)."""

    name: str  # query/template name, or the written table
    sql: Optional[str]
    check: bool = False  # re-run on the reference engine and compare rows


#: call-centre lookups: one customer id per statement, as a literal, so each
#: text is new to the plan cache
LOOKUP_TEMPLATES = {
    "point_lookup": "SELECT name, email, city FROM customers WHERE id = {id}",
    "orders_of": "SELECT id, total, status FROM orders WHERE cust_id = {id}",
    "tickets_of": (
        "SELECT id, severity, state, subject FROM tickets WHERE cust_id = {id}"
    ),
    "invoices_of": "SELECT id, amount, paid FROM invoices WHERE cust_id = {id}",
    "region_of": (
        "SELECT c.name, r.region FROM customers c "
        "JOIN regions r ON c.city = r.city WHERE c.id = {id}"
    ),
    "customer360": (
        "SELECT c.name, c.city, SUM(o.total) AS revenue, "
        "COUNT(DISTINCT t.id) AS tickets, MAX(cr.score) AS score "
        "FROM customers c "
        "JOIN orders o ON c.id = o.cust_id "
        "LEFT JOIN tickets t ON t.cust_id = c.id "
        "JOIN credit cr ON cr.cust_id = c.id "
        "WHERE c.id = {id} GROUP BY c.name, c.city"
    ),
}

#: the five A11 dashboard aggregates (benchmarks/bench_a11_view_answering.py)
DASHBOARD = {
    "d1_orders_by_status": "SELECT status, COUNT(*) AS n FROM orders GROUP BY status",
    "d2_revenue_by_status": (
        "SELECT status, SUM(total) AS revenue FROM orders GROUP BY status"
    ),
    "d3_customers_by_segment": (
        "SELECT segment, COUNT(*) AS n FROM customers GROUP BY segment"
    ),
    "d4_billed_by_paid": "SELECT paid, SUM(amount) AS billed FROM invoices GROUP BY paid",
    "d5_tickets_by_state": "SELECT state, COUNT(*) AS n FROM tickets GROUP BY state",
}


@dataclass
class Stack:
    """One built system under test: data, engine, and the write path."""

    fixture: object
    engine: object
    notifier: Optional[ChangeNotifier] = None
    writes: int = 0
    _reference: object = None

    @property
    def reference(self):
        """A plain serial engine over the same databases (the row oracle)."""
        if self._reference is None:
            self._reference = repro.connect(
                self.fixture.catalog(),
                EngineConfig(clock=SimClock(), parallel_workers=1),
            )
        return self._reference

    def write(self, table: str) -> None:
        """Insert one row into `table` and announce it on the broker."""
        self.writes += 1
        row_id = 10_000_000 + self.writes
        cust_id = 1 + self.writes % self.fixture.config.customers
        day = datetime.date(2024, 1, 1)
        if table == "orders":
            self.fixture.sales.table("orders").insert(
                (row_id, cust_id, 1, day, 1, 2.5, "open")
            )
        else:
            self.fixture.support.table("tickets").insert(
                (row_id, cust_id, day, 2, "open", "slow dashboard")
            )
        self.notifier.poll()


class Workload:
    """Base: the default engine over a scale-`scale` enterprise."""

    name = ""
    scale = 1
    warmup_chunks = 1
    #: chunks every untraced run executes whatever its time budget; the
    #: counted metrics (simulated seconds, bytes) are summed over exactly
    #: these, so they repeat from run to run
    counted_chunks = 2
    #: set-ups per run (the median is reported)
    setup_reps = 5
    #: alternating untraced/traced chunk pairs per 10 s of `--seconds`
    traced_pairs = 10
    has_golden = False
    #: also measure tracer/telemetry on-off ratios in the traced run (one
    #: workload is enough, and a pass of the others costs seconds)
    measures_observers = False

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def config(self, clock) -> EngineConfig:
        return EngineConfig(clock=clock)

    def steps(self, index: int) -> list:
        """The `index`-th chunk (0 .. `warmup_chunks`-1 are warm-up)."""
        raise NotImplementedError

    def build(self, instrument=None) -> Stack:
        """Fixture + catalog + engine. `instrument(fixture, config)` (the
        tracing probes) may substitute its own catalog and config."""
        fixture = build_enterprise(BenchConfig(scale=self.scale, seed=DATA_SEED))
        config = self.config(SimClock())
        if instrument is None:
            catalog = fixture.catalog()
        else:
            catalog, config = instrument(fixture, config)
        stack = Stack(fixture, repro.connect(catalog, config))
        self.wire(stack)
        return stack

    def wire(self, stack: Stack) -> None:
        """Attach whatever the workload needs beside the engine."""


class Mix(Workload):
    """EIIBench Q1-Q12 in their fixed order, one pass per chunk.

    `--seed` changes nothing here, on purpose. What a query costs depends
    on what ran before it (a 500 ms join leaves the allocator, the collector
    and the caches in a different state than a point lookup): shuffling the
    pass per seed moved `latency_p50_ms` on `mix_s4` by 25-40 % between
    seeds, and merely rotating it still by 30 % (every seed that started at
    q4 read 16-18 ms, the others 12-14 ms).
    """

    has_golden = True

    def __init__(self, seed: int):
        super().__init__(seed)
        self._steps = [Step(name, sql) for name, sql in QUERIES.items()]

    def steps(self, index: int) -> list:
        return self._steps


class MixS1(Mix):
    name = "mix_s1"
    counted_chunks = 8
    traced_pairs = 40
    measures_observers = True


class MixS4(Mix):
    name = "mix_s4"
    scale = 4
    traced_pairs = 1


class AdhocLookup(Workload):
    """Six per-customer templates over eight fresh customer ids per chunk."""

    name = "adhoc_lookup_s1"
    counted_chunks = 8
    traced_pairs = 12
    IDS_PER_CHUNK = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        customers = BenchConfig(scale=self.scale).customers
        self.ids = list(range(1, customers + 1))
        self.rng.shuffle(self.ids)
        # 200 ids x 6 templates = 1200 distinct texts, revisited in the same
        # order: a text recurs 1200 statements later, far beyond the plan
        # cache's 256 entries

    def steps(self, index: int) -> list:
        blocks = len(self.ids) // self.IDS_PER_CHUNK
        start = (index % blocks) * self.IDS_PER_CHUNK
        check = random.Random(self.seed * 100_003 + index)
        return [
            Step(name, sql.format(id=cust_id), check.random() < CHECK_SHARE)
            for cust_id in self.ids[start : start + self.IDS_PER_CHUNK]
            for name, sql in LOOKUP_TEMPLATES.items()
        ]


class DashboardRW(Workload):
    """400 repeat-heavy reads per chunk beside two announced writes."""

    name = "dashboard_rw"
    warmup_chunks = 2
    counted_chunks = 4
    traced_pairs = 8
    READS = 400
    #: read positions the writes precede: far enough apart that every text
    #: is re-read (and re-cached) between them, keeping misses near 5 %
    WRITE_AT = {100: "orders", 300: "tickets"}

    def __init__(self, seed: int):
        super().__init__(seed)
        texts = {name: QUERIES[name] for name in QUERY_MIX} | DASHBOARD
        names = sorted(texts)
        # QUERY_MIX weights sum to 100; the five aggregates share another 100
        weights = [QUERY_MIX.get(name, 20) for name in names]
        reads = self.rng.choices(names, weights=weights, k=self.READS)
        steps = []
        seen: set = set()
        for position, name in enumerate(reads):
            if position in self.WRITE_AT:
                steps.append(Step(self.WRITE_AT[position], None))
                seen = set()
            first = name not in seen
            seen.add(name)
            check = first or self.rng.random() < CHECK_SHARE
            steps.append(Step(name, texts[name], check))
        self._steps = steps

    def config(self, clock) -> EngineConfig:
        return EngineConfig(
            clock=clock,
            cache=CacheHierarchy(CacheConfig(), clock),
            views=True,
            auto_materialize=True,
        )

    def steps(self, index: int) -> list:
        return self._steps

    def wire(self, stack: Stack) -> None:
        broker = MessageBroker()
        stack.engine.attach_invalidation(broker)
        stack.notifier = ChangeNotifier(broker)
        stack.notifier.watch("orders", stack.fixture.sales.table("orders"))
        stack.notifier.watch("tickets", stack.fixture.support.table("tickets"))


WORKLOADS = {cls.name: cls for cls in (MixS1, MixS4, AdhocLookup, DashboardRW)}
