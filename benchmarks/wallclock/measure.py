"""The timed loop, the reference-kernel time scale, and answer checking.

One client, closed loop: the next statement is issued when the previous
one returned. Only the operations themselves are on the stopwatch; answers
are checked off it (before each write, so the reference engine sees the
data the answer was computed on, and at the end of the chunk).

Every duration is reported in *reference time*: the wall (or CPU) time of
an operation divided by what a fixed pure-Python kernel cost just before
and after it, times the kernel's nominal 1 ms. On the shared two-core
sandbox this benchmark was calibrated on, the machine switches between
speed states a factor 1.5 apart that last seconds to minutes, CPU time
moves with wall time, and no statistic of raw times taken inside one 20 s
run repeats to better than 15-35 %; scaled by the kernel, the same runs
repeat to 2-5 % (README.md has the numbers).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import pathlib
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.common.errors import EIIError

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"


class Reference:
    """The machine-speed probe: a fixed kernel sampled between operations.

    The kernel is query-engine-shaped on purpose (filter, group, sort and
    print a rotating window of a few-MB row list through the interpreter),
    so that whatever slows the engine - a busy sibling hyperthread, a
    noisy cache neighbour - slows it by about the same factor. It uses
    nothing from `src/`, so no change to the repo can move it.
    """

    NOMINAL_NS = 1_000_000  # one kernel run is, by definition, 1 reference ms
    INTERVAL_NS = 25_000_000  # sample again once this much time has passed
    ROWS, WINDOW = 24_000, 6_000

    def __init__(self):
        rng = random.Random(7)
        statuses = ("open", "shipped", "closed", "returned")
        self._rows = [
            (i, rng.randint(1, 500), round(rng.uniform(1, 2000), 2), rng.choice(statuses))
            for i in range(self.ROWS)
        ]
        self._at = 0
        self.ends: list = []  # perf_counter_ns at the end of each sample
        self.costs: list = []  # what the kernel took, ns
        self.sample()

    def _kernel(self) -> list:
        window = self._rows[self._at : self._at + self.WINDOW]
        self._at = (self._at + self.WINDOW) % self.ROWS
        groups: dict = {}
        for row in window:
            if row[2] > 500.0 and row[3] != "returned":
                total = groups.get(row[1])
                groups[row[1]] = (1, row[2]) if total is None else (total[0] + 1, total[1] + row[2])
        ranked = sorted(
            ((key, n, total / n) for key, (n, total) in groups.items()),
            key=lambda group: (-group[2], group[0]),
        )
        return [tuple(str(value) for value in group) for group in ranked[:50]]

    def sample(self) -> None:
        start = time.perf_counter_ns()
        self._kernel()
        end = time.perf_counter_ns()
        self.ends.append(end)
        self.costs.append(end - start)

    def maybe_sample(self) -> None:
        if time.perf_counter_ns() - self.ends[-1] >= self.INTERVAL_NS:
            self.sample()

    def scale(self, start: int, end: int) -> float:
        """Factor turning a duration measured in [start, end] into reference
        time: nominal / median kernel cost over the samples around it (the
        two before, every one inside, the two after; samples never overlap
        an operation)."""
        first = max(bisect.bisect_right(self.ends, start) - 2, 0)
        last = bisect.bisect_right(self.ends, end) + 2
        return self.NOMINAL_NS / statistics.median(self.costs[first:last])


def canonical_rows(relation) -> list:
    """Rows as sorted tuples of strings, floats cut to 9 significant digits
    (a view rollup and a live federation may add the same floats in a
    different order)."""
    return sorted(
        tuple(
            f"{value:.9g}" if isinstance(value, float) else repr(value)
            for value in row
        )
        for row in relation.rows
    )


def digest(relation) -> str:
    return hashlib.sha256(repr(canonical_rows(relation)).encode()).hexdigest()


def load_golden(scale: int) -> dict:
    """Query name -> answer digest for the Q1-Q12 mix at `scale`."""
    return json.loads(GOLDEN_PATH.read_text())[f"scale_{scale}"]


@dataclass
class Chunk:
    """What one chunk cost and what it counted."""

    #: reference time spent in this chunk's reads and writes
    wall_ns: float = 0.0
    cpu_ns: float = 0.0
    #: the same wall time as the clock read it
    raw_wall_ns: int = 0
    #: (step name, reference ns) per read, in issue order
    reads: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: sums over this chunk's answers: simulated seconds, bytes, plan shape
    tally: Counter = field(default_factory=Counter)
    #: digest of each answer that was checked or kept, in issue order
    digests: list = field(default_factory=list)


class Checker:
    """Decides whether an answer is right; wrong answers count as failed."""

    def __init__(self, workload, stack, keep_digests: bool = False):
        self.stack = stack
        self.golden = load_golden(workload.scale) if workload.has_golden else None
        #: digest every answer, not only the checked ones (traced runs)
        self.keep_digests = keep_digests

    def failures(self, pending: list, chunk: Chunk) -> int:
        """Tally, then check, the (step, result) pairs collected since the
        last write; returns how many answers were wrong."""
        failed = 0
        reference: dict = {}  # no write in between: one oracle run per text
        for step, result in pending:
            account(chunk.tally, result)
            if not (self.golden is not None or step.check or self.keep_digests):
                continue
            answer = digest(result.relation)
            chunk.digests.append(answer)
            if self.golden is not None:
                failed += answer != self.golden[step.name]
            elif step.check:
                if step.sql not in reference:
                    oracle = self.stack.reference.query(step.sql, use_views=False)
                    reference[step.sql] = digest(oracle.relation)
                failed += answer != reference[step.sql]
        return failed


def account(tally: Counter, result) -> None:
    """Add one answer's deterministic accounting to `tally`.

    A result-cache hit hands back the metrics of the execution that filled
    the cache; nothing was shipped for it, so only its (zero) elapsed time
    is counted.
    """
    tally["queries"] += 1
    tally["sim_s"] += result.elapsed_seconds
    if result.from_cache:
        tally["result_cache_served"] += 1
        return
    metrics = result.metrics
    tally["wire_bytes"] += metrics.wire_bytes
    tally["payload_bytes"] += metrics.payload_bytes
    tally["rows_shipped"] += metrics.rows_shipped
    tally["view_hits"] += metrics.view_hits
    tally["view_fallbacks"] += metrics.view_fallbacks
    tally["fetches"] += len(result.plan.fetches)
    tally["bind_joins"] += len(result.plan.bind_joins)


def run_chunk(stack, steps, checker: Checker, reference: Reference, recorder=None) -> Chunk:
    """Issue `steps` against `stack.engine`, timing each operation.

    `recorder` (traced runs) is told which read is in flight, so the spans
    the probes record carry their parent query's id.
    """
    chunk = Chunk()
    query = stack.engine.query
    clock, cpu_clock = time.perf_counter_ns, time.process_time_ns
    ops: list = []  # (name, is read, start, end, cpu ns)
    pending: list = []

    def pause():
        """Stopwatch off: close the bracket around the operations so far,
        then check their answers."""
        reference.sample()
        chunk.failed += checker.failures(pending, chunk)
        pending.clear()

    for step in steps:
        chunk.attempted += 1
        is_read = step.sql is not None
        if not is_read:
            pause()
        reference.maybe_sample()
        if recorder is not None and is_read:
            recorder.begin_query()
        result = None
        cpu_from, start = cpu_clock(), clock()
        try:
            if is_read:
                result = query(step.sql)
            else:
                stack.write(step.name)
        except EIIError:
            chunk.failed += 1
        end, cpu_to = clock(), cpu_clock()
        if recorder is not None and is_read:
            recorder.end_query(step.name, start, end, result)
        ops.append((step.name, is_read, start, end, cpu_to - cpu_from))
        if result is not None:
            pending.append((step, result))
    pause()

    for name, is_read, start, end, cpu_ns in ops:
        scale = reference.scale(start, end)
        chunk.raw_wall_ns += end - start
        chunk.wall_ns += (end - start) * scale
        chunk.cpu_ns += cpu_ns * scale
        if is_read:
            chunk.reads.append((name, (end - start) * scale))
    return chunk


# -- statistics ---------------------------------------------------------------


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def statement_latencies(chunks: list) -> list:
    """Every read's latency, each represented by the median of its statement
    class (the reads that share its step name), sorted.

    A round-robin over twelve statements puts the 50th percentile exactly
    on the border between two statement classes, where a raw pooled
    percentile jumps from one class to the other between runs (40 % spread
    on `mix_s4`); collapsing each class to its median first removes the
    spikes inside a class, and the interpolating median then averages the
    two classes at a border.
    """
    by_name: dict = {}
    for chunk in chunks:
        for name, ns in chunk.reads:
            by_name.setdefault(name, []).append(ns)
    typical = {name: statistics.median(values) for name, values in by_name.items()}
    return sorted(typical[name] for chunk in chunks for name, _ in chunk.reads)


def end_to_end(chunks: list) -> tuple:
    """The clock-based metrics of a run, in reference time.

    Chunks do equal work, so the run's chunk time is the median over its
    chunks (what is left after scaling is short one-sided spikes, which a
    median ignores). Returns ``(metrics, samples)``.
    """
    latencies = statement_latencies(chunks)
    reads = len(chunks[0].reads)
    metrics = {
        "queries_per_s": reads / statistics.median(c.wall_ns for c in chunks) * 1e9,
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "latency_p90_ms": percentile(latencies, 90) / 1e6,
        "cpu_ms_per_query": statistics.median(c.cpu_ns for c in chunks) / 1e6 / reads,
    }
    raw_qps = reads / statistics.median(c.raw_wall_ns for c in chunks) * 1e9
    samples = {
        "chunks": len(chunks),
        "latencies": len(latencies),
        "raw_queries_per_s": round(raw_qps, 3),
    }
    return metrics, samples


def counted(chunks: list) -> dict:
    """The metrics that must repeat exactly, over all of `chunks`."""
    tally: Counter = Counter()
    for chunk in chunks:
        tally.update(chunk.tally)
    attempted = sum(chunk.attempted for chunk in chunks)
    failed = sum(chunk.failed for chunk in chunks)
    queries = max(tally["queries"], 1)
    return {
        "sim_s_per_query": tally["sim_s"] / queries,
        "wire_kb_per_query": tally["wire_bytes"] / 1024 / queries,
        "failed_share": failed / max(attempted, 1),
    }
