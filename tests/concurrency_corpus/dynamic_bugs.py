"""Seeded dynamic defects: EII504/EII505/EII506/EII507 trigger material.

Unlike the `bug_*` lint fixtures these classes are *run* — under the
race sanitizer or the interleaving fuzzer — so each bug is written to be
observable at schedule-point granularity, not dependent on a lucky
preemption:

* `RacyCounter` — no lock at all; two threads instrumented via
  `instrument_method` produce an empty lockset intersection (EII504).
* `RunStateEngine` — a `FederatedEngine` that keeps the running query's
  collector on the engine itself, across the run's `Execution.fetch`
  calls; a caller starting in between takes it over, so callers sharing
  the engine report each other's metrics (EII505).
* `LeakyLimiter` — a `SourceLimiter` whose slot forgets `try/finally`;
  any exception inside the slot strands the semaphore (EII506).
* `rogue_metrics_write` — a worker thread charging the coordinator's
  bound `MetricsCollector` directly (EII507).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.federation import EngineConfig, FederatedEngine
from repro.federation.limits import SourceLimiter
from tests.federation_fixtures import build_catalog


class RacyCounter:
    """Increments with no guard: the textbook lockset race."""

    def __init__(self):
        self.value = 0

    def increment(self, rounds: int = 1) -> None:
        for _ in range(rounds):
            self.value += 1


def race_increments(counter: RacyCounter, n_threads: int = 2, rounds: int = 100) -> None:
    """Drive `counter.increment` from `n_threads` with overlapping lifetimes.

    The exit barrier keeps every thread alive until all have accessed, so
    the sanitizer's join-fence can never order the accesses after the
    fact — the overlap (and the EII504 report) is deterministic.
    """
    enter = threading.Barrier(n_threads)
    leave = threading.Barrier(n_threads)

    def worker():
        enter.wait(10)
        counter.increment(rounds)
        leave.wait(10)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)


class RunStateEngine(FederatedEngine):
    """Hands each answer the collector of whichever run started last."""

    def _run(self, run, traced):
        self.running = run.metrics  # bug: per-run state on the shared engine
        result = super()._run(run, traced)
        result.metrics = self.running
        return result


#: a two-fetch join over the federation fixture: callers interleave between fetches
SHARED_ENGINE_SQL = (
    "SELECT c.name, o.total FROM customers c "
    "JOIN orders o ON c.id = o.cust_id WHERE o.total > 100"
)


def run_state_engine() -> RunStateEngine:
    return RunStateEngine(build_catalog(), EngineConfig(parallel_workers=4))


class LeakyLimiter(SourceLimiter):
    """Releases the slot only on the happy path: failures leak it."""

    @contextmanager
    def _slot(self, name, semaphore):
        semaphore.acquire()
        with self._guard:
            count = self._in_flight.get(name, 0) + 1
            self._in_flight[name] = count
            self.peak[name] = max(self.peak.get(name, 0), count)
            self.acquired[name] = self.acquired.get(name, 0) + 1
        yield  # bug: no try/finally — an exception skips everything below
        with self._guard:
            self._in_flight[name] -= 1
            self.released[name] = self.released.get(name, 0) + 1
        semaphore.release()


def rogue_metrics_write(collector) -> threading.Thread:
    """Start a worker that mutates the coordinator's collector directly."""

    def worker():
        collector.charge_seconds(1.0)  # bug: belongs on a local + merge

    thread = threading.Thread(target=worker, name="rogue-writer")
    thread.start()
    return thread
