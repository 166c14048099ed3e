"""Deterministic interleaving fuzzer (EII505/EII506): adversarial schedules.

Two scenarios over *real* threads whose interleavings are perturbed on
purpose:

* `run_limiter_scenario` — K threads pour through `SourceLimiter.slot`,
  optionally failing mid-slot; the observed peak must respect the cap
  and every slot must drain, else **EII506**.
* `fuzz_shared_engine` — N caller threads run the same SQL on *one*
  `FederatedEngine`, each blocking at the top of every `Execution.fetch`
  until the seeded schedule releases it, so their queries interleave
  fetch by fetch. Every caller's rows, metrics summary and simulated
  elapsed time must equal a serial run's (**EII505**) — the differential
  discipline of `test_sched_oracle.py`.

The scheduler is cooperative and name-based: worker threads `register`,
block at `point()`s, and `finish()` before any external wait, so the
seeded release order is reproducible run over run. A watchdog deadline
releases everything and marks the schedule `aborted` rather than hanging
the test process.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, List, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic, error

_DEFAULT_TIMEOUT = 20.0


class InterleaveSchedule:
    """Seeded cooperative scheduler over named threads.

    Participants `register(name)` before starting, block at
    `point(name, label)` while running, and `finish(name)` when they stop
    taking schedule points (including just before an external wait — a
    thread blocked outside the scheduler must not count as schedulable).
    Whenever every live participant is blocked, one is released, chosen
    by the seeded RNG; `history` records the release order so a failing
    seed replays exactly.
    """

    def __init__(self, seed: int, timeout: float = _DEFAULT_TIMEOUT):
        self.seed = seed
        self._rng = random.Random(seed)
        self._cond = threading.Condition()
        self._registered: set = set()
        self._finished: set = set()
        self._blocked: dict = {}  # name -> token for the current point
        self._timeout = timeout
        self.history: List[str] = []
        self.aborted = False

    def register(self, name: str) -> None:
        with self._cond:
            self._registered.add(name)

    def finish(self, name: str) -> None:
        with self._cond:
            self._finished.add(name)
            self._blocked.pop(name, None)
            self._maybe_release()
            self._cond.notify_all()

    def point(self, name: str, label: str = "") -> None:
        """Block until the schedule releases this thread."""
        token = object()
        with self._cond:
            if self.aborted or name in self._finished:
                return
            self._blocked[name] = token
            self._maybe_release()
            deadline = time.monotonic() + self._timeout
            while self._blocked.get(name) is token and not self.aborted:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # watchdog: some participant is stuck outside the
                    # scheduler — release everyone and flag the run
                    self.aborted = True
                    self._blocked.clear()
                    self._cond.notify_all()
                    return
                self._cond.wait(min(remaining, 0.25))

    def _maybe_release(self) -> None:
        # caller holds the condition
        live = self._registered - self._finished
        if self._blocked and set(self._blocked) == live:
            chosen = self._rng.choice(sorted(self._blocked))
            self.history.append(chosen)
            del self._blocked[chosen]
            self._cond.notify_all()


# ---------------------------------------------------------------------------
# Scenario: limiter handoff
# ---------------------------------------------------------------------------


def run_limiter_scenario(
    limiter,
    source: str = "src",
    n_threads: int = 16,
    seed: int = 0,
    fail_on: Sequence[int] = (),
    work: Optional[Callable[[int], None]] = None,
) -> List[Diagnostic]:
    """Hammer `limiter.slot(source)` from `n_threads`; audit peak + drain.

    Threads listed in `fail_on` raise inside their slot — the limiter
    must still release. Returns EII506 diagnostics (empty = clean).
    """
    rng = random.Random(seed)
    limit = limiter.limits.get(source.lower())
    start = threading.Barrier(n_threads)

    def worker(i: int) -> None:
        start.wait(_DEFAULT_TIMEOUT)
        time.sleep(rng.random() * 0.002)
        try:
            with limiter.slot(source):
                if work is not None:
                    work(i)
                if i in fail_on:
                    raise RuntimeError(f"injected failure in slot {i}")
        except RuntimeError:
            pass

    # daemons: a leaky limiter leaves later workers blocked in acquire()
    # forever — they must not block interpreter shutdown
    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(_DEFAULT_TIMEOUT)

    diagnostics: List[Diagnostic] = []
    origin = f"interleave[seed={seed}]"
    snapshot = limiter.snapshot()
    peak = snapshot["peak"].get(source, 0)
    if limit is not None and peak > limit:
        diagnostics.append(
            error(
                "EII506",
                f"peak concurrency {peak} exceeded the limit {limit} for "
                f"source {source!r}",
                origin=origin,
            )
        )
    if not limiter.drained():
        leaked = {
            name: count - snapshot["released"].get(name, 0)
            for name, count in snapshot["acquired"].items()
            if count != snapshot["released"].get(name, 0)
        }
        diagnostics.append(
            error(
                "EII506",
                f"slot leak after the run: {leaked}",
                hint="release slots in a finally: block so failures cannot "
                "strand the semaphore",
                origin=origin,
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# Scenario: caller threads sharing one engine
# ---------------------------------------------------------------------------


def _observe(result) -> tuple:
    rows = sorted(tuple(row) for row in result.relation.rows)
    return rows, result.metrics.summary(), result.elapsed_seconds


def _race(engine, sql: str, n_threads: int, schedule, timeout: float) -> dict:
    """`n_threads` callers of ``engine.query(sql)``, each stopped by `schedule`
    on arrival and at every `Execution.fetch`; caller -> observation, or the
    exception it raised (absent: it never returned)."""
    from repro.federation.execution import Execution

    fetch = Execution.fetch
    observed: dict = {}

    def gated_fetch(run, node, *args, **kwargs):
        schedule.point(threading.current_thread().name, "fetch")
        return fetch(run, node, *args, **kwargs)

    def caller(i: int) -> None:
        name = f"caller-{i}"
        try:
            schedule.point(name, "arrive")
            observed[i] = _observe(engine.query(sql))
        except Exception as exc:  # noqa: BLE001 — diffed, not crashed
            observed[i] = exc
        finally:
            schedule.finish(name)

    # daemons: a wedged caller must fail the diff, not hang interpreter exit
    threads = [
        threading.Thread(target=caller, args=(i,), name=f"caller-{i}", daemon=True)
        for i in range(n_threads)
    ]
    for thread in threads:
        schedule.register(thread.name)
    Execution.fetch = gated_fetch
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        Execution.fetch = fetch
    return observed


def fuzz_shared_engine(
    engine_factory: Callable[[], object],
    sql: str,
    n_threads: int = 4,
    seeds: Sequence[int] = (0, 1, 2, 3),
    timeout: float = _DEFAULT_TIMEOUT,
) -> List[Diagnostic]:
    """Run `sql` from `n_threads` threads on one engine per seed; diff each.

    The seed's `InterleaveSchedule` lets one caller run at a time, from one
    `Execution.fetch` to its next, so the callers' queries interleave fetch
    by fetch in a replayable order. `engine_factory` builds a fresh engine
    per call; each serves `sql` once before the race, so no answer depends
    on which caller planned first. Every caller's rows, metrics summary and
    simulated elapsed time must equal the serial run's (EII505).
    """
    serial = engine_factory()
    serial.query(sql)
    oracle = _observe(serial.query(sql))
    diagnostics: List[Diagnostic] = []
    for seed in seeds:
        engine = engine_factory()
        engine.query(sql)
        schedule = InterleaveSchedule(seed, timeout)
        observed = _race(engine, sql, n_threads, schedule, timeout)
        origin = f"interleave[seed={seed}]"
        hint = f"release history: {schedule.history}"
        if schedule.aborted:
            diagnostics.append(
                error(
                    "EII505",
                    "schedule aborted: a caller wedged outside the scheduler "
                    "(possible deadlock under this interleaving)",
                    hint=hint,
                    origin=origin,
                )
            )
        for i in range(n_threads):
            got = observed.get(i)
            if not isinstance(got, tuple):
                outcome = "never returned" if got is None else f"raised {got!r}"
                diagnostics.append(
                    error(
                        "EII505",
                        f"caller-{i} {outcome} where the serial run answers",
                        hint=hint,
                        origin=origin,
                    )
                )
                continue
            for what, mine, expected in zip(
                ("rows", "metrics summary", "simulated elapsed"), got, oracle
            ):
                if mine != expected:
                    diagnostics.append(
                        error(
                            "EII505",
                            f"caller-{i}'s {what} diverged from the serial run: "
                            f"{mine!r} != {expected!r}",
                            hint=hint,
                            origin=origin,
                        )
                    )
    return diagnostics
