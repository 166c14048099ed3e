"""Concurrency correctness toolkit: every EII5xx code proves itself.

Mirrors the every-code-tested rule from `test_analysis.py`: each of the
seven EII5xx codes has at least one unit test that makes its detector
fire on a seeded bug, plus negative controls showing the shipped tree's
disciplined idioms (RLock reentrancy, merge-on-coordinator, guarded
check-then-act) do NOT fire. The real-thread regression tests for
`SourceLimiter` and for caller threads sharing one engine live here too —
they are what the toolkit exists to keep honest.
"""

import threading
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.concurrency import (
    InterleaveSchedule,
    fuzz_shared_engine,
    instrument_method,
    lint_concurrency,
    lint_lock_order,
    lint_shared_state,
    run_limiter_scenario,
    sanitize,
)
from repro.analysis.concurrency import interleave
from repro.analysis.concurrency.lockorder import build_lock_graph
from repro.analysis.diagnostics import CODES, Severity
from repro.netsim.metrics import MetricsCollector
from repro.federation.limits import SourceLimiter

from tests.concurrency_corpus.dynamic_bugs import (
    SHARED_ENGINE_SQL,
    LeakyLimiter,
    RacyCounter,
    race_increments,
    run_state_engine,
)
from tests.federation_fixtures import build_engine

# these tests seed bugs and open their own sanitize() windows
pytestmark = pytest.mark.race_sanitize_exempt

CORPUS = "tests/concurrency_corpus"


def codes_of(diagnostics):
    return sorted({d.code for d in diagnostics})


def corpus_source(name):
    path = f"{CORPUS}/{name}.py"
    with open(path) as handle:
        return [(path, handle.read())]


# ---------------------------------------------------------------------------
# EII501 — lock-order cycles
# ---------------------------------------------------------------------------


class TestLockOrder:
    def test_eii501_ab_ba_cycle(self):
        diagnostics = lint_lock_order(corpus_source("bug_lock_cycle"))
        assert codes_of(diagnostics) == ["EII501"]
        assert all(d.severity is Severity.ERROR for d in diagnostics)
        rendered = diagnostics[0].render()
        assert "_accounts_lock" in rendered and "_audit_lock" in rendered

    def test_eii501_interprocedural_cycle(self):
        # the nesting is spread across two methods joined by a self-call
        text = """
import threading

class Pipeline:
    def __init__(self):
        self._head_lock = threading.Lock()
        self._tail_lock = threading.Lock()

    def push(self):
        with self._head_lock:
            self._drain()

    def _drain(self):
        with self._tail_lock:
            pass

    def rewind(self):
        with self._tail_lock:
            with self._head_lock:
                pass
"""
        diagnostics = lint_lock_order([("pipeline.py", text)])
        assert codes_of(diagnostics) == ["EII501"]

    def test_eii501_self_deadlock_on_nonreentrant_lock(self):
        text = """
import threading

class Store:
    def __init__(self):
        self._lock = threading.Lock()

    def put(self):
        with self._lock:
            self.purge()

    def purge(self):
        with self._lock:
            pass
"""
        diagnostics = lint_lock_order([("store.py", text)])
        assert codes_of(diagnostics) == ["EII501"]
        assert "re-acquired" in diagnostics[0].message

    def test_rlock_reentrancy_not_flagged(self):
        # the BoundedStore idiom: put -> purge_expired under one RLock
        text = """
import threading

class Store:
    def __init__(self):
        self._lock = threading.RLock()

    def put(self):
        with self._lock:
            self.purge()

    def purge(self):
        with self._lock:
            pass
"""
        assert lint_lock_order([("store.py", text)]) == []

    def test_consistent_order_not_flagged(self):
        text = """
import threading

class Ledger:
    def __init__(self):
        self._a_lock = threading.Lock()
        self._b_lock = threading.Lock()

    def one(self):
        with self._a_lock:
            with self._b_lock:
                pass

    def two(self):
        with self._a_lock:
            with self._b_lock:
                pass
"""
        assert lint_lock_order([("ledger.py", text)]) == []

    def test_graph_edges_expose_witnesses(self):
        graph = build_lock_graph(corpus_source("bug_lock_cycle"))
        pairs = {(edge.held, edge.acquired) for edge in graph.edges}
        assert ("Ledger._accounts_lock", "Ledger._audit_lock") in pairs
        assert ("Ledger._audit_lock", "Ledger._accounts_lock") in pairs


# ---------------------------------------------------------------------------
# EII502 / EII503 — shared-state lint
# ---------------------------------------------------------------------------


class TestSharedState:
    def test_eii502_pool_vs_coordinator_write(self):
        diagnostics = lint_shared_state(corpus_source("bug_unguarded"))
        assert codes_of(diagnostics) == ["EII502"]
        attrs = {d.message.split(" ")[0] for d in diagnostics}
        assert attrs == {"Crawler.fetched", "Crawler.results"}

    def test_eii502_silent_when_both_sides_guarded(self):
        text = """
import threading
from concurrent.futures import ThreadPoolExecutor

class Crawler:
    def __init__(self):
        self._lock = threading.Lock()
        self.results = []

    def _fetch_one(self, url):
        with self._lock:
            self.results.append(url)

    def crawl(self, urls):
        with ThreadPoolExecutor() as pool:
            for url in urls:
                pool.submit(self._fetch_one, url)

    def reset(self):
        with self._lock:
            self.results = []
"""
        assert lint_shared_state([("crawler.py", text)]) == []

    def test_eii502_merge_on_coordinator_not_flagged(self):
        # the engine idiom: workers return values, coordinator merges
        text = """
from concurrent.futures import ThreadPoolExecutor

class Engine:
    def __init__(self):
        self.totals = []

    def _work(self, item):
        return item * 2

    def run(self, items):
        with ThreadPoolExecutor() as pool:
            futures = [pool.submit(self._work, item) for item in items]
        self.totals = [future.result() for future in futures]
"""
        assert lint_shared_state([("engine.py", text)]) == []

    def test_eii503_check_then_act(self):
        diagnostics = lint_shared_state(corpus_source("bug_check_then_act"))
        assert codes_of(diagnostics) == ["EII503"]
        assert diagnostics[0].severity is Severity.WARNING
        assert "_entries" in diagnostics[0].message

    def test_eii503_silent_when_test_is_inside_lock(self):
        text = """
import threading

class Registrar:
    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}

    def register(self, key, value):
        with self._lock:
            if key not in self._entries:
                self._entries[key] = value
                return True
        return False
"""
        assert lint_shared_state([("registrar.py", text)]) == []

    def test_eii503_silent_for_unlocked_classes(self):
        # single-threaded state: no lock anywhere, so no discipline to break
        text = """
class Memo:
    def __init__(self):
        self._memo = {}

    def get(self, key):
        if key not in self._memo:
            self._memo[key] = expensive(key)
        return self._memo[key]
"""
        assert lint_shared_state([("memo.py", text)]) == []


# ---------------------------------------------------------------------------
# EII504 — lockset race sanitizer
# ---------------------------------------------------------------------------


class TestRaceSanitizer:
    def test_eii504_racy_counter(self):
        undo = instrument_method(RacyCounter, "increment", ("value",))
        try:
            with sanitize() as sanitizer:
                counter = RacyCounter()
                race_increments(counter)
            assert sanitizer.report.has("EII504")
            [diagnostic] = [
                d for d in sanitizer.report if d.code == "EII504"
            ]
            assert "RacyCounter.value" in diagnostic.message
            assert diagnostic.hint  # both stack fingerprints attached
        finally:
            undo()

    def test_eii504_silent_when_guarded(self):
        class GuardedCounter:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0

            def increment(self, rounds=1):
                with self._lock:
                    self.value += rounds

        undo = instrument_method(
            GuardedCounter, "increment", ("value",), guard_attr="_lock"
        )
        try:
            with sanitize() as sanitizer:
                counter = GuardedCounter()
                threads = [
                    threading.Thread(target=counter.increment, args=(50,))
                    for _ in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            assert not sanitizer.report.has("EII504")
        finally:
            undo()

    def test_join_fence_kills_fork_join_false_positive(self):
        # worker writes, then coordinator reads after join: ordered, clean
        undo = instrument_method(RacyCounter, "increment", ("value",))
        try:
            with sanitize() as sanitizer:
                counter = RacyCounter()
                worker = threading.Thread(target=counter.increment, args=(10,))
                worker.start()
                worker.join()
                counter.increment(1)  # coordinator, after the fence
            assert not sanitizer.report.has("EII504")
        finally:
            undo()

    def test_futures_wait_fences_a_pool_that_outlives_the_query(self):
        # a long-lived executor is never shut down between batches: the
        # coordinator's join is `futures.wait` leaving nothing unfinished
        undo = instrument_method(RacyCounter, "increment", ("value",))
        pool = ThreadPoolExecutor(max_workers=2)
        try:
            with sanitize() as sanitizer:
                counter = RacyCounter()
                tasks = [pool.submit(counter.increment, 10)]
                futures.wait(tasks)
                counter.increment(1)  # coordinator, after the fence
            assert not sanitizer.report.has("EII504")
        finally:
            pool.shutdown()
            undo()

    def test_futures_wait_with_work_still_running_is_no_fence(self):
        undo = instrument_method(RacyCounter, "increment", ("value",))
        pool = ThreadPoolExecutor(max_workers=2)
        release = threading.Event()
        try:
            with sanitize() as sanitizer:
                counter = RacyCounter()
                tasks = [pool.submit(counter.increment, 10), pool.submit(release.wait, 10)]
                done, pending = futures.wait(tasks, return_when=futures.FIRST_COMPLETED)
                assert pending
                counter.increment(1)  # a sibling is in flight: not ordered
            assert sanitizer.report.has("EII504")
        finally:
            release.set()
            pool.shutdown()
            undo()

    def test_sanitize_unpatches_threading(self):
        real_lock_type = type(threading.Lock())
        with sanitize(instrument=False):
            assert type(threading.Lock()) is not real_lock_type
        assert type(threading.Lock()) is real_lock_type

    def test_sanitize_windows_do_not_nest(self):
        with sanitize(instrument=False):
            with pytest.raises(RuntimeError):
                with sanitize(instrument=False):
                    pass

    def test_engine_hot_paths_clean_under_sanitizer(self):
        # the shipped BoundedStore/SourceLimiter discipline must produce
        # zero findings when genuinely hammered
        from repro.cache.store import BoundedStore

        with sanitize() as sanitizer:
            store = BoundedStore("hammer", max_entries=64)
            limiter = SourceLimiter(limits={"src": 4})

            def worker(i):
                with limiter.slot("src"):
                    store.put(("k", i % 8), i, size_bytes=8)
                    store.get(("k", i % 8))

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert sanitizer.report.ok, sanitizer.report.render()
        assert not sanitizer.report.diagnostics


# ---------------------------------------------------------------------------
# EII505 — interleaving divergence
# ---------------------------------------------------------------------------


class TestInterleavingFuzzer:
    def test_eii505_run_state_on_the_engine_diverges(self):
        # invisible serially; the fixed seed lets a second caller start
        # between the first one's fetches
        diagnostics = fuzz_shared_engine(run_state_engine, SHARED_ENGINE_SQL, seeds=(3,))
        assert codes_of(diagnostics) == ["EII505"]
        assert any("metrics summary" in d.message for d in diagnostics)

    def test_schedule_deterministic_replay(self):
        def run(seed):
            schedule = InterleaveSchedule(seed)

            def caller(name):
                for label in ("arrive", "fetch", "fetch"):
                    schedule.point(name, label)
                schedule.finish(name)

            threads = [
                threading.Thread(target=caller, args=(f"t{i}",), name=f"t{i}")
                for i in range(4)
            ]
            for thread in threads:
                schedule.register(thread.name)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            return schedule.history

        assert run(7) == run(7)
        histories = {tuple(run(seed)) for seed in range(8)}
        assert len(histories) > 1  # the seed genuinely perturbs the order

    def test_threads_sharing_an_engine_match_the_serial_oracle(self, monkeypatch):
        histories = []

        class Recorded(InterleaveSchedule):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                histories.append(self.history)

        monkeypatch.setattr(interleave, "InterleaveSchedule", Recorded)
        diagnostics = fuzz_shared_engine(
            lambda: build_engine(parallel_workers=4), SHARED_ENGINE_SQL, seeds=(0, 1, 2)
        )
        assert diagnostics == [], [d.render() for d in diagnostics]
        assert len({tuple(history) for history in histories}) > 1  # the seed perturbs the order


# ---------------------------------------------------------------------------
# EII506 — slot leaks + the SourceLimiter regression
# ---------------------------------------------------------------------------


class TestLimiter:
    def test_eii506_leaky_limiter_scenario(self, monkeypatch):
        # the leak strands workers in acquire(): join them briefly, not for 20 s
        monkeypatch.setattr(interleave, "_DEFAULT_TIMEOUT", 1.0)
        limiter = LeakyLimiter(limits={"src": 2})
        diagnostics = run_limiter_scenario(
            limiter, n_threads=8, seed=1, fail_on=(2, 5)
        )
        assert codes_of(diagnostics) == ["EII506"]

    def test_eii506_sanitizer_drain_audit(self):
        with sanitize() as sanitizer:
            limiter = LeakyLimiter(limits={"src": 2})
            run_limiter_scenario(limiter, n_threads=6, seed=2, fail_on=(1,))
        assert sanitizer.report.has("EII506")

    def test_clean_limiter_survives_failures(self):
        limiter = SourceLimiter(limits={"src": 3})
        diagnostics = run_limiter_scenario(
            limiter, n_threads=12, seed=4, fail_on=(3, 7)
        )
        assert diagnostics == [], [d.render() for d in diagnostics]

    def test_sixteen_thread_hammer_counters_atomic(self):
        # the satellite regression: peak <= limit, every slot drained, and
        # the cumulative counters account for every single acquisition
        limiter = SourceLimiter(limits={"src": 4})
        rounds = 5
        threads = 16

        def worker():
            for _ in range(rounds):
                with limiter.slot("src"):
                    pass

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        snapshot = limiter.snapshot()
        assert snapshot["peak"]["src"] <= 4
        assert snapshot["acquired"]["src"] == threads * rounds
        assert snapshot["released"]["src"] == threads * rounds
        assert snapshot["in_flight"]["src"] == 0
        assert limiter.drained()

    def test_unlimited_source_needs_no_bookkeeping(self):
        limiter = SourceLimiter({"src": 1})
        with limiter.slot("anything"):
            pass
        assert limiter.drained()
        assert limiter.snapshot()["acquired"] == {}


# ---------------------------------------------------------------------------
# EII507 — single-writer discipline
# ---------------------------------------------------------------------------


class TestMetricsOwnership:
    def test_eii507_cross_thread_write_reported(self):
        from tests.concurrency_corpus.dynamic_bugs import rogue_metrics_write

        with sanitize() as sanitizer:
            coordinator = MetricsCollector()  # owner-bound by the window
            rogue = rogue_metrics_write(coordinator)
            rogue.join()
        assert sanitizer.report.has("EII507")

    def test_bound_collector_raises_outside_sanitizer(self):
        collector = MetricsCollector().bind_owner()
        failures = []

        def rogue():
            try:
                collector.charge_seconds(1.0)
            except AssertionError as exc:
                failures.append(exc)

        thread = threading.Thread(target=rogue)
        thread.start()
        thread.join()
        assert len(failures) == 1
        assert "single-writer" in str(failures[0])

    def test_owner_thread_itself_may_write(self):
        collector = MetricsCollector().bind_owner()
        collector.charge_seconds(0.5)
        assert collector.simulated_seconds == 0.5
        collector.unbind_owner()

    def test_unbound_collector_checks_nothing(self):
        collector = MetricsCollector()
        thread = threading.Thread(target=collector.charge_seconds, args=(1.0,))
        thread.start()
        thread.join()
        assert collector.simulated_seconds == 1.0

    def test_merge_and_reset_keep_owner_binding_intact(self):
        # owner_thread must not be a dataclass field the generic
        # merge/reset machinery would sum or zero
        left = MetricsCollector().bind_owner()
        right = MetricsCollector()
        right.charge_seconds(2.0)
        left.merge(right)
        assert left.simulated_seconds == 2.0
        assert left.owner_thread is threading.current_thread()
        left.reset()
        assert left.owner_thread is threading.current_thread()

    def test_engine_worker_collectors_clean_under_sanitizer(self):
        # each query's collectors are written and merged on its caller's
        # thread, so threads sharing one engine write none of another's
        sql = "SELECT c.name, o.total FROM customers c JOIN orders o ON c.id = o.cust_id"
        with sanitize() as sanitizer:
            engine = build_engine(parallel_workers=4)
            answers = []
            threads = [
                threading.Thread(target=lambda: answers.append(engine.query(sql)))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len(answers) == 4 and all(len(a.relation.rows) > 0 for a in answers)
        assert sanitizer.report.ok, sanitizer.report.render()


# ---------------------------------------------------------------------------
# Registry + CLI
# ---------------------------------------------------------------------------


class TestCodesAndCli:
    def test_every_eii5_code_registered(self):
        expected = {f"EII50{i}" for i in range(1, 8)}
        assert {code for code in CODES if code.startswith("EII5")} == expected

    def test_shipped_tree_is_clean(self):
        report = lint_concurrency(["src/repro"])
        assert report.ok, report.render()
        assert not report.diagnostics, report.render()

    def test_cli_strict_exits_zero_on_shipped_tree(self):
        from repro.analysis.concurrency.__main__ import main

        assert main(["--strict", "src/repro"]) == 0

    def test_cli_exits_nonzero_on_corpus(self, capsys):
        from repro.analysis.concurrency.__main__ import main

        assert main([f"{CORPUS}/bug_lock_cycle.py"]) == 1
        out = capsys.readouterr().out
        assert "EII501" in out

    def test_cli_strict_promotes_warnings(self, capsys):
        from repro.analysis.concurrency.__main__ import main

        path = f"{CORPUS}/bug_check_then_act.py"
        assert main([path]) == 0  # EII503 is warning severity
        assert main(["--strict", path]) == 1
        assert "EII503" in capsys.readouterr().out
