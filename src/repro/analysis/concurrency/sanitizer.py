"""Dynamic race sanitizer (EII504/EII506/EII507): Eraser with a fence.

`sanitize()` opens a window in which the process's locking and the
engine's concurrent hot paths are instrumented:

* `threading.Lock` / `RLock` / `Semaphore` / `BoundedSemaphore` are
  swapped for tracked wrappers, so the sanitizer always knows which locks
  the current thread holds.
* The cache store, the per-source record and the source limiter have
  their mutating methods wrapped to report shadow-table *accesses* — the
  classic Eraser lockset discipline: every shared variable starts
  `virgin`, becomes `exclusive` to its first thread, then `shared` /
  `shared-modified` once a second thread touches it; from then on its
  candidate lockset is intersected with the locks held at each access,
  and an empty candidate set on a `shared-modified` variable is an
  **EII504** lockset race — reported as a diagnostic carrying both stack
  fingerprints, never a crash.
* Pure lockset checking false-positives on fork/join hand-offs (the
  coordinator reads worker state after `join`, holding nothing). A
  coarse happens-before *fence* fixes that: `Thread.join` and a
  `concurrent.futures.wait` that leaves no future unfinished (how a
  coordinator joins its tasks on a long-lived executor) bump
  a global epoch, and a shadow entry last touched in an older epoch resets
  to exclusive-in-the-current-thread — ordering has been established, no
  lock required.
* Every `SourceLimiter` whose slots the window observed must be drained
  by the end of the window, else **EII506** (slot leak); every
  `MetricsCollector` constructed inside the window is owner-bound, and a
  cross-thread mutation reports **EII507** through the violation hook
  instead of raising.

The result is an `AnalysisReport` on the `RaceSanitizer` — the same
currency as the static passes, so the pytest `--race-sanitize` fixture
can simply assert `report.ok`.
"""

from __future__ import annotations

# loaded here, not on first use inside a window: its module-level lock must
# be a real one
import concurrent.futures.thread
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import AnalysisReport, error

# The real factories, captured before any patching can happen. The
# sanitizer's own internal lock must come from here — a tracked internal
# lock would recurse into the sanitizer from inside the sanitizer.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock
_REAL_CONDITION = threading.Condition

#: the sanitizer owning the current `sanitize()` window, if any
_ACTIVE: Optional["RaceSanitizer"] = None


def active() -> Optional["RaceSanitizer"]:
    return _ACTIVE


def _fingerprint(skip: int = 3, depth: int = 4) -> str:
    """A compact where-did-this-access-happen stamp for diagnostics."""
    frames = traceback.extract_stack()[: -skip][-depth:]
    return " <- ".join(
        f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno}:{frame.name}"
        for frame in reversed(frames)
    )


# ---------------------------------------------------------------------------
# Tracked lock wrappers
# ---------------------------------------------------------------------------


class _TrackedLock:
    """`threading.Lock` stand-in that reports holds to the sanitizer."""

    _kind = "lock"

    def __init__(self):
        self._inner = _REAL_LOCK()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got and _ACTIVE is not None:
            _ACTIVE._note_acquire(self)
        return got

    def release(self) -> None:
        if _ACTIVE is not None:
            _ACTIVE._note_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class _TrackedRLock(_TrackedLock):
    """`threading.RLock` stand-in; keeps Condition interoperability."""

    _kind = "rlock"

    def __init__(self):
        self._inner = _REAL_RLOCK()

    # threading.Condition duck-types against these when present; they must
    # exist on the RLock wrapper only (a plain Lock has none and Condition
    # then uses its generic acquire/release fallback).
    def _release_save(self):
        if _ACTIVE is not None:
            _ACTIVE._note_release(self, fully=True)
        return self._inner._release_save()

    def _acquire_restore(self, state) -> None:
        self._inner._acquire_restore(state)
        if _ACTIVE is not None:
            _ACTIVE._note_acquire(self)

    def _is_owned(self) -> bool:
        return self._inner._is_owned()


class _TrackedSemaphore:
    """Semaphore stand-in; a held slot participates in locksets too.

    Implemented natively on the pre-captured primitives rather than by
    wrapping `threading.Semaphore`: the stdlib classes build their
    internals by resolving `Semaphore`/`Lock` through threading's module
    globals — which the window patches — so constructing a real one
    mid-window would recurse straight back into these wrappers.
    """

    _kind = "semaphore"
    _bounded = False

    def __init__(self, value: int = 1):
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self._cond = _REAL_CONDITION(_REAL_LOCK())
        self._value = value
        self._initial_value = value

    def acquire(self, blocking: bool = True, timeout: Optional[float] = None) -> bool:
        got = False
        endtime = None
        with self._cond:
            while self._value == 0:
                if not blocking:
                    break
                if timeout is not None:
                    if endtime is None:
                        endtime = time.monotonic() + timeout
                    else:
                        timeout = endtime - time.monotonic()
                        if timeout <= 0:
                            break
                self._cond.wait(timeout)
            else:
                self._value -= 1
                got = True
        if got and _ACTIVE is not None:
            _ACTIVE._note_acquire(self)
        return got

    def release(self, n: int = 1) -> None:
        with self._cond:
            if self._bounded and self._value + n > self._initial_value:
                raise ValueError("Semaphore released too many times")
            self._value += n
            for _ in range(n):
                self._cond.notify()
        if _ACTIVE is not None:
            _ACTIVE._note_release(self)

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class _TrackedBoundedSemaphore(_TrackedSemaphore):
    _bounded = True


_TRACKED_TYPES = (_TrackedLock, _TrackedSemaphore)


# ---------------------------------------------------------------------------
# Shadow table (Eraser state machine + epoch fence)
# ---------------------------------------------------------------------------

_VIRGIN, _EXCLUSIVE, _SHARED, _SHARED_MODIFIED = range(4)


@dataclass
class _ShadowEntry:
    state: int = _VIRGIN
    owner: int = 0  # thread ident while exclusive
    lockset: Optional[Set[int]] = None  # candidate locks (ids); None = all
    epoch: int = 0
    first_where: str = ""
    reported: bool = False


@dataclass
class RaceSanitizer:
    """One `sanitize()` window's held-lock map, shadow table and report."""

    report: AnalysisReport = field(default_factory=AnalysisReport)
    epoch: int = 0
    _held: Dict[int, List[int]] = field(default_factory=dict)
    _shadow: Dict[Tuple[int, str], _ShadowEntry] = field(default_factory=dict)
    _labels: Dict[Tuple[int, str], str] = field(default_factory=dict)
    _limiters: List[object] = field(default_factory=list)
    _internal: object = field(default_factory=_REAL_LOCK, repr=False)

    # -- lock bookkeeping (called from the tracked wrappers) ---------------------

    def _note_acquire(self, lock) -> None:
        with self._internal:
            self._held.setdefault(threading.get_ident(), []).append(id(lock))

    def _note_release(self, lock, fully: bool = False) -> None:
        with self._internal:
            held = self._held.get(threading.get_ident(), [])
            target = id(lock)
            for i in range(len(held) - 1, -1, -1):
                if held[i] == target:
                    del held[i]
                    if not fully:
                        break

    def held_locks(self) -> Set[int]:
        with self._internal:
            return set(self._held.get(threading.get_ident(), ()))

    # -- happens-before fence ----------------------------------------------------

    def fence(self) -> None:
        """Establish ordering: join/wait happened, old epochs are safe."""
        with self._internal:
            self.epoch += 1

    # -- the Eraser machine ------------------------------------------------------

    def access(self, obj, attr: str, write: bool, where: Optional[str] = None) -> None:
        """Record one shared access to `obj.attr` under the current lockset."""
        key = (id(obj), attr)
        ident = threading.get_ident()
        where = where or _fingerprint()
        with self._internal:
            held = set(self._held.get(ident, ()))
            entry = self._shadow.get(key)
            if entry is None:
                entry = self._shadow[key] = _ShadowEntry()
                self._labels[key] = f"{type(obj).__name__}.{attr}"
            if entry.epoch < self.epoch:
                # a fence separated us from every earlier access: ordering
                # is established, restart the discipline from here
                entry.state = _EXCLUSIVE
                entry.owner = ident
                entry.lockset = None
                entry.epoch = self.epoch
                entry.first_where = where
                return
            entry.epoch = self.epoch
            if entry.state == _VIRGIN:
                entry.state = _EXCLUSIVE
                entry.owner = ident
                entry.first_where = where
                return
            if entry.state == _EXCLUSIVE:
                if entry.owner == ident:
                    return
                entry.state = _SHARED_MODIFIED if write else _SHARED
                entry.lockset = held
            else:
                if write:
                    entry.state = _SHARED_MODIFIED
                entry.lockset = (
                    held if entry.lockset is None else entry.lockset & held
                )
            if entry.state == _SHARED_MODIFIED and not entry.lockset and not entry.reported:
                entry.reported = True
                self.report.add(
                    error(
                        "EII504",
                        f"lockset race on {self._labels[key]}: conflicting "
                        f"accesses from two threads share no lock",
                        hint=(
                            f"first access at [{entry.first_where}]; "
                            f"racing access at [{where}]"
                        ),
                        origin="race-sanitizer",
                    )
                )

    # -- limiter drain audit -----------------------------------------------------

    def watch_limiter(self, limiter) -> None:
        with self._internal:
            if all(existing is not limiter for existing in self._limiters):
                self._limiters.append(limiter)

    def note_owner_violation(self, collector, writer: threading.Thread) -> None:
        owner = getattr(collector, "owner_thread", None)
        self.report.add(
            error(
                "EII507",
                f"MetricsCollector bound to thread "
                f"{getattr(owner, 'name', '?')!r} was mutated from "
                f"{writer.name!r}: single-writer discipline violated",
                hint="give the worker its own collector and merge on the "
                "coordinator after the pool drains",
                origin="race-sanitizer",
            )
        )

    def finalize(self) -> AnalysisReport:
        for limiter in self._limiters:
            if not limiter.drained():
                snapshot = limiter.snapshot()
                leaks = {
                    name: count - snapshot["released"].get(name, 0)
                    for name, count in snapshot["acquired"].items()
                    if count != snapshot["released"].get(name, 0)
                }
                self.report.add(
                    error(
                        "EII506",
                        f"concurrency-slot leak: {leaks} slot(s) acquired "
                        f"but never released",
                        hint="release slots in a finally: block so failures "
                        "cannot strand the semaphore",
                        origin="race-sanitizer",
                    )
                )
        return self.report


# ---------------------------------------------------------------------------
# Instrumentation helpers
# ---------------------------------------------------------------------------


def _guard_is_tracked(obj, guard_attr: Optional[str]) -> bool:
    """Only report accesses whose guard the sanitizer can actually see.

    An object constructed *before* the window holds real (untracked)
    locks; its guarded accesses would look guard-free and false-positive.
    """
    if guard_attr is None:
        return True
    return isinstance(getattr(obj, guard_attr, None), _TRACKED_TYPES)


def instrument_method(cls, method_name: str, attrs, write: bool = True,
                      guard_attr: Optional[str] = None):
    """Patch `cls.method_name` to report shadow accesses; returns an undo.

    Reused by `sanitize()` for the engine's hot paths and by the seeded
    corpus to instrument its intentionally-racy classes.
    """
    original = getattr(cls, method_name)

    @wraps(original)
    def wrapper(self, *args, **kwargs):
        sanitizer = _ACTIVE
        if sanitizer is not None and _guard_is_tracked(self, guard_attr):
            where = _fingerprint(skip=2)
            if guard_attr is not None:
                # record while *holding* the guard (released again before
                # delegating, so non-reentrant guards cannot self-deadlock)
                # — the shadow access must see the lockset the real access
                # runs under, not the wrapper's
                with getattr(self, guard_attr):
                    for attr in attrs:
                        sanitizer.access(self, attr, write, where=where)
            else:
                for attr in attrs:
                    sanitizer.access(self, attr, write, where=where)
        return original(self, *args, **kwargs)

    setattr(cls, method_name, wrapper)

    def undo():
        setattr(cls, method_name, original)

    return undo


def _patch(owner, name: str, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement)

    def undo():
        setattr(owner, name, original)

    return undo


def _instrument_engine_hot_paths() -> List:
    """Wrap the known concurrent mutators; returns the undo list."""
    from repro.cache.store import BoundedStore
    from repro.netsim import metrics as metrics_module
    from repro.federation.limits import SourceLimiter
    from repro.trace.scoreboard import QueryScoreboard

    undos: List = []

    for method in ("put", "lookup", "invalidate_tag", "invalidate_key", "clear"):
        undos.append(
            instrument_method(
                BoundedStore, method, ("_entries",), guard_attr="_lock"
            )
        )
    # the engine's source record: every caller thread writes it per statement
    for method in ("statement", "count"):
        undos.append(
            instrument_method(
                QueryScoreboard, method, ("sources",), guard_attr="_lock"
            )
        )

    # limiter: register instances for the exit-time drain audit, and shadow
    # the counter dicts (guarded by _guard) like any other hot path. Patched
    # on `slot` (not `_slot`) so subclasses overriding the inner context
    # manager — the corpus's LeakyLimiter — are still watched.
    original_slot = SourceLimiter.slot

    @wraps(original_slot)
    def watched_slot(self, source_name):
        sanitizer = _ACTIVE
        if sanitizer is not None:
            sanitizer.watch_limiter(self)
            if _guard_is_tracked(self, "_guard"):
                with self._guard:
                    sanitizer.access(self, "_in_flight", True, where=_fingerprint(skip=2))
        return original_slot(self, source_name)

    undos.append(_patch(SourceLimiter, "slot", watched_slot))

    # metrics: bind every collector constructed inside the window to its
    # constructing thread, and route violations to EII507 diagnostics
    original_post_init = metrics_module.MetricsCollector.__post_init__

    @wraps(original_post_init)
    def binding_post_init(self):
        original_post_init(self)
        self.bind_owner()

    undos.append(_patch(metrics_module.MetricsCollector, "__post_init__", binding_post_init))
    hooked = metrics_module._OWNER_VIOLATION_HOOK
    metrics_module._OWNER_VIOLATION_HOOK = (
        lambda collector, writer: _ACTIVE is not None
        and _ACTIVE.note_owner_violation(collector, writer)
    )
    undos.append(lambda: setattr(metrics_module, "_OWNER_VIOLATION_HOOK", hooked))

    # happens-before fences on the two fork-join points: threads, executors
    original_join = threading.Thread.join

    @wraps(original_join)
    def fencing_join(self, timeout=None):
        original_join(self, timeout)
        if _ACTIVE is not None and not self.is_alive():
            _ACTIVE.fence()

    undos.append(_patch(threading.Thread, "join", fencing_join))

    original_wait = concurrent.futures.wait

    @wraps(original_wait)
    def fencing_wait(fs, timeout=None, return_when=concurrent.futures.ALL_COMPLETED):
        outcome = original_wait(fs, timeout, return_when)
        if _ACTIVE is not None and not outcome.not_done:
            _ACTIVE.fence()
        return outcome

    undos.append(_patch(concurrent.futures, "wait", fencing_wait))

    return undos


@contextmanager
def sanitize(instrument: bool = True):
    """Open a race-sanitized window; yields the `RaceSanitizer`.

    Inside the window every newly created `threading` lock is tracked,
    and (with `instrument=True`) the engine's concurrent hot paths report
    shadow accesses. On exit everything is unpatched and the sanitizer's
    `report` holds any EII504/EII506/EII507 findings; nothing raises.
    Windows do not nest.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("sanitize() windows do not nest")
    sanitizer = RaceSanitizer()
    undos: List = [
        _patch(threading, "Lock", _TrackedLock),
        _patch(threading, "RLock", _TrackedRLock),
        _patch(threading, "Semaphore", _TrackedSemaphore),
        _patch(threading, "BoundedSemaphore", _TrackedBoundedSemaphore),
    ]
    if instrument:
        undos.extend(_instrument_engine_hot_paths())
    _ACTIVE = sanitizer
    try:
        yield sanitizer
    finally:
        _ACTIVE = None
        for undo in reversed(undos):
            undo()
        sanitizer.finalize()
