"""Per-source concurrency limits: caller threads and simulated slots.

Threads sharing one federated engine run their queries' component fetches
on themselves, so every one of them may be inside the same source at once.
A `SourceLimiter` attached to the engine
(``EngineConfig(source_limiter=...)``) caps how many caller threads may be
inside any one source's round trips at a time — surplus callers block until
a slot frees, leaving the other threads free to make progress against
healthy sources.

Wall-clock shaping only: simulated time comes from the metrics layer and
is untouched. The workload scheduler reads the engine's limiter
(`limit_for`) and applies the *same* per-source caps to its virtual
timeline, so the simulated account and the thread behavior agree.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from typing import Optional


class SourceLimiter:
    """Named counting semaphores with peak-concurrency instrumentation.

    Every instrumentation counter (`_in_flight`, `peak`, `acquired`,
    `released`) is read and written only under `_guard` — caller threads hit
    these paths concurrently, and an unguarded `dict[name] += 1` is a
    lost-update race the concurrency lint (EII502) would rightly flag.
    """

    def __init__(self, limits: Optional[dict] = None, default: Optional[int] = None):
        """`limits` maps source name -> max concurrent calls; `default`
        applies to unnamed sources (None = unlimited)."""
        self.limits = {name.lower(): limit for name, limit in (limits or {}).items()}
        self.default = default
        self._semaphores: dict[str, threading.BoundedSemaphore] = {}
        self._guard = threading.Lock()
        self._in_flight: dict[str, int] = {}
        #: highest concurrency ever observed per source (for assertions)
        self.peak: dict[str, int] = {}
        #: cumulative slot acquisitions / releases per source; `drained()`
        #: compares the two so the sanitizer can prove no slot leaked
        self.acquired: dict[str, int] = {}
        self.released: dict[str, int] = {}

    def limit_for(self, source_name: str) -> Optional[int]:
        return self.limits.get(source_name.lower(), self.default)

    def _semaphore(self, name: str, limit: int) -> threading.BoundedSemaphore:
        with self._guard:
            semaphore = self._semaphores.get(name)
            if semaphore is None:
                semaphore = self._semaphores[name] = threading.BoundedSemaphore(limit)
            return semaphore

    def slot(self, source_name: str):
        """Context manager holding one concurrency slot against the source."""
        name = source_name.lower()
        limit = self.limit_for(name)
        if limit is None:
            return nullcontext()
        return self._slot(name, self._semaphore(name, limit))

    @contextmanager
    def _slot(self, name: str, semaphore: threading.BoundedSemaphore):
        semaphore.acquire()
        with self._guard:
            count = self._in_flight.get(name, 0) + 1
            self._in_flight[name] = count
            self.peak[name] = max(self.peak.get(name, 0), count)
            self.acquired[name] = self.acquired.get(name, 0) + 1
        try:
            yield
        finally:
            with self._guard:
                self._in_flight[name] -= 1
                self.released[name] = self.released.get(name, 0) + 1
            semaphore.release()

    def in_flight(self, source_name: str) -> int:
        """Current slot holders for `source_name` (guarded read)."""
        with self._guard:
            return self._in_flight.get(source_name.lower(), 0)

    def drained(self) -> bool:
        """True when every acquired slot has been released."""
        with self._guard:
            return all(
                self.released.get(name, 0) == count
                for name, count in self.acquired.items()
            )

    def snapshot(self) -> dict:
        """Consistent copy of all counters, for assertions and telemetry."""
        with self._guard:
            return {
                "in_flight": dict(self._in_flight),
                "peak": dict(self.peak),
                "acquired": dict(self.acquired),
                "released": dict(self.released),
            }
