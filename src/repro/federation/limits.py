"""Per-source concurrency limits on the caller threads of one engine.

Threads sharing one federated engine run their queries' component fetches
on themselves, so every one of them may be inside the same source at once.
The engine builds one `SourceLimiter` from ``EngineConfig.source_limits``
(`FederatedEngine.source_limiter`) and enters it around every round trip:
surplus callers block until a slot frees, leaving the other threads free
to make progress against healthy sources.

Wall-clock shaping only: simulated time comes from the metrics layer and
is untouched. The workload scheduler reads the same caps from the config
for its virtual per-source slots, so the simulated account and the thread
behavior agree.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext


class SourceLimiter:
    """Named counting semaphores with peak-concurrency instrumentation.

    Every instrumentation counter (`_in_flight`, `peak`, `acquired`,
    `released`) is read and written only under `_guard` — caller threads hit
    these paths concurrently, and an unguarded `dict[name] += 1` is a
    lost-update race the concurrency lint (EII502) would rightly flag.
    """

    def __init__(self, limits: dict):
        """`limits` maps source name -> max concurrent calls; a source not
        named is unlimited."""
        self.limits = {name.lower(): limit for name, limit in limits.items()}
        self._semaphores = {
            name: threading.BoundedSemaphore(limit) for name, limit in self.limits.items()
        }
        self._guard = threading.Lock()
        self._in_flight: dict[str, int] = {}
        #: highest concurrency ever observed per source (for assertions)
        self.peak: dict[str, int] = {}
        #: cumulative slot acquisitions / releases per source; `drained()`
        #: compares the two so the sanitizer can prove no slot leaked
        self.acquired: dict[str, int] = {}
        self.released: dict[str, int] = {}

    def slot(self, source_name: str):
        """Context manager holding one concurrency slot against the source."""
        name = source_name.lower()
        semaphore = self._semaphores.get(name)
        if semaphore is None:
            return nullcontext()
        return self._slot(name, semaphore)

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
