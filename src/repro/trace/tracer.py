"""Tracers: the on/off switch for span collection.

The engine's default is `NullTracer` — `begin()` returns None, every call
site guards on that, so tracing adds zero work and zero allocations when
off (and, by construction, zero behavioral difference: the traced and
untraced engines execute the same calls in the same order).

A real `Tracer` hands out `Trace` objects, keeps the recent ones, counts
the finished ones and keeps recent session-scoped events (cache
invalidations happen *between* queries). What each source did is not a
trace fact: the engine's own record, ``engine.scoreboard``, holds it,
traced or not.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.trace.span import Trace

#: Bound on retained traces and session events: a session must not grow forever.
DEFAULT_KEEP = 256


class NullTracer:
    """The no-op default: nothing is recorded, nothing is allocated."""

    enabled = False

    def begin(self, name: str, **attrs) -> None:
        return None

    def finish(self, trace) -> None:
        return None

    def session_event(self, name: str, **attrs) -> None:
        return None


class Tracer:
    """Collects `Trace`s for every query run while attached to an engine."""

    enabled = True

    def __init__(self, keep: int = DEFAULT_KEEP):
        self.keep = max(1, keep)
        self.traces: deque[Trace] = deque(maxlen=self.keep)
        #: traces finished so far, however many `keep` retains
        self.finished = 0
        self.session_events: deque[tuple[str, dict]] = deque(maxlen=self.keep)

    def begin(self, name: str, **attrs) -> Trace:
        trace = Trace(name, **attrs)
        self.traces.append(trace)
        return trace

    def finish(self, trace: Optional[Trace]) -> None:
        """Finalize a trace's layout and count it."""
        if trace is None:
            return
        trace.finalize()
        self.finished += 1

    def session_event(self, name: str, **attrs) -> None:
        """Record a cross-query event (e.g. a cache invalidation)."""
        self.session_events.append((name, dict(attrs)))

    @property
    def last(self) -> Optional[Trace]:
        return self.traces[-1] if self.traces else None


#: Shared no-op instance; safe because it holds no state.
NULL_TRACER = NullTracer()
