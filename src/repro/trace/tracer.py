"""Tracers: the on/off switch for span trees.

The engine's default is `NullTracer`: no tree is built, and the query path
is the same either way (it writes no span; a finished query's tree is built
from its execution's record, `repro.trace.build`, only for a real tracer).

A real `Tracer` lays each finished tree out (`finish`), then lists and
counts it — so `last` and `traces` never hand out a trace still being
written — and keeps recent session-scoped events (cache invalidations
happen *between* queries). What each source did is not a trace fact: the
engine's own record, ``engine.scoreboard``, holds it, traced or not.
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

    def finish(self, trace: Trace) -> Trace:
        """Lay a finished query's tree out, then list and count it."""
        trace.finalize()
        self.traces.append(trace)
        self.finished += 1
        return trace

    def session_event(self, name: str, **attrs) -> None:
        """Record a cross-query event (e.g. a cache invalidation)."""
        self.session_events.append((name, dict(attrs)))

    @property
    def last(self) -> Optional[Trace]:
        return self.traces[-1] if self.traces else None


#: Shared no-op instance; safe because it holds no state.
NULL_TRACER = NullTracer()
