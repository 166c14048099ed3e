"""Span trees over simulated time.

A `Trace` is a tree of `Span`s describing one federated query end to end:
parse → plan → per-source fetches (parallel) → assembly (bind joins +
local operators) → final transfer. Every duration is *simulated* seconds
(the same `SimClock`-compatible accounting the `MetricsCollector` uses),
never wall time, so a trace is deterministic: the same query under the
same seed and fault schedule serializes byte-for-byte identically.

Spans carry their own work in `self_seconds`; a span's `total_seconds()`
adds its children laid out either serially (the default) or list-scheduled
over `parallel_slots` worker lanes — the same `makespan` the engine
charges its prefetches by, so the root span's extent equals the query's
`elapsed_seconds`. Point-in-time `Event`s (``cache.stale_hit``, ``retry``,
``breaker.open``, ``degraded``) hang off spans at offsets on the same
simulated timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional


def makespan(durations: list, workers: int) -> float:
    """List-scheduled elapsed time of `durations` over `workers` slots."""
    if not durations:
        return 0.0
    slots = [0.0] * max(1, min(workers, len(durations)))
    for duration in durations:
        slot = min(range(len(slots)), key=lambda i: slots[i])
        slots[slot] += duration
    return max(slots)


@dataclass
class Event:
    """A point-in-time annotation on a span (offset from the span start)."""

    name: str
    offset_s: float = 0.0
    attrs: dict = field(default_factory=dict)


class Span:
    """One timed node of a trace tree.

    `self_seconds` is the span's own simulated work; children add theirs
    on top (serially, or in parallel lanes when `parallel_slots` is set).
    `clock_base` is scratch state for event offsets: callers record their
    collector's `simulated_seconds` here on entry, so later events can be
    placed at ``collector.simulated_seconds - clock_base``.
    """

    __slots__ = (
        "name",
        "category",
        "attrs",
        "events",
        "children",
        "self_seconds",
        "parallel_slots",
        "start_s",
        "lane",
        "clock_base",
    )

    def __init__(
        self,
        name: str,
        category: str = "span",
        parallel_slots: Optional[int] = None,
        **attrs,
    ):
        self.name = name
        self.category = category
        self.attrs: dict = dict(attrs)
        self.events: list[Event] = []
        self.children: list["Span"] = []
        self.self_seconds = 0.0
        self.parallel_slots = parallel_slots
        self.start_s = 0.0
        self.lane = 0
        self.clock_base = 0.0

    # -- construction ------------------------------------------------------------

    def child(
        self,
        name: str,
        category: str = "span",
        parallel_slots: Optional[int] = None,
        **attrs,
    ) -> "Span":
        span = Span(name, category, parallel_slots, **attrs)
        self.children.append(span)
        return span

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def event(self, name: str, offset_s: float = 0.0, **attrs) -> Event:
        event = Event(name, max(0.0, offset_s), dict(attrs))
        self.events.append(event)
        return event

    def offset_from(self, collector) -> float:
        """Event offset for "now" per a collector's simulated clock."""
        return max(0.0, collector.simulated_seconds - self.clock_base)

    # -- timing ------------------------------------------------------------------

    def children_seconds(self) -> float:
        totals = [child.total_seconds() for child in self.children]
        if self.parallel_slots:
            return makespan(totals, self.parallel_slots)
        return sum(totals)

    def total_seconds(self) -> float:
        """The span's extent: children first, own work after."""
        return self.children_seconds() + self.self_seconds

    def work_seconds(self) -> float:
        """Sum of `self_seconds` over this subtree (parallelism-blind)."""
        return self.self_seconds + sum(c.work_seconds() for c in self.children)

    # -- traversal ---------------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, prefix: str) -> list["Span"]:
        return [span for span in self.walk() if span.name.startswith(prefix)]

    def __repr__(self):
        return (
            f"Span({self.name!r}, start={self.start_s:.6f}, "
            f"total={self.total_seconds():.6f}, children={len(self.children)})"
        )


class Trace:
    """The span tree for one query, plus exporters.

    `finalize()` lays the tree out on the simulated timeline (assigning
    `start_s` and a display `lane` to every span); exporters and the
    scoreboard expect a finalized trace.
    """

    def __init__(self, name: str, **attrs):
        self.root = Span(name, category="query", **attrs)
        self.finalized = False

    # -- layout ------------------------------------------------------------------

    def finalize(self) -> "Trace":
        self._layout(self.root, 0.0, 0)
        self.finalized = True
        return self

    def _layout(self, span: Span, start: float, lane: int) -> None:
        span.start_s = start
        span.lane = lane
        if span.parallel_slots and span.children:
            slots = [start] * max(1, min(span.parallel_slots, len(span.children)))
            for child in span.children:
                slot = min(range(len(slots)), key=lambda i: slots[i])
                self._layout(child, slots[slot], lane + slot)
                slots[slot] += child.total_seconds()
        else:
            cursor = start
            for child in span.children:
                self._layout(child, cursor, lane)
                cursor += child.total_seconds()

    # -- accessors ---------------------------------------------------------------

    def spans(self) -> Iterator[Span]:
        return self.root.walk()

    def find(self, name: str) -> Optional[Span]:
        return self.root.find(name)

    def find_all(self, prefix: str) -> list[Span]:
        return self.root.find_all(prefix)

    def elapsed_seconds(self) -> float:
        return self.root.total_seconds()

    def work_seconds(self) -> float:
        return self.root.work_seconds()

    def sum_attr(self, key: str) -> float:
        """Sum a numeric span attribute (e.g. payload_bytes) over the tree."""
        total = 0
        for span in self.spans():
            value = span.attrs.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total += value
        return total

    def event_names(self) -> list[str]:
        return [event.name for span in self.spans() for event in span.events]

    # -- exporters (implemented in repro.trace.export) ---------------------------

    def to_dict(self) -> dict:
        from repro.trace.export import trace_to_dict

        return trace_to_dict(self)

    def to_json(self, indent: Optional[int] = None) -> str:
        from repro.trace.export import trace_to_json

        return trace_to_json(self, indent=indent)

    def to_chrome(self) -> str:
        from repro.trace.export import trace_to_chrome

        return trace_to_chrome(self)

    def pretty(self) -> str:
        """Indented text rendering of the span tree (debug aid)."""
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            lines.append(
                "  " * depth
                + f"{span.name} [{span.start_s:.6f}s +{span.total_seconds():.6f}s]"
            )
            for event in span.events:
                lines.append(
                    "  " * (depth + 1) + f"@{span.start_s + event.offset_s:.6f}s {event.name}"
                )
            for child in span.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)
