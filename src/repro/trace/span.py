"""Span trees over simulated time.

A `Trace` is a tree of `Span`s describing one federated query end to end:
parse → plan → per-source fetches (parallel) → assembly (bind joins +
local operators) → final transfer. Every duration is *simulated* seconds
(the same `SimClock`-compatible accounting the `MetricsCollector` uses),
never wall time, so a trace is deterministic: the same query under the
same seed and fault schedule serializes byte-for-byte identically.

A span records facts: its own work in `self_seconds`, its attributes and
its `Event`s (``cache.stale_hit``, ``retry``, ``breaker.open``,
``degraded``) at offsets from its start. `Trace.finalize()` lays the tree
out in one pass, writing each span's `start_s`, `lane` and extent
`seconds`: children run serially, or over `parallel_slots` lanes by
`list_schedule` — which `makespan`, the engine's charge for its
prefetches, is too, so the root's extent is the query's `elapsed_seconds`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional


def list_schedule(items: list, workers: int, place: Callable) -> float:
    """List-schedule `items`, in order, over `workers` slots; returns the makespan.

    Each item goes to the slot that frees first: ``place(item, offset, slot)``
    is told where it starts and returns how long it runs.
    """
    if not items:
        return 0.0
    slots = [0.0] * max(1, min(workers, len(items)))
    for item in items:
        slot = min(range(len(slots)), key=slots.__getitem__)
        slots[slot] += place(item, slots[slot], slot)
    return max(slots)


def makespan(durations: list, workers: int) -> float:
    """List-scheduled elapsed time of `durations` over `workers` slots."""
    return list_schedule(durations, workers, lambda duration, offset, slot: duration)


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
    `start_s`, `lane` and `seconds` (the extent: children first, own work
    after) are the layout, written by `Trace.finalize()`.
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
        "seconds",
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
        self.seconds = 0.0

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

    # -- timing ------------------------------------------------------------------

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
            f"total={self.seconds:.6f}, children={len(self.children)})"
        )


def _place(span: Span, start: float, lane: int) -> float:
    """Lay `span`'s subtree out from `start` on `lane`; returns its extent."""
    span.start_s = start
    span.lane = lane
    seconds = span.self_seconds
    if span.children:
        seconds += list_schedule(
            span.children,
            span.parallel_slots or 1,
            lambda child, offset, slot: _place(child, start + offset, lane + slot),
        )
    span.seconds = seconds
    return seconds


class Trace:
    """The span tree for one query, plus exporters.

    `finalize()` lays the tree out on the simulated timeline (assigning
    every span its `start_s`, display `lane` and extent `seconds`);
    exporters and `elapsed_seconds()` read a finalized trace.
    """

    def __init__(self, name: str, **attrs):
        self.root = Span(name, category="query", **attrs)
        self.finalized = False
        #: plan node ``id()`` -> its statement spans, in tree order (a query's)
        self.node_spans: dict[int, list] = {}

    # -- layout ------------------------------------------------------------------

    def finalize(self) -> "Trace":
        _place(self.root, 0.0, 0)
        self.finalized = True
        return self

    # -- accessors ---------------------------------------------------------------

    def spans(self) -> Iterator[Span]:
        return self.root.walk()

    def find(self, name: str) -> Optional[Span]:
        return self.root.find(name)

    def find_all(self, prefix: str) -> list[Span]:
        return self.root.find_all(prefix)

    def elapsed_seconds(self) -> float:
        return self.root.seconds

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
                + f"{span.name} [{span.start_s:.6f}s +{span.seconds:.6f}s]"
            )
            for event in span.events:
                lines.append(
                    "  " * (depth + 1) + f"@{span.start_s + event.offset_s:.6f}s {event.name}"
                )
            for child in span.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)
