"""Trace exporters: stable JSON and the Chrome trace-event format.

`trace_to_json` is the canonical serialization: keys sorted, floats
rounded to nanoseconds, containers normalized — two runs of the same
query under the same seed and fault schedule produce byte-identical
output, which the determinism tests rely on.

`trace_to_chrome` emits the Trace Event Format understood by
``chrome://tracing`` and https://ui.perfetto.dev: complete (``"X"``)
events for spans, instant (``"i"``) events for span events, with the
layout's lane as the thread id so parallel fetches render side by side.
Both read the layout `Trace.finalize()` wrote; neither recomputes it.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.trace.span import Span, Trace

_ROUND = 9  # nanosecond resolution on the simulated clock


def _clean(value):
    """Normalize an attribute value into deterministic JSON-safe form."""
    if isinstance(value, float):
        return round(value, _ROUND)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, (frozenset, set)):
        return sorted(str(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_clean(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _clean(val) for key, val in value.items()}
    return str(value)


def span_to_dict(span: Span) -> dict:
    return {
        "name": span.name,
        "category": span.category,
        "start_s": round(span.start_s, _ROUND),
        "seconds": round(span.seconds, _ROUND),
        "self_seconds": round(span.self_seconds, _ROUND),
        "attrs": {str(key): _clean(val) for key, val in span.attrs.items()},
        "events": [
            {
                "name": event.name,
                "at_s": round(span.start_s + event.offset_s, _ROUND),
                "attrs": {str(k): _clean(v) for k, v in event.attrs.items()},
            }
            for event in span.events
        ],
        "children": [span_to_dict(child) for child in span.children],
    }


def trace_to_dict(trace: Trace) -> dict:
    return {
        "name": trace.root.name,
        "elapsed_seconds": round(trace.elapsed_seconds(), _ROUND),
        "work_seconds": round(trace.work_seconds(), _ROUND),
        "root": span_to_dict(trace.root),
    }


def trace_to_json(trace: Trace, indent: Optional[int] = None) -> str:
    return json.dumps(
        trace_to_dict(trace), sort_keys=True, indent=indent, separators=(",", ":")
        if indent is None
        else (",", ": "),
    )


def trace_to_chrome(trace: Trace) -> str:
    """Serialize to the Chrome/Perfetto trace-event JSON format."""
    events: list[dict] = []
    for span in trace.spans():
        start_us = round(span.start_s * 1e6, 3)
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": start_us,
                "dur": round(span.seconds * 1e6, 3),
                "pid": 1,
                "tid": span.lane,
                "args": {str(k): _clean(v) for k, v in span.attrs.items()},
            }
        )
        for event in span.events:
            events.append(
                {
                    "name": event.name,
                    "cat": span.category,
                    "ph": "i",
                    "ts": round((span.start_s + event.offset_s) * 1e6, 3),
                    "s": "t",
                    "pid": 1,
                    "tid": span.lane,
                    "args": {str(k): _clean(v) for k, v in event.attrs.items()},
                }
            )
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
