"""Telemetry exporters: JSON lines, Prometheus text format, ASCII panel.

All three are deterministic functions of the plane's state: keys sorted,
floats rounded to nanosecond resolution (matching `repro.trace.export`),
iteration orders defined by the registry's sorted identities. Two seeded
runs of the same workload export byte-identical telemetry — which is what
lets the replay tests treat the whole operational surface as an oracle.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.telemetry.instruments import Gauge, Histogram, MonotonicCounter

_ROUND = 9


def _round(value):
    if isinstance(value, float):
        return round(value, _ROUND)
    return value


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# JSON lines
# ---------------------------------------------------------------------------


def export_jsonl(plane) -> str:
    """The full operational record, one JSON object per line.

    Line kinds (a ``kind`` field tags each): ``window`` per closed
    time-series window, ``alert`` per alert lifecycle record, ``health``
    per source judgment, ``slo`` per tenant status — in that order, each
    kind internally ordered (windows by index, the rest by key).
    """
    lines = []
    for window in plane.series.windows:
        lines.append(_dumps({"kind": "window", **window.to_dict()}))
    for alert in plane.alerts.to_dicts():
        lines.append(_dumps({"kind": "alert", **alert}))
    for health in plane.health.to_dicts():
        lines.append(_dumps({"kind": "health", **health}))
    for status in plane.slo.to_dicts():
        lines.append(_dumps({"kind": "slo", **status}))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Prometheus text exposition format
# ---------------------------------------------------------------------------


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    rounded = round(value, _ROUND)
    if rounded == int(rounded):
        return str(int(rounded))
    return repr(rounded)


def _histogram_lines(histogram: Histogram) -> Iterable[str]:
    base_labels = list(histogram.labels)
    for bound, cumulative in histogram.cumulative_buckets():
        items = base_labels + [("le", _format_value(bound))]
        labels = "{" + ",".join(f'{k}="{v}"' for k, v in items) + "}"
        yield f"{histogram.name}_bucket{labels} {cumulative}"
    suffix = histogram.label_string()
    yield f"{histogram.name}_sum{suffix} {_format_value(histogram.sum)}"
    yield f"{histogram.name}_count{suffix} {histogram.count}"


def export_prometheus(plane) -> str:
    """Prometheus/OpenMetrics text exposition of every instrument."""
    lines = []
    for name, instruments in plane.registry.families():
        first = instruments[0]
        if first.description:
            lines.append(f"# HELP {name} {first.description}")
        lines.append(f"# TYPE {name} {first.kind}")
        for instrument in instruments:
            if isinstance(instrument, Histogram):
                lines.extend(_histogram_lines(instrument))
            elif isinstance(instrument, (MonotonicCounter, Gauge)):
                lines.append(
                    f"{instrument.name}{instrument.label_string()} "
                    f"{_format_value(instrument.value())}"
                )
    # derived health/SLO gauges ride along so one scrape sees everything
    for name in sorted(plane.health.sources):
        entry = plane.health.sources[name]
        for state in ("healthy", "degraded", "down"):
            flag = 1 if entry.state == state else 0
            lines.append(f'eii_source_health{{source="{name}",state="{state}"}} {flag}')
    for status in plane.slo.statuses():
        lines.append(
            f'eii_slo_error_burn_rate{{tenant="{status.tenant}"}} '
            f"{_format_value(status.error_burn_rate)}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# ASCII dashboard
# ---------------------------------------------------------------------------

_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: Iterable[float], width: int = 32) -> str:
    """Fixed-alphabet ASCII sparkline (deterministic, terminal-safe)."""
    values = list(values)[-width:]
    if not values:
        return ""
    top = max(values)
    if top <= 0:
        return _SPARK_LEVELS[0] * len(values)
    out = []
    for value in values:
        level = int((value / top) * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[max(0, min(level, len(_SPARK_LEVELS) - 1))])
    return "".join(out)


#: a failed call's two families: reported by a resilience manager, or not
_FAILURE_KEYS = ("eii_source_failures_total", 'eii_fetches_total{outcome="error"')


def render_dashboard(plane) -> str:
    """One terminal panel: headline counters, health, SLOs, alerts."""
    lines = ["== telemetry =="]
    windows = plane.series.windows
    lines.append(
        f"windows: {plane.series.closed} closed x {plane.series.window_s:g}s "
        f"(retaining {len(windows)}); now={plane.now():.3f}s"
    )
    fetch_series = [
        sum(
            delta.get("count", 0) if isinstance(delta, dict) else 0
            for key, delta in window.deltas.items()
            if key.startswith("eii_fetch_latency_seconds")
        )
        for window in windows
    ]
    if any(fetch_series):
        lines.append(f"fetches/window:  [{sparkline(fetch_series)}]")
    failure_series = [
        sum(
            delta if isinstance(delta, (int, float)) else 0
            for key, delta in window.deltas.items()
            if key.startswith(_FAILURE_KEYS)
        )
        for window in windows
    ]
    if any(failure_series):
        lines.append(f"failures/window: [{sparkline(failure_series)}]")
    lines.append("")
    lines.append("-- source health --")
    lines.append(plane.health.render())
    lines.append("")
    lines.append("-- tenant SLOs --")
    lines.append(plane.slo.render())
    lines.append("")
    lines.append("-- alerts --")
    lines.append(plane.alerts.render())
    return "\n".join(lines)


__all__ = ["export_jsonl", "export_prometheus", "render_dashboard", "sparkline"]
