"""Operational telemetry plane: metrics, SLOs, source health, alerting.

Everything here is observe-only and deterministic on simulated time. The
`TelemetryPlane` facade is what the engine, resilience layer, and
workload scheduler hook into; `NULL_TELEMETRY` is the zero-cost default
that keeps the disabled path byte-identical to a build without this
package.
"""

from repro.telemetry.alerts import (
    CRITICAL,
    FIRING,
    INFO,
    RESOLVED,
    WARNING,
    Alert,
    AlertManager,
    ThresholdRule,
    ZScoreRule,
)
from repro.telemetry.export import (
    export_jsonl,
    export_prometheus,
    render_dashboard,
    sparkline,
)
from repro.telemetry.health import (
    DEGRADED,
    DOWN,
    HEALTHY,
    HealthModel,
    HealthPolicy,
    SourceHealth,
)
from repro.telemetry.instruments import (
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    MonotonicCounter,
)
from repro.telemetry.plane import (
    NULL_TELEMETRY,
    NullTelemetry,
    TelemetryPlane,
    resolve_telemetry,
)
from repro.telemetry.slo import SloPolicy, SloStatus, SloTracker
from repro.telemetry.stats import Ewma, clamp, mean, percentile, safe_rate
from repro.telemetry.timeseries import (
    DEFAULT_RETENTION,
    DEFAULT_WINDOW_S,
    TimeSeries,
    Window,
)

__all__ = [
    "Alert",
    "AlertManager",
    "CRITICAL",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_RETENTION",
    "DEFAULT_WINDOW_S",
    "DEGRADED",
    "DOWN",
    "Ewma",
    "FIRING",
    "Gauge",
    "HEALTHY",
    "HealthModel",
    "HealthPolicy",
    "Histogram",
    "INFO",
    "MetricsRegistry",
    "MonotonicCounter",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "RESOLVED",
    "SloPolicy",
    "SloStatus",
    "SloTracker",
    "SourceHealth",
    "TelemetryPlane",
    "ThresholdRule",
    "TimeSeries",
    "WARNING",
    "Window",
    "ZScoreRule",
    "clamp",
    "export_jsonl",
    "export_prometheus",
    "mean",
    "percentile",
    "render_dashboard",
    "resolve_telemetry",
    "safe_rate",
    "sparkline",
]
