"""Per-source health derivation: healthy / degraded / down.

The mediator is the one place that sees every source's behavior across
every query — the natural interposition point for operational metadata
about sources the enterprise does not control. `HealthModel` fuses, per
aligned window — each source's delta of the engine's per-source record
(`repro.trace.SourceStats`) since the last close:

* **latency** — the window's mean fetch latency versus the source's own
  EWMA history (z-score rule: a source is judged against *itself*, so a
  slow-but-steady mainframe never pages while a regressing one does);
* **failures** — the window's failure rate, with separate degraded/down
  thresholds;
* **circuit-breaker state** — an open breaker is DOWN by definition (the
  resilience layer already refuses to call the source);
* **cache hit decay** — a collapsing hit rate means the cache stopped
  masking the source, so user-visible latency is about to regress even
  if the source itself looks unchanged.

State transitions are recorded with their reasons and mirrored into the
`AlertManager` (key ``health.<source>``) so a degradation has a
firing→resolved lifecycle. Deriving state from *observed* windows rather
than static declarations is the quality-criteria mediation idea: sources
are scored by what they did, not what they promised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.telemetry.alerts import CRITICAL, WARNING, AlertManager
from repro.telemetry.stats import Ewma

HEALTHY = "healthy"
DEGRADED = "degraded"
DOWN = "down"

_SEVERITY = {DEGRADED: WARNING, DOWN: CRITICAL}


# Thresholds of the per-window fusion rules.
#: window mean latency this many deviations above the source's EWMA
#: baseline marks it degraded
LATENCY_Z = 3.0
#: also degraded when window mean latency exceeds baseline by this
#: factor (catches regressions too early for the z-score's history)
LATENCY_FACTOR = 4.0
#: window failure-rate thresholds
FAILURE_RATE_DEGRADED = 0.25
FAILURE_RATE_DOWN = 0.75
#: cache hit rate under `CACHE_HIT_DROP` × its EWMA baseline degrades
CACHE_HIT_DROP = 0.5


@dataclass
class HealthPolicy:
    """Recovery and baseline knobs of the per-window fusion rules."""

    #: windows of touch-free or clean observation before re-marking healthy
    recovery_windows: int = 1
    #: EWMA smoothing for the latency / hit-rate baselines
    alpha: float = 0.3
    #: baseline windows required before the z-score rule may fire
    min_baseline_windows: int = 2


@dataclass
class SourceHealth:
    """One source's current judgment plus the history that produced it."""

    name: str
    state: str = HEALTHY
    since_s: float = 0.0
    reasons: tuple = ()
    breaker_state: str = "closed"
    #: ``(at_s, from_state, to_state, reasons)`` in observation order
    transitions: list = field(default_factory=list)
    latency_baseline: Ewma = field(default_factory=Ewma)
    hit_rate_baseline: Ewma = field(default_factory=Ewma)
    clean_windows: int = 0

    def to_dict(self) -> dict:
        return {
            "source": self.name,
            "state": self.state,
            "since_s": round(self.since_s, 9),
            "reasons": list(self.reasons),
            "breaker": self.breaker_state,
            "transitions": len(self.transitions),
        }


class HealthModel:
    """Folds per-window source stats + breaker state into health states."""

    def __init__(
        self, policy: Optional[HealthPolicy] = None, alerts: Optional[AlertManager] = None
    ):
        self.policy = policy or HealthPolicy()
        self.alerts = alerts
        self.sources: dict[str, SourceHealth] = {}

    def _entry(self, source: str) -> SourceHealth:
        name = source.lower()
        entry = self.sources.get(name)
        if entry is None:
            entry = self.sources[name] = SourceHealth(name)
        return entry

    # -- inputs ------------------------------------------------------------------

    def note_breaker(self, source: str, state: str, at_s: float) -> None:
        """Record a breaker transition (pushed by the resilience layer)."""
        entry = self._entry(source)
        entry.breaker_state = state
        if state == "open":
            # an open breaker is authoritative: don't wait for window close
            self._set_state(entry, DOWN, at_s, ("breaker_open",))

    def close_window(self, windows: dict, now: float) -> None:
        """Judge every known source for one closed window.

        `windows` maps source name → its `repro.trace.SourceStats` delta over
        the window (sources with no activity may be omitted; they are judged
        on breaker state and recovery counting only).
        """
        for source in sorted(set(windows) | set(self.sources)):
            self._judge(self._entry(source), windows.get(source.lower()), now)

    # -- the per-window judgment -------------------------------------------------

    def _judge(self, entry: SourceHealth, window, now: float) -> None:
        policy = self.policy
        if entry.breaker_state == "open":
            self._set_state(entry, DOWN, now, ("breaker_open",))
            entry.clean_windows = 0
            return
        if window is None or not window.touched:
            # an untouched window says nothing bad; count toward recovery
            self._recover(entry, now)
            return
        reasons = []
        failure_rate = window.failure_rate
        if failure_rate >= FAILURE_RATE_DOWN:
            reasons.append("failure_rate")
            self._update_baselines(entry, window, latency=False)
            self._set_state(entry, DOWN, now, tuple(reasons))
            entry.clean_windows = 0
            return
        if failure_rate >= FAILURE_RATE_DEGRADED:
            reasons.append("failure_rate")
        mean_latency = window.mean_latency_s
        baseline = entry.latency_baseline
        if window.answers > 0 and baseline.count >= policy.min_baseline_windows:
            z = baseline.zscore(mean_latency)
            factor_breach = (
                baseline.mean > 0
                and mean_latency >= LATENCY_FACTOR * baseline.mean
            )
            if z >= LATENCY_Z or factor_breach:
                reasons.append("latency")
        hit_rate = window.cache_hit_rate
        hit_baseline = entry.hit_rate_baseline
        if (
            (window.cache_hits + window.cache_misses) > 0
            and hit_baseline.count >= policy.min_baseline_windows
            and hit_baseline.mean > 0.2
            and hit_rate < CACHE_HIT_DROP * hit_baseline.mean
        ):
            reasons.append("cache_decay")
        if reasons:
            self._set_state(entry, DEGRADED, now, tuple(reasons))
            entry.clean_windows = 0
        else:
            self._update_baselines(entry, window, latency=window.answers > 0)
            self._recover(entry, now)

    def _update_baselines(self, entry: SourceHealth, window, latency: bool) -> None:
        """Baselines learn only from windows judged clean for that signal."""
        if latency:
            entry.latency_baseline.update(window.mean_latency_s)
        if window.cache_hits + window.cache_misses > 0:
            entry.hit_rate_baseline.update(window.cache_hit_rate)

    def _recover(self, entry: SourceHealth, now: float) -> None:
        if entry.state == HEALTHY:
            return
        entry.clean_windows += 1
        if entry.clean_windows >= self.policy.recovery_windows:
            self._set_state(entry, HEALTHY, now, ("recovered",))
            entry.clean_windows = 0

    def _set_state(self, entry: SourceHealth, state: str, now: float, reasons: tuple) -> None:
        if entry.state != state:
            entry.transitions.append((now, entry.state, state, reasons))
            entry.state = state
            entry.since_s = now
        entry.reasons = reasons if state != HEALTHY else ()
        if self.alerts is not None:
            self.alerts.check(
                f"health.{entry.name}",
                state != HEALTHY,
                now,
                severity=_SEVERITY.get(state, WARNING),
                message=f"source {entry.name!r} {state}"
                + (f" ({', '.join(reasons)})" if state != HEALTHY else ""),
                state=state,
                reasons=list(reasons),
            )

    # -- reading -----------------------------------------------------------------

    def state(self, source: str) -> str:
        entry = self.sources.get(source.lower())
        return entry.state if entry is not None else HEALTHY

    @property
    def transition_count(self) -> int:
        return sum(len(entry.transitions) for entry in self.sources.values())

    def first_transition_to(self, source: str, state: str) -> Optional[tuple]:
        entry = self.sources.get(source.lower())
        if entry is None:
            return None
        for transition in entry.transitions:
            if transition[2] == state:
                return transition
        return None

    def to_dicts(self) -> list:
        return [self.sources[name].to_dict() for name in sorted(self.sources)]

    HEADERS = ("source", "state", "since_s", "breaker", "reasons", "transitions")

    def render(self) -> str:
        if not self.sources:
            return "health: no sources observed"
        rows = []
        for name in sorted(self.sources):
            entry = self.sources[name]
            rows.append(
                [
                    name,
                    entry.state.upper() if entry.state != HEALTHY else entry.state,
                    f"{entry.since_s:.3f}",
                    entry.breaker_state,
                    ",".join(entry.reasons) or "-",
                    str(len(entry.transitions)),
                ]
            )
        widths = [
            max(len(header), *(len(row[i]) for row in rows))
            for i, header in enumerate(self.HEADERS)
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(self.HEADERS, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)


__all__ = [
    "DEGRADED",
    "DOWN",
    "HEALTHY",
    "HealthModel",
    "HealthPolicy",
    "SourceHealth",
]
