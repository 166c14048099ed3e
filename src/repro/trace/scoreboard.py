"""The engine's per-source record: what each source was observed to do.

The paper's operational question — *which source is the straggler?* — is
unanswerable from one flat counter bag. Every `FederatedEngine` keeps one
`QueryScoreboard` (``engine.scoreboard``), always on and written only by
the `repro.federation.execution.Recorder`. Its readers only read: the
shell's scoreboard and A6 (p50/p95, shares), the telemetry plane (its
per-source instruments, and each window's delta for the health model) and
LPT prediction (seconds per answered byte).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Optional

from repro.telemetry.instruments import Histogram
from repro.telemetry.stats import percentile, safe_rate

#: Latency history kept per source (a bounded log, like a source's `query_log`).
LATENCY_HISTORY = 1024


@dataclass
class SourceStats:
    """Accumulated accounting for one source; every field but the histories counts."""

    name: str
    #: component statements sent on this source's behalf (cache hits included)
    statements: int = 0
    seconds: float = 0.0
    rows: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: remote answers this source gave, and their seconds and payload bytes
    answers: int = 0
    answer_seconds: float = 0.0
    answer_bytes: int = 0
    failures: int = 0
    short_circuits: int = 0
    retries: int = 0
    #: the last `LATENCY_HISTORY` statements' simulated seconds
    latencies_s: deque = field(default_factory=lambda: deque(maxlen=LATENCY_HISTORY))
    #: the same answers' seconds, bucketed: the histogram the plane exports
    answer_latency: Histogram = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.answer_latency = Histogram(
            "eii_fetch_latency_seconds", (("source", self.name),), "simulated per-fetch latency"
        )

    def minus(self, earlier: Optional["SourceStats"]) -> "SourceStats":
        """The counts gained since `earlier` (None: all of them), without histories."""
        delta = SourceStats(self.name)
        for name in _COUNTS:
            then = getattr(earlier, name) if earlier is not None else 0
            setattr(delta, name, getattr(self, name) - then)
        return delta

    # -- the health model's window rates -----------------------------------------

    @property
    def touched(self) -> bool:
        return (self.answers + self.failures + self.cache_hits + self.cache_misses) > 0

    @property
    def mean_latency_s(self) -> float:
        return safe_rate(self.answer_seconds, self.answers)

    @property
    def failure_rate(self) -> float:
        return safe_rate(self.failures, self.answers + self.failures)

    @property
    def cache_hit_rate(self) -> float:
        return safe_rate(self.cache_hits, self.cache_hits + self.cache_misses)

    def summary(self) -> dict:
        latencies = self.latencies_s
        return {
            "fetches": self.statements,
            "p50_s": percentile(latencies, 0.50),
            "p95_s": percentile(latencies, 0.95),
            "max_s": max(latencies) if latencies else 0.0,
            "seconds": self.seconds,
            "rows": self.rows,
            "payload_bytes": self.payload_bytes,
            "wire_bytes": self.wire_bytes,
            "cache_hits": self.cache_hits,
            "retries": self.retries,
            # a breaker's refusal is a failed call, as far as the caller saw
            "failures": self.failures + self.short_circuits,
        }


#: the counted fields: every int or float one (annotations are strings here)
_COUNTS = tuple(f.name for f in fields(SourceStats) if f.type in ("int", "float"))


class QueryScoreboard:
    """One engine's per-source record; its caller threads write it concurrently."""

    def __init__(self):
        self.sources: dict[str, SourceStats] = {}
        self._lock = threading.Lock()

    def _stats(self, source: str) -> SourceStats:
        """The source's entry (callers hold the lock); names are lowercased here."""
        name = source.lower()
        stats = self.sources.get(name)
        if stats is None:
            stats = self.sources[name] = SourceStats(name)
        return stats

    # -- writes (the `Recorder` only) --------------------------------------------------

    def statement(
        self, source: str, seconds: float, rows: int, payload_bytes: int,
        wire_bytes: int, cache: Optional[str] = None, answer: Optional[tuple] = None,
    ) -> None:
        """One component statement ended. `cache` is ``"hit"`` / ``"miss"`` / None
        (no fetch cache); `answer` is ``(source, seconds, payload_bytes)`` of the
        remote answer it got, if any — the answering source may be a replica."""
        with self._lock:
            stats = self._stats(source)
            stats.statements += 1
            stats.seconds += seconds
            stats.latencies_s.append(seconds)
            stats.rows += rows
            stats.payload_bytes += payload_bytes
            stats.wire_bytes += wire_bytes
            if cache == "hit":
                stats.cache_hits += 1
            elif cache == "miss":
                stats.cache_misses += 1
            if answer is not None:
                answered_by, answer_seconds, answer_bytes = answer
                stats = self._stats(answered_by)
                stats.answers += 1
                stats.answer_seconds += answer_seconds
                stats.answer_bytes += answer_bytes
                stats.answer_latency.observe(answer_seconds)

    def count(self, source: str, counter: str) -> None:
        """One failed call (``failures``), breaker refusal or retry."""
        with self._lock:
            stats = self._stats(source)
            setattr(stats, counter, getattr(stats, counter) + 1)

    # -- reads -------------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every source's counts and answer histogram as of now (copies, without
        the latency history)."""
        with self._lock:
            out = {name: stats.minus(None) for name, stats in self.sources.items()}
            for name, stats in self.sources.items():
                out[name].answer_latency = stats.answer_latency.copy()
            return out

    # -- reporting (under the lock: caller threads add sources as they go) -------

    def _remote_seconds(self) -> float:
        return sum(stats.seconds for stats in self.sources.values())

    def remote_seconds(self) -> float:
        with self._lock:
            return self._remote_seconds()

    def share(self, source: str) -> float:
        """Fraction of all remote simulated seconds spent in `source`."""
        with self._lock:
            total = self._remote_seconds()
            stats = self.sources.get(source.lower())
            if stats is None or total <= 0:
                return 0.0
            return stats.seconds / total

    def rows(self) -> list[tuple]:
        """Per-source table rows, slowest total first."""
        with self._lock:
            total = self._remote_seconds()
            ordered = sorted(self.sources.values(), key=lambda s: (-s.seconds, s.name))
            summaries = [(stats.name, stats.summary()) for stats in ordered]
        return [
            (
                name,
                summary["fetches"],
                *(round(summary[key], 6) for key in ("p50_s", "p95_s", "max_s", "seconds")),
                f"{100.0 * summary['seconds'] / total:.1f}%" if total > 0 else "-",
                *(summary[key] for key in ("wire_bytes", "cache_hits", "retries", "failures")),
            )
            for name, summary in summaries
        ]

    HEADERS = (
        "source",
        "fetches",
        "p50_s",
        "p95_s",
        "max_s",
        "total_s",
        "share",
        "wire_bytes",
        "cache_hits",
        "retries",
        "failures",
    )

    def render(self, queries: int) -> str:
        """Aligned text table of the record; `queries` (a trace fact, the
        tracer's `finished`) goes in the trailer."""
        rows = [[str(cell) for cell in row] for row in self.rows()]
        if not rows:
            return "scoreboard: no traces recorded"
        widths = [
            max(len(header), *(len(row[i]) for row in rows))
            for i, header in enumerate(self.HEADERS)
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(self.HEADERS, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append(
                " | ".join(cell.rjust(w) for cell, w in zip(row, widths))
            )
        lines.append(
            f"({queries} queries, {self.remote_seconds():.4f}s simulated "
            "remote work)"
        )
        return "\n".join(lines)
