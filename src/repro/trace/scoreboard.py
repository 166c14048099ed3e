"""Per-source scoreboards aggregated from many query traces.

The paper's operational question — *which source is the straggler?* — is
unanswerable from one flat counter bag. The scoreboard folds the fetch
and bind-fetch spans of every recorded trace into per-source simulated
latency histograms (p50/p95/max), byte and row totals, cache hit counts
and failure/retry rates, so a benchmark run or an interactive session can
pin the blame for slow federated queries on the source that earned it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.stats import percentile

#: Span categories that represent remote work attributable to one source.
_REMOTE_CATEGORIES = ("fetch", "bind_fetch")


@dataclass
class SourceStats:
    """Accumulated remote-call accounting for one source."""

    name: str
    latencies_s: list = field(default_factory=list)
    seconds: float = 0.0
    rows: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    fetches: int = 0
    cache_hits: int = 0
    retries: int = 0
    failures: int = 0

    def observe(self, span) -> None:
        self.fetches += 1
        self.latencies_s.append(span.self_seconds)
        self.seconds += span.self_seconds
        attrs = span.attrs
        self.rows += int(attrs.get("rows", 0) or 0)
        self.payload_bytes += int(attrs.get("payload_bytes", 0) or 0)
        self.wire_bytes += int(attrs.get("wire_bytes", 0) or 0)
        if attrs.get("cache") == "hit":
            self.cache_hits += 1
        for event in span.events:
            if event.name == "retry":
                self.retries += 1
            elif event.name in ("source_failure", "breaker.open"):
                self.failures += 1

    @property
    def failure_rate(self) -> float:
        calls = self.fetches + self.failures
        return self.failures / calls if calls else 0.0

    def summary(self) -> dict:
        return {
            "fetches": self.fetches,
            "p50_s": percentile(self.latencies_s, 0.50),
            "p95_s": percentile(self.latencies_s, 0.95),
            "max_s": max(self.latencies_s) if self.latencies_s else 0.0,
            "seconds": self.seconds,
            "rows": self.rows,
            "payload_bytes": self.payload_bytes,
            "wire_bytes": self.wire_bytes,
            "cache_hits": self.cache_hits,
            "retries": self.retries,
            "failures": self.failures,
        }


class QueryScoreboard:
    """Folds traces into per-source histograms across many queries."""

    def __init__(self):
        self.sources: dict[str, SourceStats] = {}
        self.queries = 0
        self.total_seconds = 0.0

    def record(self, trace) -> None:
        """Fold one finalized trace's remote spans into the scoreboard."""
        self.queries += 1
        self.total_seconds += trace.work_seconds()
        for span in trace.spans():
            if span.category not in _REMOTE_CATEGORIES:
                continue
            source = str(span.attrs.get("source", "?"))
            stats = self.sources.get(source)
            if stats is None:
                stats = self.sources[source] = SourceStats(source)
            stats.observe(span)

    # -- reporting ---------------------------------------------------------------

    def remote_seconds(self) -> float:
        return sum(stats.seconds for stats in self.sources.values())

    def share(self, source: str) -> float:
        """Fraction of all remote simulated seconds spent in `source`."""
        total = self.remote_seconds()
        stats = self.sources.get(source.lower()) or self.sources.get(source)
        if stats is None or total <= 0:
            return 0.0
        return stats.seconds / total

    def rows(self) -> list[tuple]:
        """Per-source table rows, slowest total first."""
        out = []
        for stats in sorted(
            self.sources.values(), key=lambda s: (-s.seconds, s.name)
        ):
            summary = stats.summary()
            total = self.remote_seconds()
            out.append(
                (
                    stats.name,
                    summary["fetches"],
                    round(summary["p50_s"], 6),
                    round(summary["p95_s"], 6),
                    round(summary["max_s"], 6),
                    round(summary["seconds"], 6),
                    f"{100.0 * stats.seconds / total:.1f}%" if total > 0 else "-",
                    summary["wire_bytes"],
                    summary["cache_hits"],
                    summary["retries"],
                    summary["failures"],
                )
            )
        return out

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

    def render(self) -> str:
        """Aligned text table of the per-source scoreboard."""
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
            f"({self.queries} queries, {self.remote_seconds():.4f}s simulated "
            "remote work)"
        )
        return "\n".join(lines)
