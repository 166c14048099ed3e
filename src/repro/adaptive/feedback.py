"""The cardinality feedback store (LEO-style).

After every fetch and bind-chunk the engine records the *actual* rows and
payload bytes under the node's canonical signature. Entries are EWMA-
smoothed so a drifting source converges instead of thrashing, bounded by an
LRU cap, and invalidated by the same table-change broker events that
evict the fetch cache. A monotonic `generation` counter advances on every
*material* change (new signature, large drift, invalidation, clear);
plan-cache entries remember the generation they were planned at, so a
calibrated model never serves a stale ordering.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.eai.table_events import subscribe_table_changes


def _ratio(a: float, b: float) -> float:
    """Symmetric error ratio of two row counts (both clamped to >= 1)."""
    a = max(a, 1.0)
    b = max(b, 1.0)
    return a / b if a >= b else b / a


@dataclass
class FeedbackEntry:
    """Calibrated actuals for one plan-node signature."""

    signature: str
    rows: float
    payload_bytes: float = 0.0
    observations: int = 1
    #: rows returned per shipped key (bind-join signatures only)
    per_key: Optional[float] = None
    #: lower-cased table names for broker invalidation
    tags: frozenset = field(default_factory=frozenset)


class FeedbackStore:
    """Bounded, invalidation-aware store of calibrated cardinalities.

    Thread-safe: threads sharing one engine observe from their own
    queries. One query's observations land in its fetches' submission
    order, on its caller's thread; only two callers observing the *same*
    signature at once land in the order they take the lock.
    """

    def __init__(
        self,
        max_entries: int = 512,
        smoothing: float = 0.5,
        drift_ratio: float = 2.0,
    ):
        self.max_entries = max(1, max_entries)
        self.smoothing = min(max(smoothing, 0.0), 1.0)
        #: smoothed-vs-previous ratio above which a generation bump is due
        self.drift_ratio = max(drift_ratio, 1.0)
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[str, FeedbackEntry] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    # -- recording -----------------------------------------------------------------

    def observe(
        self,
        signature: str,
        rows: float,
        payload_bytes: float = 0.0,
        tags=frozenset(),
        keys: Optional[int] = None,
    ) -> None:
        """Fold one actual observation into the store."""
        rows = max(float(rows), 0.0)
        per_key = rows / max(keys, 1) if keys is not None else None
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                entry = FeedbackEntry(
                    signature,
                    rows,
                    float(payload_bytes),
                    tags=frozenset(t.lower() for t in tags),
                    per_key=per_key,
                )
                self._entries[signature] = entry
                material = True
            else:
                previous = entry.rows
                alpha = self.smoothing
                entry.rows = alpha * rows + (1.0 - alpha) * entry.rows
                entry.payload_bytes = (
                    alpha * float(payload_bytes) + (1.0 - alpha) * entry.payload_bytes
                )
                entry.observations += 1
                if per_key is not None:
                    entry.per_key = (
                        per_key
                        if entry.per_key is None
                        else alpha * per_key + (1.0 - alpha) * entry.per_key
                    )
                self._entries.move_to_end(signature)
                material = _ratio(entry.rows, previous) >= self.drift_ratio
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            if material:
                self.generation += 1

    # -- lookup --------------------------------------------------------------------

    def calibrated_rows(self, signature: str) -> Optional[float]:
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(signature)
            return max(entry.rows, 0.0)

    def calibrated_per_key(self, signature: str) -> Optional[float]:
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None or entry.per_key is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(signature)
            return max(entry.per_key, 0.0)

    def entries(self) -> list:
        """Snapshot of entries, most recently used last."""
        with self._lock:
            return list(self._entries.values())

    # -- invalidation ---------------------------------------------------------------

    def invalidate_table(self, table: str) -> int:
        """Drop every calibration touching `table`; returns the drop count."""
        table = table.lower()
        with self._lock:
            doomed = [
                sig
                for sig, entry in self._entries.items()
                if table in entry.tags
            ]
            for sig in doomed:
                del self._entries[sig]
            if doomed:
                self.generation += 1
            return len(doomed)

    def attach(self, broker) -> None:
        """Drop calibrations on the broker's table-change events."""
        subscribe_table_changes(broker, self.invalidate_table)

    def clear(self) -> int:
        """Drop all calibrations (the shell's ``\\feedback clear``)."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            if count:
                self.generation += 1
            return count

    # -- reporting ------------------------------------------------------------------

    def render(self, width: int = 72) -> str:
        """Aligned text listing for the shell's ``\\feedback`` command."""
        entries = self.entries()
        lines = [
            f"feedback: {len(entries)} calibration(s), generation {self.generation}, "
            f"{self.hits} hit(s), {self.misses} miss(es)"
        ]
        for entry in entries:
            sig = entry.signature
            if len(sig) > width:
                sig = sig[: width - 1] + "…"
            detail = f"rows={entry.rows:.1f} obs={entry.observations}"
            if entry.per_key is not None:
                detail += f" rows/key={entry.per_key:.2f}"
            lines.append(f"  {detail}  {sig}")
        return "\n".join(lines)
