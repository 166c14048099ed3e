"""Auto-materialization: pick which views to maintain under a byte budget.

`ViewSelector` closes Halevy's warehouse/live loop from the workload side:
it watches the queries an engine actually executes (canonical SQL, elapsed
simulated seconds, result bytes), scores repeat offenders by
``benefit = repetitions × avg_elapsed / bytes``, and — inside the budget —
creates materialized views for the best ones so subsequent repeats are
answered from the view instead of re-federating. Views whose base tables
change are refreshed on the next `maintain()`; when the budget is
exceeded the lowest-benefit auto-created views are retired.

The engine drives it: `observe`/`observe_hit` on the query path (never for
``use_views=False`` refresh queries, so the selector cannot feed itself)
and `maintain()` after each observed query.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import EIIError

#: default budget: total bytes of auto-materialized view data to maintain
DEFAULT_BYTE_BUDGET = 256 * 1024


@dataclass
class CandidateStats:
    """Observed repetitions of one canonical query."""

    sql: str
    count: int = 0
    total_elapsed_s: float = 0.0
    result_bytes: int = 0
    #: set when the query's shape cannot back a matchable view
    rejected: bool = False

    @property
    def avg_elapsed_s(self) -> float:
        return self.total_elapsed_s / self.count if self.count else 0.0

    @property
    def benefit(self) -> float:
        """Expected saved seconds per stored byte (higher = materialize)."""
        return self.count * self.avg_elapsed_s / max(self.result_bytes, 1)


@dataclass
class ViewRecommendation:
    """One line of `recommendations()` — what the selector would (or did) do."""

    sql: str
    count: int
    benefit: float
    materialized_as: Optional[str] = None


@dataclass
class _Owned:
    """Bookkeeping for one auto-created view."""

    name: str
    sql: str
    hits: int = 0


class ViewSelector:
    """Workload-driven materialized-view selection under a byte budget."""

    def __init__(
        self,
        engine,
        byte_budget: int = DEFAULT_BYTE_BUDGET,
        min_count: int = 3,
        name_prefix: str = "auto_mv_",
    ):
        #: the engine whose views this selector manages
        self.engine = engine
        self.byte_budget = byte_budget
        self.min_count = min_count
        self.name_prefix = name_prefix
        self._lock = threading.Lock()
        self._stats: dict[str, CandidateStats] = {}
        self._owned: dict[str, _Owned] = {}  # view name -> bookkeeping
        self._hits: Counter = Counter()
        self._sequence = 0
        self._in_maintain = False

    # -- observation (called by the engine on its query path) -------------------

    def observe(self, canonical_sql: str, result) -> None:
        """Record one executed (non-view-answered) query."""
        with self._lock:
            stats = self._stats.get(canonical_sql)
            if stats is None:
                stats = self._stats[canonical_sql] = CandidateStats(canonical_sql)
            stats.count += 1
            if not result.from_cache:
                stats.total_elapsed_s += result.elapsed_seconds
                stats.result_bytes = max(result.payload_bytes, 1)

    def observe_hit(self, view_name: str) -> None:
        """Record a query answered from a view (ours or user-defined)."""
        with self._lock:
            self._hits[view_name] += 1
            owned = self._owned.get(view_name)
            if owned is not None:
                owned.hits += 1

    # -- the admit/refresh/retire loop ------------------------------------------

    def maintain(self) -> None:
        """Refresh dirty owned views, admit winners, retire over budget."""
        engine = self.engine
        if engine.views is None:
            return
        with self._lock:
            if self._in_maintain:
                return
            self._in_maintain = True
        try:
            self._refresh_dirty(engine.views)
            self._admit(engine)
            self._retire(engine.views)
        finally:
            with self._lock:
                self._in_maintain = False

    def _refresh_dirty(self, manager) -> None:
        for name in list(self._owned):
            try:
                view = manager.view(name)
            except EIIError:
                with self._lock:
                    self._owned.pop(name, None)  # dropped behind our back
                continue
            if view.dirty:
                manager.refresh(name)

    def _used_bytes(self, manager) -> int:
        """Recorded sizes of the owned views (0 for one not yet refreshed)."""
        used = 0
        for name in self._owned:
            try:
                used += manager.view(name).size_bytes
            except EIIError:
                continue  # dropped behind our back; `_refresh_dirty` forgets it
        return used

    def _admit(self, engine) -> None:
        manager = engine.views
        with self._lock:
            materialized = {owned.sql for owned in self._owned.values()}
            candidates = sorted(
                (
                    stats
                    for stats in self._stats.values()
                    if stats.count >= self.min_count
                    and not stats.rejected
                    and stats.sql not in materialized
                    and stats.benefit > 0
                ),
                key=lambda stats: (-stats.benefit, stats.sql),
            )
        if not candidates:
            return
        used = self._used_bytes(manager)
        for stats in candidates:
            if used + stats.result_bytes > self.byte_budget:
                continue
            # Compiled once, by the manager, and kept on the record; only a
            # shape the answering layer can match is worth a refresh query.
            with self._lock:
                name = f"{self.name_prefix}{self._sequence + 1}"
            view = manager.compile(name, stats.sql)
            rejected = view.compiled is None
            if not rejected:
                with self._lock:
                    self._sequence += 1
                try:
                    manager.register(view)
                except EIIError:
                    rejected = True
            if rejected:
                with self._lock:
                    stats.rejected = True
                continue
            with self._lock:
                self._owned[name] = _Owned(name, stats.sql)
            used += view.size_bytes

    def _retire(self, manager) -> None:
        """Drop the lowest-benefit owned views while over budget."""
        while True:
            used = self._used_bytes(manager)
            if used <= self.byte_budget:
                return
            with self._lock:
                if not self._owned:
                    return
                victim = min(
                    self._owned.values(),
                    key=lambda owned: (
                        self._stats[owned.sql].benefit
                        if owned.sql in self._stats
                        else 0.0,
                        owned.name,
                    ),
                )
                self._owned.pop(victim.name, None)
            try:
                manager.drop(victim.name)
            except EIIError:
                pass

    # -- reporting (the shell's \views command) ----------------------------------

    def owned_views(self) -> list[str]:
        with self._lock:
            return sorted(self._owned)

    def recommendations(self, limit: int = 10) -> list[ViewRecommendation]:
        """Top candidates by benefit, annotated with materialization state."""
        with self._lock:
            by_sql = {owned.sql: owned.name for owned in self._owned.values()}
            ranked = sorted(
                (s for s in self._stats.values() if not s.rejected and s.count),
                key=lambda stats: (-stats.benefit, stats.sql),
            )
            return [
                ViewRecommendation(
                    stats.sql,
                    stats.count,
                    stats.benefit,
                    materialized_as=by_sql.get(stats.sql),
                )
                for stats in ranked[:limit]
            ]
