"""The mediator's three-level cache hierarchy.

Level 1 — **plan cache**: statement shape (`repro.sql.shape`) → the
`Family` of its `FederatedPlan`s, as a source keeps its prepared statements.
A repeated shape skips reformulation, optimization and decomposition. Of the
data a plan depends only on what the cost model read of its lookup constants,
which a member serves only equal (`Family.find`); writes evict no plan.

Level 2 — **fetch cache**: `(source, shape, constants)` of the pushed-down
statement (`repro.cache.fetch_key`) → fetched relation. Shared by all executions of all queries, so concurrent and
repeated federated queries reuse component fetches and bind-join chunks
instead of re-hitting sources — the round-trips Bitton's §3 identifies as
the dominant cost.

Level 3 — **result cache**: canonical query text → whole
`FederatedResult`, the coarse cache the engine always had, rebuilt on the
same bounded store (LRU + TTL + byte capacity) instead of an unbounded
dict.

Fetch- and result-level entries are tagged with the lower-cased names of
the source tables they were computed from; `invalidate_table` (usually
driven by the broker's table-change events — see `attach`) evicts
exactly the dependent entries, making stale reads impossible after a
write through the mediator/EAI path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.cache.store import BoundedStore, CacheEntry
from repro.eai.table_events import subscribe_table_changes


#: Bounds of the fetch level: entries and payload bytes; entries never expire.
FETCH_ENTRIES = 1024
FETCH_BYTES = 64 * 1024 * 1024


@dataclass
class CacheConfig:
    """Capacity/TTL knobs for the three levels; None disables a bound."""

    plan_enabled: bool = True
    plan_entries: Optional[int] = 256
    fetch_enabled: bool = True
    result_enabled: bool = True
    result_entries: Optional[int] = 256
    result_bytes: Optional[int] = 64 * 1024 * 1024
    result_ttl_s: Optional[float] = None


class CacheHierarchy:
    """Plan + fetch + result stores with shared table-level invalidation."""

    def __init__(self, config: Optional[CacheConfig] = None, clock=time.time):
        self.config = config or CacheConfig()
        c = self.config
        self.plans = (
            BoundedStore("plan", max_entries=c.plan_entries, clock=clock)
            if c.plan_enabled
            else None
        )
        self.fetches = (
            BoundedStore(
                "fetch", max_entries=FETCH_ENTRIES, max_bytes=FETCH_BYTES, clock=clock
            )
            if c.fetch_enabled
            else None
        )
        self.results = (
            BoundedStore(
                "result",
                max_entries=c.result_entries,
                max_bytes=c.result_bytes,
                ttl_s=c.result_ttl_s,
                clock=clock,
            )
            if c.result_enabled
            else None
        )

    # -- plan level --------------------------------------------------------------

    def get_plan(self, key: str):
        if self.plans is None or key is None:
            return None
        return self.plans.get(key)

    def put_plan(self, key: str, plan) -> None:
        if self.plans is not None and key is not None:
            self.plans.put(key, plan)

    # -- fetch level -------------------------------------------------------------

    def get_fetch(self, key) -> Optional[CacheEntry]:
        if self.fetches is None:
            return None
        return self.fetches.lookup(key)

    def put_fetch(
        self,
        key,
        relation,
        size_bytes: int,
        tags: Iterable[str] = (),
        cost_seconds: float = 0.0,
    ) -> None:
        """Store a fetched payload; the caller sized it at the fetch boundary."""
        if self.fetches is not None:
            self.fetches.put(
                key, relation, size_bytes, tags=tags, cost_seconds=cost_seconds
            )

    # -- result level ------------------------------------------------------------

    def get_result(self, key: str):
        if self.results is None or key is None:
            return None
        return self.results.get(key)

    def put_result(
        self,
        key: str,
        result,
        tags: Iterable[str] = (),
        size_bytes: int = 0,
        cost_seconds: float = 0.0,
    ) -> None:
        if self.results is not None and key is not None:
            self.results.put(
                key, result, size_bytes=size_bytes, tags=tags, cost_seconds=cost_seconds
            )

    # -- invalidation ------------------------------------------------------------

    def invalidate_table(self, table: str) -> dict:
        """Evict fetch/result entries depending on `table`; plans survive
        (a binding whose statistics moved is planned anew, see level 1)."""
        counts = {"fetch": 0, "result": 0}
        if self.fetches is not None:
            counts["fetch"] = self.fetches.invalidate_tag(table)
        if self.results is not None:
            counts["result"] = self.results.invalidate_tag(table)
        return counts

    def attach(self, broker) -> None:
        """Evict dependent entries on the broker's table-change events."""
        subscribe_table_changes(broker, self.invalidate_table)

    def clear(self) -> None:
        for store in (self.plans, self.fetches, self.results):
            if store is not None:
                store.clear()

    # -- telemetry ----------------------------------------------------------------

    def stats(self) -> dict:
        """Per-level counter summaries (disabled levels are omitted)."""
        out = {}
        for store in (self.plans, self.fetches, self.results):
            if store is not None:
                out[store.name] = store.stats.summary()
        return out
