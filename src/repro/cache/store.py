"""A bounded cache store: LRU + TTL + byte capacity, with tag invalidation.

This is the shared building block of the mediator's cache hierarchy
(`repro.cache.hierarchy`). One store holds one class of entries (plans,
component fetches, whole results) and enforces three independent bounds:

* **max_entries** — LRU eviction beyond a fixed entry count,
* **max_bytes** — LRU eviction beyond a total payload-byte budget
  (entries larger than the whole budget are rejected outright),
* **ttl_s** — entries older than the TTL are dead: lookups miss on them
  and every write sweeps them out, so an idle store does not pin memory
  on expired data.

Entries carry *tags* (lower-cased table names); `invalidate_tag` evicts
every entry that depends on a changed table, which is how writes through
the mediator/EAI path keep the cache from serving stale reads.

The store is thread-safe: threads sharing one federated engine probe and
fill the fetch-level store concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass
class CacheStats:
    """Cumulative counters for one store (monotone across evictions)."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    rejections: int = 0  # values too large to ever fit the byte budget
    evictions_lru: int = 0
    evictions_ttl: int = 0
    evictions_invalidated: int = 0
    seconds_saved: float = 0.0
    bytes_saved: int = 0

    @property
    def evictions(self) -> int:
        return self.evictions_lru + self.evictions_ttl + self.evictions_invalidated

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def summary(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate(), 3),
            "insertions": self.insertions,
            "evictions_lru": self.evictions_lru,
            "evictions_ttl": self.evictions_ttl,
            "evictions_invalidated": self.evictions_invalidated,
            "seconds_saved": round(self.seconds_saved, 6),
            "bytes_saved": self.bytes_saved,
        }


@dataclass
class CacheEntry:
    """One cached value plus the accounting needed for bounds and credit."""

    value: object
    size_bytes: int
    inserted_at: float
    tags: frozenset
    #: simulated seconds the cached computation originally cost; a hit is
    #: credited with this amount in `seconds_saved` telemetry
    cost_seconds: float = 0.0


class BoundedStore:
    """LRU + TTL + byte-capacity bounded key/value store with tag eviction."""

    def __init__(
        self,
        name: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        ttl_s: Optional[float] = None,
        clock=time.time,
    ):
        self.name = name
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.ttl_s = ttl_s
        self.clock = clock
        self.stats = CacheStats()
        self._entries: OrderedDict = OrderedDict()
        self._by_tag: dict[str, set] = {}
        self._bytes = 0
        self._lock = threading.RLock()

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    # -- core operations ---------------------------------------------------------

    def lookup(self, key) -> Optional[CacheEntry]:
        """Return the live entry under `key` (LRU-touching it), else None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if self._expired(entry):
                self._evict(key, "ttl")
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.stats.seconds_saved += entry.cost_seconds
            self.stats.bytes_saved += entry.size_bytes
            return entry

    def get(self, key, default=None):
        entry = self.lookup(key)
        return entry.value if entry is not None else default

    def put(
        self,
        key,
        value,
        size_bytes: int = 0,
        tags: Iterable[str] = (),
        cost_seconds: float = 0.0,
    ) -> bool:
        """Insert `value`; evicts expired then LRU entries to stay in bounds.

        Returns False when the value can never fit (larger than max_bytes).
        """
        with self._lock:
            if self.max_bytes is not None and size_bytes > self.max_bytes:
                self.stats.rejections += 1
                return False
            if key in self._entries:
                self._evict(key, None)  # replacement, not an eviction stat
            entry = CacheEntry(
                value,
                size_bytes,
                self.clock(),
                frozenset(tag.lower() for tag in tags),
                cost_seconds,
            )
            self._entries[key] = entry
            self._bytes += entry.size_bytes
            for tag in entry.tags:
                self._by_tag.setdefault(tag, set()).add(key)
            self.stats.insertions += 1
            self.purge_expired()
            while self._over_capacity():
                oldest = next(iter(self._entries))
                self._evict(oldest, "lru")
            return True

    def purge_expired(self) -> int:
        """Drop every TTL-expired entry; returns how many were dropped."""
        if self.ttl_s is None:
            return 0
        with self._lock:
            dead = [k for k, e in self._entries.items() if self._expired(e)]
            for key in dead:
                self._evict(key, "ttl")
            return len(dead)

    # -- invalidation ------------------------------------------------------------

    def invalidate_tag(self, tag: str) -> int:
        """Evict every entry tagged with `tag`; returns the eviction count."""
        with self._lock:
            keys = list(self._by_tag.get(tag.lower(), ()))
            for key in keys:
                self._evict(key, "invalidated")
            return len(keys)

    def invalidate_key(self, key) -> bool:
        with self._lock:
            if key not in self._entries:
                return False
            self._evict(key, "invalidated")
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_tag.clear()
            self._bytes = 0

    # -- internals ----------------------------------------------------------------

    def _expired(self, entry: CacheEntry) -> bool:
        return self.ttl_s is not None and self.clock() - entry.inserted_at > self.ttl_s

    def _over_capacity(self) -> bool:
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            return True
        if self.max_bytes is not None and self._bytes > self.max_bytes:
            return True
        return False

    def _evict(self, key, cause: Optional[str]) -> None:
        entry = self._entries.pop(key)
        self._bytes -= entry.size_bytes
        for tag in entry.tags:
            members = self._by_tag.get(tag)
            if members is not None:
                members.discard(key)
                if not members:
                    del self._by_tag[tag]
        if cause == "lru":
            self.stats.evictions_lru += 1
        elif cause == "ttl":
            self.stats.evictions_ttl += 1
        elif cause == "invalidated":
            self.stats.evictions_invalidated += 1
