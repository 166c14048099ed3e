"""Multi-level mediator caching: plans, component fetches, whole results.

The federation stack's answer to the ROADMAP's "fast as the hardware
allows": a plan cache keyed by canonical query text, a cross-query
source-fetch cache keyed by `(source, pushed-down SQL)`, and the whole-
result cache — all on one bounded store (LRU + TTL + byte capacity) with
table-tag invalidation driven by mediator/EAI write events.
"""

from repro.cache.hierarchy import CacheConfig, CacheHierarchy
from repro.cache.keys import canonical_statement, fetch_key
from repro.cache.store import BoundedStore, CacheEntry, CacheStats

__all__ = [
    "BoundedStore",
    "CacheConfig",
    "CacheEntry",
    "CacheHierarchy",
    "CacheStats",
    "canonical_statement",
    "fetch_key",
]
