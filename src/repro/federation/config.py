"""Typed engine configuration: every `FederatedEngine` knob in one place.

`EngineConfig` replaces the historical pile of constructor keywords with a
frozen dataclass whose defaults are documented field by field. Build one
directly, or start from the defaults and refine with `with_overrides`:

    config = EngineConfig(cache=hierarchy, clock=clock)
    engine = FederatedEngine(catalog, config)
    faster = config.with_overrides(parallel_workers=8)

`repro.connect(catalog, config, **overrides)` is the documented
construction facade; the `FederatedEngine` constructor itself takes only
`(catalog, config)`. Every cache level, the whole-result TTL included, is
configured on the `repro.cache.CacheHierarchy` passed as `cache`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.common.errors import PlanError


@dataclass(frozen=True)
class EngineConfig:
    """Construction-time configuration of one `FederatedEngine`.

    Every field has a working default, so ``EngineConfig()`` describes the
    plain engine: four simulated fetch slots, cost-based semijoins, assembly-site
    selection on, plan caching on, no per-source caps, everything else
    (resilience, adaptive execution, tracing, telemetry, views) off.

    The caps are a value, not a live object: configs with the same caps are
    equal and hash alike, and every engine built from one owns its limiter.
    """

    #: simulated network model shared by planner and executor
    #: (None = a fresh default `repro.netsim.NetworkModel`)
    network: Optional[Any] = None
    #: simulated fetch slots that `makespan`, `predict_elapsed` and
    #: `repro.sched` overlap component queries over (they run on the caller)
    parallel_workers: int = 4
    #: join-key shipping between remote inputs: "auto" (cost-based),
    #: "force" (whenever legal) or "off"
    semijoin: str = "auto"
    #: pick the assembly site minimizing simulated bytes shipped
    choose_assembly_site: bool = True
    #: a pre-built `FederatedPlanner` (None = construct from this config)
    planner: Optional[Any] = None
    #: reject queries predicted to run longer than this (None = admit all);
    #: the workload scheduler rejects them on arrival, before they queue
    admission_budget_s: Optional[float] = None
    #: a `repro.cache.CacheHierarchy` (None = default: plan cache only)
    cache: Optional[Any] = None
    #: the engine clock (None = wall-clock `time.time`; benchmarks pass a
    #: `repro.netsim.SimClock` for deterministic simulated time)
    clock: Optional[Any] = None
    #: `ResiliencePolicy` / `ResilienceManager` for retries, breakers and
    #: failover; None = fail fast
    resilience: Optional[Any] = None
    #: degrade failed non-essential branches to annotated partial results
    #: instead of failing the whole query
    partial_results: bool = False
    #: strict mode: static analysis before planning, invariant checks after;
    #: a statically infeasible query raises `AnalysisError`, zero bytes shipped
    validate: bool = False
    #: a `repro.trace.Tracer` (None = the zero-cost no-op tracer)
    tracer: Optional[Any] = None
    #: adaptive execution: True (a default `AdaptiveContext`) or an
    #: `AdaptiveContext`, e.g. ``AdaptiveContext(AdaptivePolicy(lpt=False))``
    adaptive: Optional[Any] = None
    #: per-source concurrency caps, ``(source, cap)`` pairs (kept lowercased
    #: and sorted): the engine's own `SourceLimiter` bounds the caller threads
    #: inside one source's round trips, `repro.sched` its virtual fetch slots
    source_limits: tuple = ()
    #: observe-only `repro.telemetry.TelemetryPlane` (or True for a default)
    telemetry: Optional[Any] = None
    #: answering-queries-using-views through an engine-owned
    #: `repro.views.ViewManager`
    views: bool = False
    #: staleness policy for view-answered queries (None = `ServePolicy()`:
    #: serve any non-dirty view, never serve stale)
    view_policy: Optional[Any] = None
    #: auto-materialization by an engine-owned `repro.advisor.ViewSelector`
    #: (default byte budget); implies ``views``
    auto_materialize: bool = False

    def __post_init__(self):
        for name in ("views", "auto_materialize"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise PlanError(f"{name} must be a bool, got {type(value).__name__}")
        # caps come from outside the program: checked here, once
        try:
            limits = [(source.lower(), cap) for source, cap in self.source_limits]
        except (AttributeError, TypeError, ValueError):
            raise PlanError("source_limits must be (source name, cap) pairs") from None
        limits.sort(key=lambda pair: pair[0])
        for index, (source, cap) in enumerate(limits):
            if type(cap) is not int or cap < 1:
                raise PlanError(
                    f"source_limits: the cap of {source!r} must be a positive int, "
                    f"got {cap!r}"
                )
            if index and limits[index - 1][0] == source:
                raise PlanError(f"source_limits: {source!r} is named twice")
        object.__setattr__(self, "source_limits", tuple(limits))

    def with_overrides(self, **overrides: Any) -> "EngineConfig":
        """A copy with the given fields replaced (unknown names: `TypeError`)."""
        return replace(self, **overrides)
