"""Adaptive federated execution (the paper's §4 answer to unreliable stats).

Three cooperating levers close the loop between execution and planning:

- a **cardinality feedback store** (`FeedbackStore`) recording actual
  rows/bytes per canonical plan-node signature, consumed by a
  `FeedbackCostModel` on later plannings;
- **mid-query re-optimization** (`maybe_replan`) of the assembly tree once
  prefetch has turned estimates into actuals;
- **latency-aware prefetch scheduling** (LPT submission, predicted from
  the engine's per-source record) so skewed fetch durations stop
  serializing the simulated worker slots.

`AdaptivePolicy`/`AdaptiveContext` are the configuration and state objects
the `FederatedEngine` accepts via its ``adaptive=`` parameter.
"""

from repro.adaptive.context import AdaptiveContext, AdaptivePolicy
from repro.adaptive.costmodel import FeedbackCostModel
from repro.adaptive.feedback import FeedbackEntry, FeedbackStore
from repro.adaptive.reopt import ActualsCostModel, ReplanReport, maybe_replan
from repro.adaptive.scheduler import lpt_order
from repro.adaptive.signature import (
    bind_signature,
    fetch_signature,
    cardinality_shape,
    subtree_signature,
)

__all__ = [
    "AdaptiveContext",
    "AdaptivePolicy",
    "ActualsCostModel",
    "FeedbackCostModel",
    "FeedbackEntry",
    "FeedbackStore",
    "ReplanReport",
    "bind_signature",
    "fetch_signature",
    "lpt_order",
    "maybe_replan",
    "cardinality_shape",
    "subtree_signature",
]
