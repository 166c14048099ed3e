"""The mediator: virtual schemas and query reformulation.

Two classical mapping styles from the panel's introduction ("building a
virtual schema … query processing would begin by reformulating a query
posed over the virtual schema into queries over the data sources"):

* **GAV** (global-as-view): each mediated table is defined as a query over
  the global source tables (`FederationCatalog.define`); reformulation is
  view unfolding, done by the federated planner (`repro.mediator.gav`).
* **LAV** (local-as-view): each *source* table is described as a view over
  a conceptual schema; reformulation is answering-queries-using-views, for
  which we implement the MiniCon algorithm over conjunctive queries
  (`repro.mediator.cq`, `repro.mediator.lav`).
"""

from repro.mediator.gav import expand
from repro.mediator.cq import Atom, ConjunctiveQuery, canonical_database, is_contained_in
from repro.mediator.lav import LavMediator, LavMapping, minicon_rewritings
from repro.mediator.updates import UpdateSagaGenerator

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "LavMapping",
    "LavMediator",
    "UpdateSagaGenerator",
    "canonical_database",
    "expand",
    "is_contained_in",
    "minicon_rewritings",
]
