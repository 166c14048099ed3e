"""Global-as-view mediation: virtual tables defined over source tables.

A mediated table is a name in the `FederationCatalog` that stands for a query
over global tables - or over other mediated tables, which unfold recursively
(`FederationCatalog.define`, `unfold`). The federated planner unfolds such
names as it binds a statement, so `engine.query()` takes a query over the
virtual schema as it takes any other; `expand` shows that reformulation on
its own. Draper's §5 "views as a central metaphor" is exactly this machinery:
factor the integration into named, reusable pieces.
"""

from __future__ import annotations

from typing import Union

from repro.engine.logical import LogicalPlan
from repro.sql.ast import Select
from repro.sql.parser import parse_select


def expand(catalog, query: Union[str, Select]) -> LogicalPlan:
    """`query` bound against `catalog`'s virtual schema, every definition
    unfolded into its own plan under a `LogicalAlias`: what the federated
    planner goes on to optimize and decompose."""
    return catalog.unfolding(parse_select(query) if isinstance(query, str) else query)[0]
