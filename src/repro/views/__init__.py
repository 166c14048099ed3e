"""View management: materialized views and refresh policies.

Draper's §5 names two features that made Nimble usable in the field and
which "pure" EII lacks: views as the central factoring metaphor, and a
materialized-view capability that let administrators "choose whether she
wanted live data for a particular view or not" — a light-weight ETL
system. A view is a name in the engine's catalog (`FederationCatalog.define`);
`ViewManager` gives one rows and a refresh policy, plus the staleness
bookkeeping the advisor (E1/E5/E14) measures.

`repro.views.answering` closes Halevy's loop: materialized views are not
just read explicitly, they *answer* ordinary federated SELECTs via
subsumption matching and local compensation (see `ViewAnswering`),
gated by a staleness-aware `ServePolicy`.
"""

from repro.views.answering import (
    ViewAnswer,
    ViewAnswering,
    ViewProvenance,
    match_and_rewrite,
)
from repro.views.catalog import (
    CompiledView,
    QueryShape,
    ServePolicy,
    UnsupportedShape,
    compile_shape,
    compile_view,
)
from repro.views.invalidation import (
    ChangeNotifier,
    table_dependencies,
    wire_invalidation,
)
from repro.views.manager import RefreshPolicy, ViewManager

__all__ = [
    "ChangeNotifier",
    "CompiledView",
    "QueryShape",
    "RefreshPolicy",
    "ServePolicy",
    "UnsupportedShape",
    "ViewAnswer",
    "ViewAnswering",
    "ViewManager",
    "ViewProvenance",
    "compile_shape",
    "compile_view",
    "match_and_rewrite",
    "table_dependencies",
    "wire_invalidation",
]
