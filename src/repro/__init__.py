"""repro: a reproduction of the SIGMOD 2005 EII panel as a working system.

The package implements the full Enterprise Information Integration stack the
panel discusses: a relational storage substrate, a SQL subset with a
cost-based local engine, heterogeneous sources behind capability-described
wrappers, a wrapper-mediator federation layer (GAV and LAV/MiniCon
reformulation, pushdown maximization, assembly-site selection, semijoin and
bind-join optimization), plus the surrounding systems the authors argue EII
must coexist with: a data warehouse with ETL, an EAI process engine, a
schema-less NETMARK-style store, enterprise search, metadata/semantics
management, data service agreements, and a persist-vs-virtualize advisor.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
claim-by-claim experiment index.
"""

__version__ = "1.0.0"

from repro.common.errors import (
    EIIError,
    ParseError,
    PlanError,
    SchemaError,
    SourceError,
    TypeMismatchError,
)

def connect(catalog, config=None, **overrides):
    """The documented way to build a `FederatedEngine`.

        import repro
        from repro.federation import EngineConfig

        engine = repro.connect(catalog)                          # defaults
        engine = repro.connect(catalog, EngineConfig(views=True))
        engine = repro.connect(catalog, config, parallel_workers=8)

    `config` is an `EngineConfig` (None = all defaults); keyword overrides
    are applied on top via `EngineConfig.with_overrides`, so a misspelled
    knob is a `TypeError`.
    """
    from repro.federation.config import EngineConfig
    from repro.federation.engine import FederatedEngine

    if config is None:
        config = EngineConfig()
    if overrides:
        config = config.with_overrides(**overrides)
    return FederatedEngine(catalog, config)


__all__ = [
    "EIIError",
    "ParseError",
    "PlanError",
    "SchemaError",
    "SourceError",
    "TypeMismatchError",
    "__version__",
    "connect",
]
