"""Reusable multi-source federation fixture (the smoke-test enterprise)."""

from dataclasses import replace

from repro.common.types import DataType as T
from repro.federation import EngineConfig, FederatedEngine, FederationCatalog
from repro.federation.nodes import LogicalBindJoin, LogicalFetch
from repro.sources import CsvSource, RelationalSource, WebServiceSource
from repro.sql.shape import with_in_filter
from repro.storage import Database
from repro.wrappers import QUIRK_AWARE, statement_reasons


def build_catalog(
    crm_dialect=QUIRK_AWARE,
    sales_dialect=QUIRK_AWARE,
    injector=None,
    with_replicas=False,
):
    """Four sources: two DBMSs, one spreadsheet, one keyed web service.

    `injector` (a `repro.netsim.FaultInjector`) wraps every source so tests
    can script failures; `with_replicas=True` additionally registers
    `crm_standby` (a replica of `customers`, under the renamed local table
    `customers_v2`) and `sales_standby` (a replica of `orders`) as failover
    targets. Replicas are wrapped by the same injector, so outages can hit
    them too.
    """
    wrap = injector.wrap if injector is not None else (lambda source: source)

    crm = Database("crm")
    crm.create_table(
        "customers",
        [("id", T.INT), ("name", T.STRING), ("city", T.STRING)],
        primary_key=["id"],
    )
    for i in range(1, 9):
        crm.table("customers").insert((i, f"cust{i}", "SF" if i % 2 else "NY"))

    sales = Database("sales")
    sales.create_table(
        "orders",
        [("id", T.INT), ("cust_id", T.INT), ("total", T.FLOAT), ("status", T.STRING)],
        primary_key=["id"],
    )
    for i in range(1, 41):
        sales.table("orders").insert(
            (i, (i % 8) + 1, i * 3.5, "open" if i % 2 else "closed")
        )

    files = CsvSource("files")
    files.add_table(
        "regions",
        [("city", T.STRING), ("region", T.STRING)],
        [("SF", "west"), ("NY", "east")],
    )

    credit = WebServiceSource(
        "creditsvc",
        "credit",
        [("cust_id", T.INT), ("score", T.INT)],
        "cust_id",
        rows=[(i, 600 + i * 10) for i in range(1, 9)],
    )

    catalog = FederationCatalog()
    catalog.register_source(wrap(RelationalSource("crm", crm, dialect=crm_dialect)))
    catalog.register_source(
        wrap(RelationalSource("sales", sales, dialect=sales_dialect))
    )
    catalog.register_source(wrap(files))
    catalog.register_source(wrap(credit))

    if with_replicas:
        # The standby keeps identical rows under a *renamed* local table, so
        # failover exercises statement rebinding, not just re-routing.
        crm_standby = Database("crm_standby")
        crm_standby.create_table(
            "customers_v2",
            [("id", T.INT), ("name", T.STRING), ("city", T.STRING)],
            primary_key=["id"],
        )
        for row in crm.table("customers").rows():
            crm_standby.table("customers_v2").insert(tuple(row))
        catalog.register_replica(
            wrap(RelationalSource("crm_standby", crm_standby, dialect=crm_dialect)),
            rename={"customers_v2": "customers"},
        )

        sales_standby = Database("sales_standby")
        sales_standby.create_table(
            "orders",
            [
                ("id", T.INT),
                ("cust_id", T.INT),
                ("total", T.FLOAT),
                ("status", T.STRING),
            ],
            primary_key=["id"],
        )
        for row in sales.table("orders").rows():
            sales_standby.table("orders").insert(tuple(row))
        catalog.register_replica(
            wrap(
                RelationalSource(
                    "sales_standby", sales_standby, dialect=sales_dialect
                )
            )
        )
    return catalog


def build_engine(**kwargs) -> FederatedEngine:
    return FederatedEngine(build_catalog(), EngineConfig(**kwargs))


def unfit(plan) -> list:
    """``(statement, reasons)`` per statement `plan` would send that its
    source's capability contract refuses: a fetch's, or a bind join's chunk."""
    sent = [(fetch.stmt, fetch.source) for fetch in plan.fetches]
    sent += [
        (with_in_filter(bind.template, bind.right_key, [1]), bind.source)
        for bind in plan.bind_joins
    ]
    found = [(stmt, statement_reasons(stmt, source.capabilities)) for stmt, source in sent]
    return [(str(stmt), reasons) for stmt, reasons in found if reasons]


def altered(plan, node, **changes):
    """`plan` with its `node` rebuilt with `changes` (`dataclasses.replace`),
    in the tree and in the fetch and bind-join lists. A plan is a value: a
    test that wants a faulty one builds it."""
    new = replace(node, **changes)

    def swap(at):
        return new if at is node else at.with_children([swap(child) for child in at.children])

    root = swap(plan.root)
    walked = list(root.walk())
    return replace(
        plan, root=root,
        fetches=tuple(at for at in walked if isinstance(at, LogicalFetch)),
        bind_joins=tuple(at for at in walked if isinstance(at, LogicalBindJoin)),
    )
