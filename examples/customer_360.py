"""Customer 360: the CRM scenario the EII industry was founded on.

Run with:  python examples/customer_360.py

Halevy's introduction names customer-relationship management as the first
application EII succeeded in: "provide the customer-facing worker a global
view of a customer whose data is residing in multiple sources." This
example assembles that view over the full EIIBench enterprise:

1. a GAV mediated view `customer360` spanning CRM, sales, support and the
   credit-scoring web service (which only answers keyed lookups);
2. a record-correlation join index linking the CRM to a dirty partner
   directory that shares no key (Draper's Nimble feature);
3. one query answering "tell me everything about this customer".
"""

from repro.bench import BenchConfig, build_enterprise
from repro.common.types import DataType as T
from repro.correlation import FieldRule, JoinIndex, LinkerConfig, RecordLinker
from repro.federation import FederatedEngine
from repro.storage.io import relation_from_rows


def main():
    fixture = build_enterprise(BenchConfig(scale=1, dirtiness=0.15))
    catalog = fixture.catalog()
    engine = FederatedEngine(catalog)

    # 1. The mediated view: authored once, reused by every query below.
    catalog.define(
        "customer360",
        "SELECT c.id AS cust_id, c.name AS name, c.city AS city, "
        "c.segment AS segment, o.total AS order_total, o.status AS order_status, "
        "cr.score AS credit_score "
        "FROM customers c "
        "JOIN orders o ON c.id = o.cust_id "
        "JOIN credit cr ON cr.cust_id = c.id",
    )

    print("== the global view of one customer ==")
    result = engine.query(
        "SELECT v.name, v.city, v.order_total, v.order_status, v.credit_score "
        "FROM customer360 v WHERE v.cust_id = 7"
    )
    print(result.relation.pretty())
    print(f"(component queries: {result.metrics.total_source_queries()}, "
          f"rows shipped: {result.metrics.rows_shipped})\n")

    print("== top enterprise accounts by revenue ==")
    top_accounts = engine.query(
        "SELECT v.name, SUM(v.order_total) AS revenue, MAX(v.credit_score) AS score "
        "FROM customer360 v WHERE v.segment = 'enterprise' "
        "GROUP BY v.name ORDER BY revenue DESC LIMIT 5"
    )
    print(top_accounts.relation.pretty())
    print()

    # 2. Correlate the partner directory that has NO shared key with CRM.
    customers = relation_from_rows(
        [("id", T.INT), ("name", T.STRING), ("city", T.STRING), ("email", T.STRING)],
        [
            (row[0], row[1], row[3], row[2])
            for row in fixture.crm.table("customers").rows()
        ],
    )
    partners = relation_from_rows(
        [("cid", T.INT), ("full_name", T.STRING), ("town", T.STRING),
         ("email_addr", T.STRING)],
        fixture.partner_rows,
    )
    linker = RecordLinker(
        LinkerConfig(
            rules=[
                FieldRule("name", "full_name", "jaro_winkler", weight=3.0),
                FieldRule("city", "town", "exact", weight=1.0),
                FieldRule("email", "email_addr", "exact", weight=2.0),
            ],
            threshold=0.82,
            blocking_field=("name", "full_name"),
        )
    )
    index = JoinIndex.build(linker, customers, partners, "id", "cid")
    quality = index.quality(fixture.truth_pairs)
    print("== record correlation against the keyless partner directory ==")
    print(
        f"join index: {len(index)} pairs "
        f"(precision {quality['precision']:.3f}, recall {quality['recall']:.3f}, "
        f"{linker.comparisons} comparisons after blocking)"
    )
    joined = index.join(customers, partners, "id", "cid")
    print(f"joined relation: {len(joined)} rows; sample:")
    print(joined.pretty(limit=3))


if __name__ == "__main__":
    main()
