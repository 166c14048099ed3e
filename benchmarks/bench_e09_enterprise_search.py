"""E9 — enterprise search: one query over documents + structured data, secured.

Claim (Sikka §8): finding "all the information related to a customer"
requires searching documents, business objects and structured data
together, with a common framework for fusing differently-scored results,
and "ensuring that only authorized users get access" — an underserved
area the engine must handle natively, not as an afterthought.

Method: index EIIBench's document corpus plus three structured collections
(customers, tickets, invoices — invoices gated to the finance group).
For sampled customers, search their name: hits must span kinds, leak
nothing unauthorized, and degrade only by dropping the gated collection.
"""

from repro.bench import BenchConfig, build_enterprise
from repro.search import EnterpriseSearch


def build_search(fixture) -> EnterpriseSearch:
    search = EnterpriseSearch()
    search.register_documents("docs")
    for name, text in fixture.doc_texts.items():
        search.add_document("docs", name, text)
    customers = fixture.crm.table("customers").scan()
    tickets = fixture.support.table("tickets").scan()
    invoices = fixture.finance.table("invoices").scan()
    search.register_structured(
        "customers", lambda: customers, key_field="id", text_fields=["name", "city", "email"]
    )
    search.register_structured(
        "tickets", lambda: tickets, key_field="id", text_fields=["subject"]
    )
    search.register_structured(
        "invoices",
        lambda: invoices,
        key_field="id",
        text_fields=["cust_id"],
        groups=["finance"],
    )
    return search


def test_e09_enterprise_search(record_experiment):
    fixture = build_enterprise(BenchConfig(scale=1))
    search = build_search(fixture)

    # Query the names of customers that documents actually mention.
    sample_names = []
    for text in list(fixture.doc_texts.values())[:10]:
        # text shape: "<kind> about <First> <Last> from <CITY>: ..."
        words = text.split()
        sample_names.append(f"{words[2]} {words[3]}")

    rows = []
    total_hits = 0
    cross_kind_queries = 0
    for name in sample_names[:6]:
        plain = search.search(name, principal_groups=[])
        finance = search.search(name, principal_groups=["finance"])
        kinds = {hit.kind for hit in finance}
        if len(kinds) > 1:
            cross_kind_queries += 1
        total_hits += len(finance)
        leaked = [hit for hit in plain if hit.collection == "invoices"]
        assert leaked == []  # the security property, per query
        rows.append(
            (
                name,
                len(plain),
                len(finance),
                len({hit.collection for hit in finance}),
                "yes" if {"document", "structured"} <= kinds else "no",
            )
        )

    record_experiment(
        "E9",
        "one query spans documents + structured sources; ACLs never leak",
        ["query", "hits_public", "hits_finance", "collections", "both_kinds"],
        rows,
        notes="invoices collection gated to group 'finance'; zero leaks observed",
    )

    # Shape: searches actually find the person in more than one modality,
    # and the finance principal never sees fewer results than the public one.
    assert total_hits > 0
    assert cross_kind_queries >= len(rows) // 2
    assert all(row[2] >= row[1] for row in rows)
