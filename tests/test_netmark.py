"""NETMARK schema-less store tests: ingest, search, schema-on-read."""

import pytest

from repro.common.errors import CapabilityError
from repro.common.types import DataType as T
from repro.netmark import DocumentSource, NodeStore
from repro.sql.parser import parse_select

DOC_A = {
    "kind": "meeting_note",
    "customer": {"id": "7", "name": "Maria Santos"},
    "tags": ["priority", "renewal"],
    "body": "Discussed renewal pricing with Maria",
}
DOC_B = {
    "kind": "news",
    "customer": {"id": "9", "name": "John Smith"},
    "body": "John Smith company announces expansion",
}


def make_store():
    store = NodeStore()
    store.ingest("note_0001", DOC_A)
    store.ingest("news_0001", DOC_B)
    return store


class TestIngestAndReconstruct:
    def test_document_ids(self):
        store = make_store()
        assert store.document_count() == 2
        assert len(store.document_ids()) == 2

    def test_reconstruct_round_trip(self):
        store = make_store()
        doc_id = store.document_ids()[0]
        rebuilt = store.reconstruct(doc_id)
        assert rebuilt["kind"] == "meeting_note"
        assert rebuilt["customer"]["name"] == "Maria Santos"
        assert rebuilt["tags"] == ["priority", "renewal"]

    def test_values_stored_as_strings(self):
        store = NodeStore()
        doc_id = store.ingest("x", {"n": 42, "flag": True})
        rebuilt = store.reconstruct(doc_id)
        assert rebuilt["n"] == "42"
        assert rebuilt["flag"] == "true"

    def test_document_name(self):
        store = make_store()
        names = {store.document_name(d) for d in store.document_ids()}
        assert names == {"note_0001", "news_0001"}


class TestSearch:
    def test_keyword_in_value(self):
        store = make_store()
        hits = store.keyword_search("renewal")
        assert len(hits) == 1

    def test_keyword_in_name(self):
        store = make_store()
        assert store.keyword_search("tags")  # node name matches

    def test_keyword_case_insensitive(self):
        store = make_store()
        assert store.keyword_search("MARIA")

    def test_keyword_miss(self):
        assert make_store().keyword_search("zzzz") == []

    def test_path_values(self):
        store = make_store()
        doc_id = store.document_ids()[0]
        assert store.path_values(doc_id, "customer/name") == ["Maria Santos"]

    def test_path_into_array(self):
        store = make_store()
        doc_id = store.document_ids()[0]
        assert store.path_values(doc_id, "tags") == ["priority", "renewal"]

    def test_path_missing(self):
        store = make_store()
        doc_id = store.document_ids()[0]
        assert store.path_values(doc_id, "no/such/path") == []


class TestSchemaOnRead:
    VIEW = [
        ("kind", "kind", T.STRING),
        ("cust_id", "customer/id", T.INT),
        ("cust_name", "customer/name", T.STRING),
    ]

    def test_projection_types(self):
        relation = make_store().schema_on_read(self.VIEW)
        assert relation.schema.names == ["doc_id", "kind", "cust_id", "cust_name"]
        by_kind = {row[1]: row for row in relation.rows}
        assert by_kind["meeting_note"][2] == 7  # typed at read time
        assert by_kind["news"][3] == "John Smith"

    def test_missing_paths_null(self):
        view = self.VIEW + [("priority", "priority", T.INT)]
        relation = make_store().schema_on_read(view)
        assert all(row[4] is None for row in relation.rows)

    def test_doc_filter(self):
        relation = make_store().schema_on_read(self.VIEW, doc_filter="news")
        assert len(relation) == 1

    def test_two_views_over_same_store(self):
        """Schema imposition is per-client: two different views coexist."""
        store = make_store()
        narrow = store.schema_on_read([("kind", "kind", T.STRING)])
        wide = store.schema_on_read(self.VIEW)
        assert len(narrow.schema) == 2
        assert len(wide.schema) == 4


class TestExplodedViews:
    ORDER_DOC = {
        "customer": {"id": "7", "name": "Maria Santos"},
        "lines": [
            {"sku": "A-1", "qty": "2"},
            {"sku": "B-9", "qty": "5"},
        ],
    }

    def make_store(self):
        store = NodeStore()
        store.ingest("order_0001", self.ORDER_DOC)
        store.ingest("order_0002", {"customer": {"id": "9", "name": "J"},
                                    "lines": [{"sku": "C-3", "qty": "1"}]})
        store.ingest("empty_0001", {"customer": {"id": "4", "name": "K"}})
        return store

    VIEW = [
        ("cust_id", "customer/id", T.INT),
        ("sku", "sku", T.STRING),
        ("qty", "qty", T.INT),
    ]

    def test_one_row_per_element(self):
        relation = self.make_store().schema_on_read(self.VIEW, explode="lines")
        assert len(relation) == 3  # 2 + 1 lines; doc without lines drops out

    def test_element_relative_and_root_paths_mix(self):
        relation = self.make_store().schema_on_read(self.VIEW, explode="lines")
        first = relation.rows[0]
        assert first[1] == 7  # cust_id from the document root
        assert first[2] == "A-1"  # sku from the exploded element
        assert first[3] == 2

    def test_elements_keep_document_order(self):
        relation = self.make_store().schema_on_read(self.VIEW, explode="lines")
        skus = [row[2] for row in relation.rows if row[1] == 7]
        assert skus == ["A-1", "B-9"]

    def test_explode_missing_path_drops_document(self):
        relation = self.make_store().schema_on_read(
            self.VIEW, explode="no/such/list"
        )
        assert len(relation) == 0

    def test_without_explode_one_row_per_doc(self):
        relation = self.make_store().schema_on_read(self.VIEW)
        assert len(relation) == 3  # all docs, first line only where present


class TestDocumentSource:
    def make_source(self):
        source = DocumentSource("docs", make_store())
        source.define_view("doc_index", TestSchemaOnRead.VIEW)
        return source

    def test_table_and_schema(self):
        source = self.make_source()
        assert source.table_names() == ["doc_index"]
        assert source.schema_of("doc_index").names[0] == "doc_id"

    def test_scan(self):
        source = self.make_source()
        result = source.execute_select(parse_select("SELECT * FROM doc_index"))
        assert len(result) == 2

    def test_projection(self):
        source = self.make_source()
        result = source.execute_select(
            parse_select("SELECT cust_name FROM doc_index")
        )
        assert set(result.column_values("cust_name")) == {
            "Maria Santos", "John Smith",
        }

    def test_rejects_filters(self):
        source = self.make_source()
        with pytest.raises(CapabilityError):
            source.execute_select(
                parse_select("SELECT * FROM doc_index WHERE cust_id = 7")
            )

    @pytest.mark.parametrize("tail", [
        "LIMIT 1", "ORDER BY cust_id", "HAVING COUNT(*) > 0",
    ])
    def test_rejects_what_it_would_ignore(self, tail):
        with pytest.raises(CapabilityError):
            self.make_source().execute_select(parse_select(f"SELECT * FROM doc_index {tail}"))

    def test_rejects_distinct(self):
        with pytest.raises(CapabilityError):
            self.make_source().execute_select(parse_select("SELECT DISTINCT cust_id FROM doc_index"))

    def test_exploded_view_federates(self):
        """Exploded order lines join against a relational product catalog."""
        from repro.common.types import DataType
        from repro.federation import FederatedEngine, FederationCatalog
        from repro.sources import RelationalSource
        from repro.storage import Database

        store = NodeStore()
        store.ingest(
            "order_0001",
            {
                "customer": {"id": "7"},
                "lines": [{"sku": "A-1", "qty": "2"}, {"sku": "B-9", "qty": "5"}],
            },
        )
        source = DocumentSource("docs", store)
        source.define_view(
            "order_lines",
            [
                ("cust_id", "customer/id", DataType.INT),
                ("sku", "sku", DataType.STRING),
                ("qty", "qty", DataType.INT),
            ],
            explode="lines",
        )
        products = Database("products")
        products.create_table(
            "catalog", [("sku", DataType.STRING), ("price", DataType.FLOAT)],
            primary_key=["sku"],
        )
        products.table("catalog").insert_many([("A-1", 10.0), ("B-9", 4.0)])
        catalog = FederationCatalog()
        catalog.register_source(source)
        catalog.register_source(RelationalSource("products", products))
        engine = FederatedEngine(catalog)
        result = engine.query(
            "SELECT l.sku, l.qty * p.price AS line_total FROM order_lines l "
            "JOIN catalog p ON l.sku = p.sku"
        )
        assert sorted(result.relation.rows) == [("A-1", 20.0), ("B-9", 20.0)]

    def test_federates(self):
        """A NETMARK view joins against a relational source end to end."""
        from repro.common.types import DataType
        from repro.federation import FederatedEngine, FederationCatalog
        from repro.sources import RelationalSource
        from repro.storage import Database

        crm = Database("crm")
        crm.create_table(
            "customers", [("id", DataType.INT), ("city", DataType.STRING)],
            primary_key=["id"],
        )
        crm.table("customers").insert((7, "SF"))
        crm.table("customers").insert((9, "NY"))
        catalog = FederationCatalog()
        catalog.register_source(RelationalSource("crm", crm))
        catalog.register_source(self.make_source())
        engine = FederatedEngine(catalog)
        result = engine.query(
            "SELECT d.cust_name, c.city FROM doc_index d "
            "JOIN customers c ON d.cust_id = c.id"
        )
        assert sorted(result.relation.rows) == [
            ("John Smith", "NY"), ("Maria Santos", "SF"),
        ]
