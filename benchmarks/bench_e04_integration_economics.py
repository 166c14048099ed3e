"""E4 — integration economics: schema-centric vs schema-less (NETMARK).

Claim (Ashish §2): with schema-centric mediation, "user costs increase
directly (linearly) with the user benefit" because every new source needs
schema mapping and administration; a lean schema-less approach shows
economies of scale — "costs of adding newer sources decreasing
significantly as the total number of sources integrated increases".

Method: actually integrate n synthetic sources both ways and count the
authored artifacts in the metadata registry. Schema-centric: per source,
register its schema elements, author a mediated-schema mapping priced by
column count, plus alignment work against the already-integrated mediated
schema. Schema-less: ingest the source's records into a NETMARK store
(machine work, not authoring) and amortize a fixed set of application
views over all sources. Marginal authored cost per source is the series.
"""

from repro.metadata import ElementRef, MappingArtifact, MetadataRegistry
from repro.netmark import NodeStore

SOURCE_COLUMNS = 6  # columns per synthetic source table
ALIGNMENT_COST_PER_CONCEPT = 0.2  # checking a new source against the mediated schema
MAPPING_COST_PER_COLUMN = 1.0
APPLICATION_VIEWS = 5  # schema-on-read views the clients actually need
VIEW_AUTHORING_COST = 2.0
INGEST_SETUP_COST = 0.5  # pointing the crawler at a new source


def schema_centric_cost(n_sources: int) -> float:
    """Total authored cost of mediating n sources (counted, not assumed)."""
    registry = MetadataRegistry()
    mediated_concepts = 0
    for index in range(n_sources):
        source = f"src{index}"
        columns = [f"col{c}" for c in range(SOURCE_COLUMNS)]
        registry.register_source_schema(source, {"data": columns})
        # authoring the GAV mapping for this source
        registry.register_artifact(
            MappingArtifact(
                f"map_{source}",
                "gav_view",
                [ElementRef(source, "data", column) for column in columns],
                authoring_cost=SOURCE_COLUMNS * MAPPING_COST_PER_COLUMN
                + mediated_concepts * ALIGNMENT_COST_PER_CONCEPT,
            )
        )
        mediated_concepts += SOURCE_COLUMNS
    return registry.total_authoring_cost()


def schema_less_cost(n_sources: int) -> float:
    """Total authored cost of the NETMARK route for n sources."""
    store = NodeStore()
    registry = MetadataRegistry()
    for index in range(n_sources):
        # ingest is machine work; the authored part is pointing at the feed
        store.ingest(f"src{index}_sample", {"field": "value", "n": str(index)})
        registry.register_artifact(
            MappingArtifact(
                f"ingest_src{index}", "schema_on_read", [], authoring_cost=INGEST_SETUP_COST
            )
        )
    for view in range(APPLICATION_VIEWS):
        registry.register_artifact(
            MappingArtifact(
                f"view_{view}", "schema_on_read", [], authoring_cost=VIEW_AUTHORING_COST
            )
        )
    return registry.total_authoring_cost()


def test_e04_integration_economics(record_experiment):
    counts = [1, 5, 10, 25, 50, 100]
    rows = []
    previous = {}
    marginal_centric = []
    marginal_less = []
    for n in counts:
        centric = schema_centric_cost(n)
        lean = schema_less_cost(n)
        rows.append(
            (
                n,
                round(centric, 1),
                round(lean, 1),
                round(centric / n, 2),
                round(lean / n, 2),
            )
        )
        if previous:
            span = n - previous["n"]
            marginal_centric.append((centric - previous["centric"]) / span)
            marginal_less.append((lean - previous["lean"]) / span)
        previous = {"n": n, "centric": centric, "lean": lean}

    record_experiment(
        "E4",
        "schema-centric cost grows superlinearly; schema-less amortizes",
        ["sources", "schema_centric_cost", "schema_less_cost",
         "centric_per_source", "lean_per_source"],
        rows,
        notes="cost = authored artifacts in the metadata registry (weighted)",
    )

    # Shape: marginal cost per source RISES for schema-centric (alignment
    # against an ever-larger mediated schema) and FALLS per-source overall
    # for schema-less (fixed views amortize).
    assert marginal_centric == sorted(marginal_centric)
    assert marginal_centric[-1] > marginal_centric[0]
    per_source_lean = [row[4] for row in rows]
    assert per_source_lean == sorted(per_source_lean, reverse=True)
    # At 100 sources the lean approach is at least 10x cheaper.
    assert rows[-1][1] > 10 * rows[-1][2]
