"""E12 — measuring integration agility under schema evolution.

Claim (Rosenthal §7): "Provide ways to measure data integration agility,
either analytically or by experiment … for predictable changes such as
adding attributes or tables, and changing attribute representations."

Method: build the metadata registries of two integration architectures
over the same ten sources — point-to-point (every consumer maps to every
producer) and hub-mediated (one mapping per source against the mediated
schema) — then replay the same evolution script (add column, rename
column, change representation, drop column) and compare total rework and
the agility score. The knowledge-driven (mediated) architecture absorbs
change much more cheaply; adds are free in both.
"""

from repro.metadata import (
    ChangeImpactAnalyzer,
    ElementRef,
    MappingArtifact,
    MetadataRegistry,
    SchemaChange,
)

N_SOURCES = 10
COLUMNS = ["id", "name", "city", "amount"]


def point_to_point_registry() -> MetadataRegistry:
    registry = MetadataRegistry()
    for index in range(N_SOURCES):
        registry.register_source_schema(f"src{index}", {"data": COLUMNS})
    # every ordered pair of sources has a hand-written feed mapping
    for a in range(N_SOURCES):
        for b in range(N_SOURCES):
            if a == b:
                continue
            registry.register_artifact(
                MappingArtifact(
                    f"feed_{a}_to_{b}",
                    "etl_job",
                    [ElementRef(f"src{a}", "data", column) for column in COLUMNS],
                    authoring_cost=2.0,
                )
            )
    return registry


def mediated_registry() -> MetadataRegistry:
    registry = MetadataRegistry()
    for index in range(N_SOURCES):
        registry.register_source_schema(f"src{index}", {"data": COLUMNS})
        registry.register_artifact(
            MappingArtifact(
                f"map_src{index}",
                "gav_view",
                [ElementRef(f"src{index}", "data", column) for column in COLUMNS],
                authoring_cost=2.0,
            )
        )
    return registry


CHANGE_SCRIPT = [
    SchemaChange("add_column", ElementRef("src3", "data", "loyalty_tier")),
    SchemaChange("rename_column", ElementRef("src3", "data", "city")),
    SchemaChange("change_representation", ElementRef("src3", "data", "amount"),
                 detail="cents -> decimal dollars"),
    SchemaChange("drop_column", ElementRef("src3", "data", "name")),
]


def test_e12_agility(record_experiment):
    architectures = {
        "point_to_point": point_to_point_registry(),
        "hub_mediated": mediated_registry(),
    }
    rows = []
    cost = {}
    per_change = {}
    for name, registry in architectures.items():
        analyzer = ChangeImpactAnalyzer(registry)
        report = analyzer.analyze(CHANGE_SCRIPT)
        cost[name] = report.total_cost
        per_change[name] = {
            change.kind: analyzer.analyze([change]).total_cost
            for change in CHANGE_SCRIPT
        }
        rows.append(
            (
                name,
                len(registry.artifacts()),
                round(registry.total_authoring_cost(), 1),
                report.artifacts_touched,
                round(report.total_cost, 1),
                round(report.agility_score(registry.total_authoring_cost()), 3),
            )
        )

    detail_rows = [
        (
            change.kind,
            round(per_change["point_to_point"][change.kind], 2),
            round(per_change["hub_mediated"][change.kind], 2),
        )
        for change in CHANGE_SCRIPT
    ]
    record_experiment(
        "E12",
        "agility is measurable: mediated hub absorbs change far cheaper "
        "than point-to-point",
        ["architecture", "artifacts", "invested_cost", "touched", "rework_cost",
         "agility_score"],
        rows,
        notes="per-change rework (p2p vs hub): "
        + "; ".join(f"{k}={a}/{h}" for k, a, h in detail_rows),
    )

    # Shape: point-to-point reworks ~N-1 artifacts per change, hub exactly 1.
    assert cost["point_to_point"] > 5 * cost["hub_mediated"]
    assert per_change["point_to_point"]["add_column"] == 0.0
    assert per_change["hub_mediated"]["add_column"] == 0.0
    assert (
        per_change["hub_mediated"]["drop_column"]
        > per_change["hub_mediated"]["rename_column"]
    )
    hub_score = rows[1][5]
    p2p_score = rows[0][5]
    assert hub_score < p2p_score or cost["point_to_point"] > cost["hub_mediated"]
