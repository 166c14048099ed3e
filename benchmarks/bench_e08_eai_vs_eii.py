"""E8 — EAI vs EII on the "single view of employee" problem.

Claim (Carey §4): building the read side with EAI "is like hand-writing a
distributed query plan" — each new access path (by id, by department, by
location, by computer model) needs another hand-written process, while an
EII view is expressed once and the optimizer derives every plan. But the
update side ("insert employee into company") is a long-running business
process EII cannot express; it needs saga compensation.

Method: implement both sides over hr/facilities/it sources. Count authored
artifacts per access path, verify both return identical answers, then run
the update saga with a mid-flight failure and check compensation.
"""

from repro.common.types import DataType as T
from repro.eai import ProcessDefinition, ProcessEngine, Step
from repro.federation import FederatedEngine, FederationCatalog
from repro.sources import RelationalSource
from repro.storage import Database

ACCESS_PATHS = {
    "by_id": "SELECT * FROM employee360 e WHERE e.emp_id = 3",
    "by_department": "SELECT * FROM employee360 e WHERE e.dept = 'eng'",
    "by_location": "SELECT * FROM employee360 e WHERE e.office = 'B-2'",
    "by_computer": "SELECT * FROM employee360 e WHERE e.model = 'thinkpad'",
}


def build_enterprise_dbs():
    hr = Database("hr")
    hr.create_table(
        "people", [("emp_id", T.INT), ("name", T.STRING), ("dept", T.STRING)],
        primary_key=["emp_id"],
    )
    facilities = Database("facilities")
    facilities.create_table(
        "offices", [("emp_id", T.INT), ("office", T.STRING)], primary_key=["emp_id"]
    )
    it = Database("it")
    it.create_table(
        "machines", [("emp_id", T.INT), ("model", T.STRING)], primary_key=["emp_id"]
    )
    for emp_id in range(1, 9):
        hr.table("people").insert((emp_id, f"emp{emp_id}", "eng" if emp_id % 2 else "sales"))
        facilities.table("offices").insert((emp_id, f"B-{emp_id % 3}"))
        it.table("machines").insert((emp_id, "thinkpad" if emp_id % 3 else "mac"))
    return hr, facilities, it


def build_eii(hr, facilities, it):
    catalog = FederationCatalog()
    catalog.register_source(RelationalSource("hr", hr))
    catalog.register_source(RelationalSource("facilities", facilities))
    catalog.register_source(RelationalSource("it", it))
    catalog.define(
        "employee360",
        "SELECT p.emp_id AS emp_id, p.name AS name, p.dept AS dept, "
        "o.office AS office, m.model AS model "
        "FROM people p JOIN offices o ON p.emp_id = o.emp_id "
        "JOIN machines m ON p.emp_id = m.emp_id",
    )
    return FederatedEngine(catalog)


def eai_single_view(hr, facilities, it, predicate):
    """A hand-written EAI 'process' computing the view for one access path."""
    rows = []
    for person in hr.table("people").rows():
        office_rows = facilities.table("offices").lookup("emp_id", person[0])
        machine_rows = it.table("machines").lookup("emp_id", person[0])
        for office in office_rows:
            for machine in machine_rows:
                row = person + (office[1], machine[1])
                if predicate(row):
                    rows.append(row)
    return sorted(rows)


EAI_PREDICATES = {
    "by_id": lambda row: row[0] == 3,
    "by_department": lambda row: row[2] == "eng",
    "by_location": lambda row: row[3] == "B-2",
    "by_computer": lambda row: row[4] == "thinkpad",
}


def hire_process(hr, facilities, it, fail_at_it: bool) -> ProcessDefinition:
    def add_person(ctx):
        hr.table("people").insert((ctx["emp_id"], ctx["name"], ctx["dept"]))

    def remove_person(ctx):
        hr.table("people").delete_where(lambda row: row[0] == ctx["emp_id"])

    def assign_office(ctx):
        facilities.table("offices").insert((ctx["emp_id"], "B-9"))

    def release_office(ctx):
        facilities.table("offices").delete_where(lambda row: row[0] == ctx["emp_id"])

    def order_machine(ctx):
        if fail_at_it:
            raise RuntimeError("procurement freeze")
        it.table("machines").insert((ctx["emp_id"], "thinkpad"))

    return ProcessDefinition(
        "hire",
        [
            Step("person", add_person, compensate=remove_person, duration_s=3600),
            Step("office", assign_office, compensate=release_office, duration_s=7200),
            Step("machine", order_machine, duration_s=86400),
        ],
    )


def test_e08_eai_vs_eii(record_experiment):
    hr, facilities, it = build_enterprise_dbs()
    engine = build_eii(hr, facilities, it)

    rows = []
    eii_artifacts = 1  # the single view definition
    eai_artifacts = 0
    for path, sql in ACCESS_PATHS.items():
        eii_result = engine.query(sql)
        eai_rows = eai_single_view(hr, facilities, it, EAI_PREDICATES[path])
        assert sorted(eii_result.relation.rows) == eai_rows
        eai_artifacts += 1  # each access path is another hand-written plan
        rows.append(
            (
                path,
                len(eai_rows),
                eii_artifacts,
                eai_artifacts,
                len(eii_result.plan.fetches),
            )
        )

    # The update side: EII has no answer; the EAI saga does, with compensation.
    engine_eai = ProcessEngine()
    ok = engine_eai.run(
        hire_process(hr, facilities, it, fail_at_it=False),
        {"emp_id": 100, "name": "new", "dept": "eng"},
    )
    assert ok.succeeded and hr.table("people").get(100) is not None
    failed = engine_eai.run(
        hire_process(hr, facilities, it, fail_at_it=True),
        {"emp_id": 101, "name": "doomed", "dept": "eng"},
    )
    assert failed.status == "compensated"
    assert hr.table("people").get(101) is None  # rolled back across sources
    assert len(facilities.table("offices").lookup("emp_id", 101)) == 0

    record_experiment(
        "E8",
        "one EII view serves every access path; EAI needs a plan per path "
        "(but owns updates via compensation)",
        ["access_path", "result_rows", "eii_artifacts", "eai_artifacts_cum",
         "eii_component_queries"],
        rows,
        notes="update saga: success committed, mid-flight failure fully compensated",
    )

    # Shape: EII artifact count stays 1 while EAI grows linearly per path.
    assert [row[2] for row in rows] == [1, 1, 1, 1]
    assert [row[3] for row in rows] == [1, 2, 3, 4]
