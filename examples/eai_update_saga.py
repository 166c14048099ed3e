"""EII reads, EAI writes: Carey's "insert employee into company" saga.

Run with:  python examples/eai_update_saga.py

The read side uses a single mediated view (`employee360`) answered by the
federated optimizer for any access path. The write side is a long-running
business process: HR record, office provisioning, equipment order — with
compensation when a step fails mid-flight, leaving no partial employee
scattered across sources.
"""

from repro.common.types import DataType as T
from repro.eai import ProcessDefinition, ProcessEngine, Step
from repro.federation import FederatedEngine, FederationCatalog
from repro.sources import RelationalSource
from repro.storage import Database


def build_world():
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
    for emp_id, name, dept in [(1, "ada", "eng"), (2, "grace", "eng"), (3, "edgar", "ops")]:
        hr.table("people").insert((emp_id, name, dept))
        facilities.table("offices").insert((emp_id, f"B-{emp_id}"))
        it.table("machines").insert((emp_id, "thinkpad"))
    return hr, facilities, it


def hire(hr, facilities, it, supplier_up: bool) -> ProcessDefinition:
    def add_person(ctx):
        hr.table("people").insert((ctx["emp_id"], ctx["name"], ctx["dept"]))

    def remove_person(ctx):
        hr.table("people").delete_where(lambda row: row[0] == ctx["emp_id"])

    def assign_office(ctx):
        facilities.table("offices").insert((ctx["emp_id"], "B-9"))
        return "B-9"

    def release_office(ctx):
        facilities.table("offices").delete_where(lambda row: row[0] == ctx["emp_id"])

    def order_machine(ctx):
        if not supplier_up:
            raise RuntimeError("supplier rejected the purchase order")
        it.table("machines").insert((ctx["emp_id"], "thinkpad"))
        return "thinkpad"

    return ProcessDefinition(
        "hire_employee",
        [
            Step("hr_record", add_person, compensate=remove_person, duration_s=3600),
            Step("office", assign_office, compensate=release_office, duration_s=7200),
            Step("equipment", order_machine, duration_s=2 * 86400),
        ],
    )


def main():
    hr, facilities, it = build_world()
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
    engine = FederatedEngine(catalog)

    print("== read side (EII): one view, any access path ==")
    for label, sql in [
        ("by id", "SELECT * FROM employee360 e WHERE e.emp_id = 2"),
        ("by dept", "SELECT e.name, e.office FROM employee360 e WHERE e.dept = 'eng'"),
    ]:
        result = engine.query(sql)
        print(f"[{label}]")
        print(result.relation.pretty())
    print()

    process_engine = ProcessEngine()

    print("== write side (EAI): successful hire ==")
    ok = process_engine.run(
        hire(hr, facilities, it, supplier_up=True),
        {"emp_id": 10, "name": "jim", "dept": "eng"},
    )
    print(f"status: {ok.status}; steps: {ok.executed}; "
          f"runs {ok.simulated_seconds/86400:.1f} simulated days")
    print(engine.query("SELECT * FROM employee360 e WHERE e.emp_id = 10").relation.pretty())
    print()

    print("== write side: supplier outage mid-saga ==")
    failed = process_engine.run(
        hire(hr, facilities, it, supplier_up=False),
        {"emp_id": 11, "name": "doomed", "dept": "ops"},
    )
    print(f"status: {failed.status}; error: {failed.error}")
    print(f"compensated (reverse order): {failed.compensated}")
    leftovers = hr.table("people").get(11)
    print(f"partial employee left behind in HR: {leftovers}")
    print("broker audit trail:",
          [m.topic for m in process_engine.broker.messages_on('process.*')][-4:])
    print()

    print("== generated update method: UPDATE employee360 SET … ==")
    from repro.mediator import UpdateSagaGenerator

    generator = UpdateSagaGenerator(catalog)
    saga = generator.generate(
        "employee360",
        {"dept": "research", "model": "mac"},
        key_column="emp_id",
        key_value=2,
    )
    print(f"auto-generated saga {saga.name!r} with steps:")
    for step in saga.steps:
        print(f"  - {step.name}")
    result = process_engine.run(saga)
    print(f"status: {result.status}")
    print(engine.query("SELECT * FROM employee360 e WHERE e.emp_id = 2").relation.pretty())


if __name__ == "__main__":
    main()
