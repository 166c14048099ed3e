"""EAI tests: broker pub/sub and saga compensation semantics."""

import pytest

from repro.common.errors import ProcessError
from repro.common.types import DataType as T
from repro.eai import MessageBroker, ProcessDefinition, ProcessEngine, Step
from repro.storage import Database


class TestBroker:
    def test_publish_subscribe(self):
        broker = MessageBroker()
        received = []
        broker.subscribe("employee.*", lambda m: received.append(m.topic))
        broker.publish("employee.created", {"id": 1})
        broker.publish("order.created", {"id": 2})
        assert received == ["employee.created"]

    def test_wildcard_all(self):
        broker = MessageBroker()
        received = []
        broker.subscribe("*", lambda m: received.append(m.topic))
        broker.publish("a", {})
        broker.publish("b", {})
        assert len(received) == 2

    def test_log_and_query(self):
        broker = MessageBroker()
        broker.publish("x.one", {"v": 1})
        broker.publish("y.two", {"v": 2})
        assert [m.topic for m in broker.messages_on("x.*")] == ["x.one"]

    def test_log_keeps_only_the_most_recent_messages(self):
        from repro.eai.broker import MESSAGE_LOG_LENGTH

        broker = MessageBroker()
        for n in range(MESSAGE_LOG_LENGTH + 5):
            broker.publish("tick", {"n": n})
        assert len(broker.log) == MESSAGE_LOG_LENGTH  # saturates; sequence counts on
        assert broker.log[0].sequence == 6 and broker.log[-1].sequence == MESSAGE_LOG_LENGTH + 5
        assert len(broker.messages_on("tick")) == MESSAGE_LOG_LENGTH

    def test_sequence_monotonic(self):
        broker = MessageBroker()
        first = broker.publish("t", {})
        second = broker.publish("t", {})
        assert second.sequence > first.sequence

    def test_payload_copied(self):
        broker = MessageBroker()
        payload = {"v": 1}
        message = broker.publish("t", payload)
        payload["v"] = 99
        assert message.payload["v"] == 1


def hire_employee_process(db: Database, fail_at=None):
    """The paper's "insert employee into company" saga over real tables."""

    def add_hr(ctx):
        if fail_at == "hr":
            raise RuntimeError("hr down")
        db.table("hr").insert((ctx["emp_id"], ctx["name"]))
        return "hr-ok"

    def remove_hr(ctx):
        db.table("hr").delete_where(lambda row: row[0] == ctx["emp_id"])

    def provision_office(ctx):
        if fail_at == "office":
            raise RuntimeError("no offices left")
        db.table("offices").insert((ctx["emp_id"], "B-12"))
        return "B-12"

    def release_office(ctx):
        db.table("offices").delete_where(lambda row: row[0] == ctx["emp_id"])

    def order_computer(ctx):
        if fail_at == "computer":
            raise RuntimeError("supplier rejected order")
        db.table("equipment").insert((ctx["emp_id"], "laptop"))
        return "laptop"

    return ProcessDefinition(
        "hire_employee",
        [
            Step("hr_record", add_hr, compensate=remove_hr, duration_s=60),
            Step("office", provision_office, compensate=release_office, duration_s=3600),
            Step("computer", order_computer, duration_s=86400),
        ],
    )


def make_db():
    db = Database("corp")
    db.create_table("hr", [("emp_id", T.INT), ("name", T.STRING)], primary_key=["emp_id"])
    db.create_table("offices", [("emp_id", T.INT), ("office", T.STRING)])
    db.create_table("equipment", [("emp_id", T.INT), ("item", T.STRING)])
    return db


class TestSaga:
    def test_happy_path(self):
        db = make_db()
        engine = ProcessEngine()
        result = engine.run(hire_employee_process(db), {"emp_id": 1, "name": "Ann"})
        assert result.succeeded
        assert result.executed == ["hr_record", "office", "computer"]
        assert db.table("hr").get(1) is not None
        assert result.simulated_seconds == 60 + 3600 + 86400

    def test_failure_compensates_in_reverse(self):
        db = make_db()
        engine = ProcessEngine()
        result = engine.run(
            hire_employee_process(db, fail_at="computer"),
            {"emp_id": 1, "name": "Ann"},
        )
        assert result.status == "compensated"
        assert result.compensated == ["office", "hr_record"]
        # every side effect rolled back
        assert db.table("hr").get(1) is None
        assert len(db.table("offices")) == 0

    def test_first_step_failure_compensates_nothing(self):
        db = make_db()
        engine = ProcessEngine()
        result = engine.run(
            hire_employee_process(db, fail_at="hr"), {"emp_id": 1, "name": "Ann"}
        )
        assert result.status == "compensated"
        assert result.compensated == []
        assert result.error is not None

    def test_context_receives_step_results(self):
        db = make_db()
        engine = ProcessEngine()
        result = engine.run(hire_employee_process(db), {"emp_id": 2, "name": "Bo"})
        assert result.context["office"] == "B-12"

    def test_conditional_step_skipped(self):
        engine = ProcessEngine()
        definition = ProcessDefinition(
            "cond",
            [
                Step("always", lambda ctx: 1),
                Step("never", lambda ctx: 2, condition=lambda ctx: False),
            ],
        )
        result = engine.run(definition)
        assert result.skipped == ["never"]
        assert result.executed == ["always"]

    def test_lifecycle_events_published(self):
        db = make_db()
        engine = ProcessEngine()
        engine.run(hire_employee_process(db), {"emp_id": 3, "name": "Cy"})
        topics = [m.topic for m in engine.broker.log]
        assert "process.hire_employee.started" in topics
        assert "process.hire_employee.completed" in topics

    def test_failed_run_publishes_compensated_event(self):
        db = make_db()
        engine = ProcessEngine()
        engine.run(hire_employee_process(db, fail_at="office"), {"emp_id": 4, "name": "Di"})
        topics = [m.topic for m in engine.broker.log]
        assert "process.hire_employee.failed" in topics
        assert "process.hire_employee.compensated" in topics

    def test_compensation_failure_reported(self):
        def boom(ctx):
            raise RuntimeError("cannot undo")

        definition = ProcessDefinition(
            "fragile",
            [
                Step("a", lambda ctx: 1, compensate=boom),
                Step("b", lambda ctx: 1 / 0),
            ],
        )
        result = ProcessEngine().run(definition)
        assert result.status == "compensation_failed"
        assert "cannot undo" in result.error

    def test_run_or_raise(self):
        db = make_db()
        engine = ProcessEngine()
        with pytest.raises(ProcessError):
            engine.run_or_raise(
                hire_employee_process(db, fail_at="hr"), {"emp_id": 5, "name": "Ed"}
            )

    def test_history_kept(self):
        db = make_db()
        engine = ProcessEngine()
        engine.run(hire_employee_process(db), {"emp_id": 6, "name": "Fi"})
        engine.run(hire_employee_process(db, fail_at="hr"), {"emp_id": 7, "name": "Gil"})
        assert len(engine.history) == 2
        assert engine.history[0].succeeded
        assert not engine.history[1].succeeded
