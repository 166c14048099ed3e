"""Unit tests for the network simulator and metrics collector."""

import pytest

from repro.netsim import Link, MetricsCollector, NetworkModel, WireFormat


class TestNetworkModel:
    def test_same_site_free(self):
        net = NetworkModel()
        assert net.transfer_seconds("a", "a", 10_000) == 0.0
        assert net.wire_bytes("a", "a", 10_000, WireFormat.BINARY) == 0

    def test_default_link_cost(self):
        net = NetworkModel(default_link=Link(latency_s=0.01, bandwidth_bps=1000))
        assert net.transfer_seconds("a", "b", 500) == pytest.approx(0.01 + 0.5)

    def test_specific_link_overrides_default(self):
        net = NetworkModel()
        net.set_link("a", "b", Link(latency_s=1.0, bandwidth_bps=1e12))
        assert net.transfer_seconds("a", "b", 1) == pytest.approx(1.0, abs=1e-6)
        # symmetric by default
        assert net.transfer_seconds("b", "a", 1) == pytest.approx(1.0, abs=1e-6)

    def test_asymmetric_link(self):
        net = NetworkModel()
        net.set_link("a", "b", Link(latency_s=5.0), symmetric=False)
        assert net.transfer_seconds("b", "a", 0) == pytest.approx(
            net.default_link.latency_s
        )

    def test_xml_inflates_three_times(self):
        net = NetworkModel(default_link=Link(latency_s=0.0, bandwidth_bps=1000))
        binary = net.transfer_seconds("a", "b", 900, WireFormat.BINARY)
        xml = net.transfer_seconds("a", "b", 900, WireFormat.XML)
        assert xml == pytest.approx(3 * binary)
        assert net.wire_bytes("a", "b", 900, WireFormat.XML) == 2700


class TestMetricsCollector:
    def test_record_transfer_accumulates(self):
        metrics = MetricsCollector(
            network=NetworkModel(default_link=Link(latency_s=0.0, bandwidth_bps=1000))
        )
        seconds = metrics.record_transfer("src", "hub", rows=10, payload_bytes=2000)
        assert seconds == pytest.approx(2.0)
        assert metrics.rows_shipped == 10
        assert metrics.payload_bytes == 2000
        assert metrics.wire_bytes == 2000
        assert metrics.simulated_seconds == pytest.approx(2.0)

    def test_source_query_counting(self):
        metrics = MetricsCollector()
        metrics.record_source_query("crm", seconds=0.5)
        metrics.record_source_query("crm")
        metrics.record_source_query("finance")
        assert metrics.source_queries["crm"] == 2
        assert metrics.total_source_queries() == 3
        assert metrics.simulated_seconds == pytest.approx(0.5)

    def test_reset(self):
        metrics = MetricsCollector()
        metrics.record_transfer("a", "b", 1, 100)
        metrics.record_source_query("s")
        metrics.reset()
        assert metrics.summary() == {
            "source_queries": 0,
            "rows_shipped": 0,
            "payload_bytes": 0,
            "wire_bytes": 0,
            "simulated_seconds": 0.0,
        }

    def test_reset_is_field_generic(self):
        """Every counter field zeroes — including ones merge() knows about."""
        from dataclasses import fields

        metrics = MetricsCollector()
        network = metrics.network
        metrics.record_transfer("a", "b", 1, 100)
        metrics.record_source_query("s")
        # touch every numeric counter so a hand-copied reset list would miss one
        for spec in fields(metrics):
            value = getattr(metrics, spec.name)
            if isinstance(value, float):
                setattr(metrics, spec.name, value + 1.5)
            elif isinstance(value, int):
                setattr(metrics, spec.name, value + 3)
        metrics.reset()
        assert metrics.network is network  # the model survives, counters don't
        for spec in fields(metrics):
            value = getattr(metrics, spec.name)
            if isinstance(value, (int, float)):
                assert value == 0, spec.name
            elif spec.name != "network":
                assert not value, spec.name

    def test_a_subclass_counter_is_merged_and_reset_unedited(self):
        """The field list is resolved once per class - per *class*: a counter
        a subclass adds is merged and zeroed although neither method names it
        and the base class resolved its own list first."""
        from collections import Counter
        from dataclasses import dataclass, field

        MetricsCollector().merge(MetricsCollector())  # base list resolved first

        @dataclass
        class Extended(MetricsCollector):
            spills: int = 0
            spill_seconds: float = 0.0
            spill_log: list = field(default_factory=lambda: [])
            spills_by_op: Counter = field(default_factory=Counter)
            note: str = "kept"  # not a counter: left alone

        mine, theirs = Extended(), Extended(spills=2, spill_seconds=0.5, note="other")
        theirs.spill_log.append("sort")
        theirs.spills_by_op["sort"] += 2
        theirs.record_source_query("crm", seconds=1.0)
        mine.merge(theirs)
        mine.merge(theirs)
        assert (mine.spills, mine.spill_seconds, mine.note) == (4, 1.0, "kept")
        assert mine.spill_log == ["sort", "sort"] and mine.spills_by_op["sort"] == 4
        assert mine.source_queries["crm"] == 2 and mine.simulated_seconds == 2.0
        network = mine.network
        mine.reset()
        assert (mine.spills, mine.spill_seconds, mine.note) == (0, 0.0, "kept")
        assert type(mine.spills) is int and type(mine.spill_seconds) is float
        assert not mine.spill_log and not mine.spills_by_op and not mine.source_queries
        assert mine.network is network
        MetricsCollector().merge(theirs)  # the base class still folds only its own

    def test_merge_keeps_the_bits_of_the_field_loop(self):
        """`merge` folds by field lists derived once per class; every number is
        the `self.x + other.x` the loop it replaced made, to the bit - here
        kept as the reference - a subclass's extra counter included."""
        import random
        from collections import Counter
        from dataclasses import dataclass

        @dataclass
        class Extended(MetricsCollector):
            spill_seconds: float = 0.0

        def loop_merge(into, other):
            for name, kind in type(into)._counter_kinds():
                if kind is list:
                    getattr(into, name).extend(getattr(other, name))
                elif kind is Counter:
                    getattr(into, name).update(getattr(other, name))
                else:
                    setattr(into, name, getattr(into, name) + getattr(other, name))

        rng = random.Random(44)
        merged, reference = Extended(), Extended()
        for _ in range(200):
            part = Extended(spill_seconds=rng.random() / 7)
            part.record_source_query("crm", seconds=rng.random() / 3)
            part.charge_seconds(rng.expovariate(5.0))
            part.record_transfer("crm", "hub", rng.randrange(9), rng.randrange(999))
            merged.merge(part)
            loop_merge(reference, part)
        for name, _ in Extended._counter_kinds():
            mine, theirs = getattr(merged, name), getattr(reference, name)
            assert mine == theirs and type(mine) is type(theirs), name
        assert merged.simulated_seconds.hex() == reference.simulated_seconds.hex()
        assert merged.spill_seconds.hex() == reference.spill_seconds.hex() != 0.0.hex()

    def test_summary_keys(self):
        metrics = MetricsCollector()
        metrics.record_transfer("a", "b", 5, 100, WireFormat.XML, "result ship")
        summary = metrics.summary()
        assert summary["rows_shipped"] == 5
        assert summary["wire_bytes"] == 300
        assert metrics.transfers[0].description == "result ship"


class TestSimClock:
    def test_starts_at_zero_and_advances(self):
        from repro.netsim import SimClock

        clock = SimClock()
        assert clock.now() == 0.0
        clock.advance(2.5)
        assert clock() == pytest.approx(2.5)

    def test_rejects_negative_advance(self):
        from repro.netsim import SimClock

        with pytest.raises(ValueError):
            SimClock().advance(-1.0)


class TestFaultInjectorDeterminism:
    def run_schedule(self, seed):
        from repro.netsim import ErrorRate, FaultInjector, LatencySpike, SimClock

        clock = SimClock()
        injector = FaultInjector(seed=seed, clock=clock)
        injector.script("a", ErrorRate(0.4), LatencySpike(0.5, every=3))
        injector.script("b", ErrorRate(0.4))
        outcomes = []
        for i in range(40):
            for name in ("a", "b"):
                try:
                    effect = injector.on_call(name)
                    outcomes.append((name, i, "ok", effect.extra_latency_s))
                except Exception as exc:
                    outcomes.append((name, i, "fail", str(exc)))
            clock.advance(1.0)
        return outcomes, injector

    def test_same_seed_replays_bit_for_bit(self):
        first, _ = self.run_schedule(seed=42)
        second, _ = self.run_schedule(seed=42)
        assert first == second

    def test_different_seeds_differ(self):
        first, _ = self.run_schedule(seed=42)
        second, _ = self.run_schedule(seed=43)
        assert first != second

    def test_per_source_streams_are_independent(self):
        """Adding calls against one source must not perturb another's
        stream — each source draws from its own `f"{seed}:{name}"` RNG."""
        from repro.netsim import ErrorRate, FaultInjector

        solo = FaultInjector(seed=9)
        solo.script("a", ErrorRate(0.5))
        solo_outcomes = []
        for _ in range(30):
            try:
                solo.on_call("a")
                solo_outcomes.append(True)
            except Exception:
                solo_outcomes.append(False)

        mixed = FaultInjector(seed=9)
        mixed.script("a", ErrorRate(0.5))
        mixed.script("b", ErrorRate(0.5))
        mixed_outcomes = []
        for _ in range(30):
            try:
                mixed.on_call("b")  # interleaved traffic on another source
            except Exception:
                pass
            try:
                mixed.on_call("a")
                mixed_outcomes.append(True)
            except Exception:
                mixed_outcomes.append(False)
        assert solo_outcomes == mixed_outcomes

    def test_records_capture_every_decision(self):
        from repro.netsim import FaultInjector, Transient

        injector = FaultInjector(seed=0)
        injector.script("s", Transient(2))
        for _ in range(2):
            with pytest.raises(Exception):
                injector.on_call("s")
        injector.on_call("s")
        assert injector.calls("s") == 3
        assert injector.failures("s") == 2
        assert [r.failed for r in injector.records] == [True, True, False]
        assert injector.records[0].call_index == 0

    def test_outage_windows_over_calls_and_clock(self):
        from repro.common.errors import InjectedFaultError
        from repro.netsim import FaultInjector, Outage, SimClock

        clock = SimClock()
        injector = FaultInjector(seed=0, clock=clock)
        injector.script("s", Outage(start_s=5.0, end_s=10.0))
        injector.on_call("s")  # t=0: before the window
        clock.advance(6.0)
        with pytest.raises(InjectedFaultError):
            injector.on_call("s")  # t=6: inside
        clock.advance(5.0)
        injector.on_call("s")  # t=11: after

    def test_trickle_inflates_simulated_time(self):
        from repro.common.types import DataType as T
        from repro.netsim import FaultInjector, MetricsCollector, Trickle
        from repro.sources import RelationalSource
        from repro.sql.parser import parse_select
        from repro.storage import Database

        db = Database("d")
        db.create_table("t", [("id", T.INT)])
        db.table("t").insert_many([(i,) for i in range(100)])
        plain = RelationalSource("plain", db)
        baseline = MetricsCollector()
        plain.execute_select(parse_select("SELECT id FROM t"), baseline)

        injector = FaultInjector(seed=0)
        slow = injector.wrap(RelationalSource("slow", db))
        injector.script("slow", Trickle(4.0))
        slowed = MetricsCollector()
        slow.execute_select(parse_select("SELECT id FROM t"), slowed)
        assert slowed.simulated_seconds == pytest.approx(
            4.0 * baseline.simulated_seconds
        )
