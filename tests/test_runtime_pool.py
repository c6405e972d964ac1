"""Warm runtime pool: LRU semantics, WfMS integration, warm/cold labels."""

import pytest

from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.fdbs.config import EngineConfig
from repro.fdbs.types import INTEGER
from repro.simtime.costs import DEFAULT_COSTS
from repro.simtime.trace import TraceRecorder
from repro.sysmodel.machine import Machine
from repro.sysmodel.pool import WarmRuntimePool
from repro.wfms.builder import ProcessBuilder
from repro.wfms.engine import WorkflowEngine
from repro.wfms.programs import ProgramRegistry


class TestPoolUnit:
    def test_cold_then_warm(self):
        pool = WarmRuntimePool(capacity=2, enabled=True)
        assert pool.acquire("program:a") is False
        assert pool.acquire("program:a") is True
        assert pool.stats()["warm_hits"] == 1
        assert pool.stats()["cold_starts"] == 1

    def test_keys_are_case_sensitive(self):
        """Regression: the pool used to fold keys to upper case, so
        distinct runtimes like ``audtf:Foo`` and ``audtf:foo`` shared a
        warm slot and the second one got a false warm hit."""
        pool = WarmRuntimePool(enabled=True)
        pool.acquire("program:A")
        assert pool.acquire("PROGRAM:a") is False
        assert pool.is_warm("program:A")
        assert pool.is_warm("PROGRAM:a")
        assert not pool.is_warm("program:a")

    def test_fault_evict_drops_slot_and_counts(self):
        pool = WarmRuntimePool(enabled=True)
        pool.acquire("audtf:F")
        assert pool.evict("audtf:F") is True
        assert not pool.is_warm("audtf:F")
        assert pool.evict("audtf:F") is False
        stats = pool.stats()
        assert stats["fault_evictions"] == 1
        assert stats["evictions"] == 0

    def test_lru_eviction(self):
        pool = WarmRuntimePool(capacity=2, enabled=True)
        pool.acquire("a")
        pool.acquire("b")
        pool.acquire("a")  # refresh a; b is now LRU
        pool.acquire("c")  # evicts b
        assert pool.is_warm("a") and pool.is_warm("c")
        assert not pool.is_warm("b")
        assert pool.stats()["evictions"] == 1

    def test_capacity_one_alternation_never_warm(self):
        pool = WarmRuntimePool(capacity=1, enabled=True)
        for _ in range(3):
            assert pool.acquire("a") is False
            assert pool.acquire("b") is False
        assert pool.warm_hits == 0
        assert pool.cold_starts == 6
        assert pool.evictions == 5

    def test_disabled_counts_cold_but_keeps_nothing(self):
        pool = WarmRuntimePool(enabled=False)
        assert pool.acquire("a") is False
        assert pool.acquire("a") is False
        assert pool.cold_starts == 2
        assert len(pool) == 0
        assert not pool.is_warm("a")

    def test_shrink_evicts_lru_first(self):
        pool = WarmRuntimePool(capacity=3, enabled=True)
        for key in ("a", "b", "c"):
            pool.acquire(key)
        pool.configure(capacity=1)
        assert pool.contents() == ["c"]

    def test_disable_clears_slots(self):
        pool = WarmRuntimePool(enabled=True)
        pool.acquire("a")
        pool.configure(enabled=False)
        assert len(pool) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            WarmRuntimePool(capacity=0)
        with pytest.raises(ValueError):
            WarmRuntimePool().configure(capacity=-1)


def two_program_process():
    """A process invoking two *different* activity programs in sequence."""
    b = ProcessBuilder("Two", [("X", INTEGER)], [("S", INTEGER)])
    b.program_activity(
        "D", "math.double", [("X", INTEGER)], [("Y", INTEGER)],
        {"X": b.from_input("X")},
    )
    b.program_activity(
        "A", "math.add", [("A", INTEGER), ("B", INTEGER)], [("S", INTEGER)],
        {"A": b.from_activity("D", "Y"), "B": b.from_input("X")},
    )
    b.sequence("D", "A")
    b.map_output("S", b.from_activity("A", "S"))
    return b.build()


def wf_engine(pool_capacity=None, pooling=True):
    machine = Machine()
    machine.configure_runtime(pooling=pooling, pool_capacity=pool_capacity)
    registry = ProgramRegistry()
    registry.register_program("math.double", lambda inp: {"Y": inp["X"] * 2})
    registry.register_program(
        "math.add", lambda inp: {"S": inp["A"] + inp["B"]}
    )
    return WorkflowEngine(registry, machine), machine


class TestWfmsIntegration:
    def test_capacity_one_alternating_programs_stays_cold(self):
        """Two programs through a 1-slot pool: every start is cold —
        no false warm hits from the just-evicted slot."""
        engine, machine = wf_engine(pool_capacity=1)
        process = two_program_process()
        for _ in range(3):
            engine.run_process(process, {"X": 2})
        stats = machine.runtime_pool.stats()
        assert stats["warm_hits"] == 0
        assert stats["cold_starts"] == 6
        events = [e.event for e in engine.audit.events]
        assert events.count("jvm cold start") == 6
        assert "jvm warm dispatch" not in events

    def test_repeat_runs_hit_warm_with_capacity(self):
        engine, machine = wf_engine(pool_capacity=8)
        process = two_program_process()
        clock = machine.clock
        engine.run_process(process, {"X": 2})
        cold_elapsed = clock.now
        start = clock.now
        engine.run_process(process, {"X": 2})
        warm_elapsed = clock.now - start
        stats = machine.runtime_pool.stats()
        assert stats["cold_starts"] == 2
        assert stats["warm_hits"] == 2
        # Both activities swap a JVM boot for a warm dispatch.
        saving = 2 * (
            DEFAULT_COSTS.wf_activity_jvm - DEFAULT_COSTS.jvm_warm_dispatch
        )
        assert cold_elapsed - warm_elapsed == pytest.approx(saving)

    def test_audit_labels_warm_and_cold_starts(self):
        engine, _ = wf_engine(pool_capacity=8)
        process = two_program_process()
        engine.run_process(process, {"X": 2})
        engine.run_process(process, {"X": 2})
        events = [
            (e.event, e.detail)
            for e in engine.audit.events
            if e.event in ("jvm cold start", "jvm warm dispatch")
        ]
        assert events.count(("jvm cold start", "program math.double")) == 1
        assert events.count(("jvm warm dispatch", "program math.double")) == 1
        assert events.count(("jvm cold start", "program math.add")) == 1
        assert events.count(("jvm warm dispatch", "program math.add")) == 1

    def test_disabled_pool_emits_no_start_audit_events(self):
        engine, machine = wf_engine(pooling=False)
        engine.run_process(two_program_process(), {"X": 2})
        events = [e.event for e in engine.audit.events]
        assert "jvm cold start" not in events
        assert "jvm warm dispatch" not in events
        # The counter still observes the cold starts (used by E9).
        assert machine.runtime_pool.cold_starts == 2

    def test_machine_boot_resets_warm_slots(self):
        engine, machine = wf_engine(pool_capacity=8)
        engine.run_process(two_program_process(), {"X": 2})
        assert len(machine.runtime_pool) == 2
        machine.boot()
        assert len(machine.runtime_pool) == 0


class TestUdtfTraceSpans:
    def span_names(self, scenario, *args):
        trace = TraceRecorder(scenario.server.machine.clock)
        scenario.call("GetSuppQual", *args, trace=trace)
        return [
            span.name
            for root in trace.roots
            for span in root.walk()
        ]

    def test_prepare_span_labels_warm_vs_cold(self, data):
        scenario = build_scenario(
            Architecture.ENHANCED_SQL_UDTF, data=data, config=EngineConfig(pooling=True)
        )
        cold = self.span_names(scenario, "ACME Industrial")
        warm = self.span_names(scenario, "ACME Industrial")
        assert "Prepare A-UDTFs" in cold
        assert "Prepare A-UDTFs (warm)" not in cold
        assert "Prepare A-UDTFs (warm)" in warm
        assert "Prepare A-UDTFs" not in warm

    def test_result_cache_span_on_hit(self, data):
        scenario = build_scenario(
            Architecture.ENHANCED_SQL_UDTF, data=data,
            config=EngineConfig(pooling=True, result_cache=True),
        )
        self.span_names(scenario, "ACME Industrial")
        cached = self.span_names(scenario, "ACME Industrial")
        assert "Result cache" in cached
        assert "Prepare A-UDTFs (warm)" not in cached

    def test_no_new_spans_with_features_off(self, data):
        scenario = build_scenario(Architecture.ENHANCED_SQL_UDTF, data=data)
        self.span_names(scenario, "ACME Industrial")
        hot = self.span_names(scenario, "ACME Industrial")
        assert "Prepare A-UDTFs" in hot
        assert "Prepare A-UDTFs (warm)" not in hot
        assert "Result cache" not in hot
