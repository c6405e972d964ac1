"""Optimizer on/off parity: bit-identical rows across architectures."""

import pytest

from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.fdbs.config import EngineConfig

ARCHITECTURES = [
    Architecture.WFMS,
    Architecture.SIMPLE_UDTF,
    Architecture.ENHANCED_SQL_UDTF,
    Architecture.ENHANCED_JAVA_UDTF,
]

#: Skewed supplier numbers: repeats make the bind join's dedup matter.
WATCH_SUPPLIERS = [1234, 5001, 1234, 5002, 5001, 5003, 1234, 5004, 5002, 1234]

QUERY = (
    "SELECT w.pk, w.supplier_no, q.Qual "
    "FROM watch AS w, TABLE (GetQuality(w.supplier_no)) AS q "
    "ORDER BY w.pk"
)


def prepare(architecture, optimizer="syntactic", runstats=True):
    """A scenario FDBS with a local ``watch`` table over supplier numbers."""
    scenario = build_scenario(architecture, config=EngineConfig(optimizer=optimizer))
    fdbs = scenario.server.fdbs
    fdbs.execute(
        "CREATE TABLE watch (pk INT PRIMARY KEY, supplier_no INT)"
    )
    for pk, supplier_no in enumerate(WATCH_SUPPLIERS):
        fdbs.execute(
            "INSERT INTO watch VALUES (?, ?)", params=[pk, supplier_no]
        )
    if runstats:
        fdbs.execute("RUNSTATS watch")
    return scenario


class TestRowParity:
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_rows_bit_identical(self, architecture, mode):
        scenario = prepare(architecture)
        fdbs = scenario.server.fdbs
        fdbs.reconfigure(execution_mode=mode)
        baseline = fdbs.execute(QUERY).rows
        assert len(baseline) == len(WATCH_SUPPLIERS)
        fdbs.reconfigure(optimizer="cost")
        assert fdbs.execute(QUERY).rows == baseline
        fdbs.reconfigure(optimizer="syntactic")
        assert fdbs.execute(QUERY).rows == baseline

    def test_cost_mode_uses_a_udtf_bind_join(self):
        scenario = prepare(Architecture.WFMS, optimizer="cost")
        fdbs = scenario.server.fdbs
        text = fdbs.explain(QUERY)
        assert "BindJoin(TABLE(GetQuality)" in text

    def test_udtf_bind_join_saves_time(self):
        def hot(optimizer):
            scenario = prepare(Architecture.WFMS, optimizer=optimizer)
            fdbs = scenario.server.fdbs
            fdbs.execute(QUERY)  # warm caches and processes
            rows, elapsed = scenario.server.elapsed(fdbs.execute, QUERY)
            return rows.rows, elapsed

        rows_cost, fast = hot("cost")
        rows_syntactic, slow = hot("syntactic")
        assert rows_cost == rows_syntactic
        # 4 distinct keys invoked once each under one prepare/finish fence
        # instead of per-row invocation bookkeeping.
        assert fast < slow


class TestStatsAbsentParity:
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_time_and_rows_identical_without_stats(self, architecture):
        outcomes = {}
        for optimizer in ("syntactic", "cost"):
            scenario = prepare(architecture, optimizer=optimizer, runstats=False)
            fdbs = scenario.server.fdbs
            fdbs.execute(QUERY)  # same warm-up on both sides
            rows, elapsed = scenario.server.elapsed(fdbs.execute, QUERY)
            outcomes[optimizer] = (rows.rows, elapsed)
        assert outcomes["cost"] == outcomes["syntactic"]
