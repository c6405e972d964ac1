"""Fault injection × concurrency: failures stay inside their session.

The fault harness and the serving layer compose: in isolated mode each
session owns its machine — injector, RNG stream, retry policy, pool,
channels — so one session's faults are invisible to every other
session, and fault outcomes are as deterministic under 8 workers as
under 1.  The suite asserts the ISSUE's three interaction guarantees:

* concurrent WfMS sessions retry / forward-recover *independently* —
  every call completes, answers match the fault-free baseline;
* a UDTF session's unrecovered fault aborts only its *own* statement —
  the session continues, siblings never see the abort;
* one session's fault never poisons another session's channel, pool or
  cache: a clean session run next to a faulty one is bit-identical
  (rows and simulated time) to the same session run alone.
"""

import pytest

from repro.appsys.datagen import generate_enterprise_data
from repro.core.architectures import Architecture
from repro.fdbs.config import EngineConfig
from repro.serving.server import ConcurrentIntegrationServer
from repro.serving.workload import SessionScript, WorkloadCall
from repro.sysmodel.faults import (
    SITE_ACTIVITY_PROGRAM,
    SITE_FENCED_PROCESS,
    SITE_RMI_WFMS,
)

ANCHOR = "GetNoSuppComp"
CALLS = 4

#: Deterministic WfMS fault mix: count-limited certain faults plus
#: retries and forward recovery — every call must still complete.
WFMS_FAULTS = {
    "enabled": True,
    "seed": 99,
    "sites": {
        SITE_RMI_WFMS: (1.0, 1),
        SITE_ACTIVITY_PROGRAM: (1.0, 1),
    },
    "retry_attempts": 3,
    "forward_recovery": True,
}

#: Deterministic UDTF fault: the first fenced-process hand-over dies,
#: aborting exactly one statement; no recovery mechanism exists.
UDTF_FAULTS = {
    "enabled": True,
    "seed": 99,
    "sites": {SITE_FENCED_PROCESS: (1.0, 1)},
}


def anchor_script(session_id, architecture, faults=None, calls=CALLS):
    return SessionScript(
        session_id=session_id,
        architecture=architecture,
        calls=[WorkloadCall("call", ANCHOR, ("gearbox",))] * calls,
        faults=faults,
    )


def run_scripts(data, scripts, workers):
    with ConcurrentIntegrationServer(
        workers=workers, mode="isolated", data=data
    ) as server:
        return server.run_workload(scripts)


@pytest.fixture(scope="module")
def data():
    return generate_enterprise_data()


@pytest.fixture(scope="module")
def baseline_rows(data):
    """Fault-free anchor rows (one session, no faults)."""
    result = run_scripts(data, [anchor_script(0, Architecture.WFMS)], workers=1)
    rows = result.row_sets[0]
    assert all(r for r in rows)
    return rows[0]


class TestWfmsRecoveryUnderConcurrency:
    def test_concurrent_sessions_recover_independently(self, data, baseline_rows):
        """Four faulty WfMS sessions side by side: each absorbs its own
        faults through retries/forward recovery and completes every call
        with the fault-free answer."""
        scripts = [
            anchor_script(sid, Architecture.WFMS, faults=dict(WFMS_FAULTS))
            for sid in range(4)
        ]
        result = run_scripts(data, scripts, workers=4)
        for sid in range(4):
            summary = result.summaries[sid]
            assert summary.aborted == 0, f"session {sid} lost a call to a fault"
            assert summary.calls == CALLS
            for rows in result.row_sets[sid]:
                assert rows == baseline_rows

    def test_recovery_outcome_independent_of_worker_count(self, data):
        """Fault handling is per-session deterministic: 1 vs 4 workers
        give identical rows, aborts and simulated times."""
        def scripts():
            return [
                anchor_script(sid, Architecture.WFMS, faults=dict(WFMS_FAULTS))
                for sid in range(4)
            ]

        sequential = run_scripts(data, scripts(), workers=1)
        concurrent = run_scripts(data, scripts(), workers=4)
        assert concurrent.row_sets == sequential.row_sets
        assert concurrent.simulated_ms == sequential.simulated_ms
        assert {s: v.aborted for s, v in concurrent.summaries.items()} == {
            s: v.aborted for s, v in sequential.summaries.items()
        }


class TestUdtfAbortContainment:
    @pytest.mark.parametrize(
        "architecture",
        [Architecture.ENHANCED_SQL_UDTF, Architecture.ENHANCED_JAVA_UDTF],
    )
    def test_abort_hits_only_the_faulty_statement(
        self, data, baseline_rows, architecture
    ):
        """The dying fenced process aborts statement one; the session
        survives and every later call returns correct rows."""
        script = anchor_script(0, architecture, faults=dict(UDTF_FAULTS))
        result = run_scripts(data, [script], workers=1)
        rows = result.row_sets[0]
        assert rows[0] is None, "the injected fault did not abort the statement"
        assert result.summaries[0].aborted == 1
        for later in rows[1:]:
            assert later == baseline_rows

    def test_sibling_sessions_never_see_the_abort(self, data, baseline_rows):
        """One faulty UDTF session among three clean ones, concurrently:
        only the faulty session records an abort."""
        scripts = [
            anchor_script(0, Architecture.ENHANCED_SQL_UDTF, faults=dict(UDTF_FAULTS)),
            anchor_script(1, Architecture.ENHANCED_SQL_UDTF),
            anchor_script(2, Architecture.ENHANCED_JAVA_UDTF),
            anchor_script(3, Architecture.WFMS),
        ]
        result = run_scripts(data, scripts, workers=4)
        assert result.summaries[0].aborted == 1
        for sid in (1, 2, 3):
            assert result.summaries[sid].aborted == 0
            for rows in result.row_sets[sid]:
                assert rows == baseline_rows


class TestFaultIsolation:
    def test_faulty_neighbor_changes_nothing_for_clean_session(self, data):
        """A clean session's rows AND simulated time are bit-identical
        whether it runs alone or next to a heavily faulty session —
        channels, pools, caches and RNG streams are per-session."""
        alone = run_scripts(
            data, [anchor_script(1, Architecture.ENHANCED_SQL_UDTF)], workers=1
        )
        heavy_faults = {
            "enabled": True,
            "seed": 7,
            "sites": {SITE_FENCED_PROCESS: 1.0, SITE_RMI_WFMS: 1.0},
        }
        paired = run_scripts(
            data,
            [
                anchor_script(
                    0, Architecture.ENHANCED_SQL_UDTF, faults=heavy_faults
                ),
                anchor_script(1, Architecture.ENHANCED_SQL_UDTF),
            ],
            workers=2,
        )
        assert paired.summaries[0].aborted == CALLS, (
            "the faulty session should abort every call at probability 1"
        )
        assert paired.row_sets[1] == alone.row_sets[1]
        assert paired.simulated_ms[1] == alone.simulated_ms[1]
        assert paired.summaries[1].aborted == 0

    def test_faulty_session_pool_eviction_is_private(self, data):
        """The fenced-process death evicts the *faulty* session's pooled
        runtime, not the neighbor's."""
        with ConcurrentIntegrationServer(
            workers=2,
            mode="isolated",
            data=data,
            config=EngineConfig(pooling=True),
        ) as server:
            server.run_workload(
                [
                    anchor_script(
                        0, Architecture.ENHANCED_SQL_UDTF, faults=dict(UDTF_FAULTS)
                    ),
                    anchor_script(1, Architecture.ENHANCED_SQL_UDTF),
                ]
            )
            stats = server.runtime_stats()
        assert stats["session_0"]["runtime_pool"]["fault_evictions"] >= 1
        assert stats["session_1"]["runtime_pool"]["fault_evictions"] == 0
        assert stats["session_1"]["faults"]["injected_total"] == 0
