"""Cross-process parity: shard count must never change results.

The process-sharded server routes sessions onto OS worker processes by
consistent hashing; every session still gets its own isolated server
shard (own Database, Machine, VirtualClock), now built inside the
worker.  Isolation makes the parity contract exact across the process
boundary: a session's result rows AND its per-session simulated times
must be bit-identical to the bare single-process stack — and therefore
to each other — at shard counts 1, 2 and 4, across all four
architectures.  Pickling the outcomes over the wire must not perturb a
single bit.

These tests spawn real OS processes and are deselected by default
behind the ``proc`` marker (run with ``-m proc``; the
``process-serving`` CI job and ``scripts/check_parity.sh`` select it).
"""

import pytest

from repro.appsys.datagen import generate_enterprise_data
from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.errors import StatementAbortedError
from repro.fdbs.config import EngineConfig
from repro.serving import ConcurrentIntegrationServer, ShardedIntegrationServer
from repro.serving.workload import DEFAULT_ARCHITECTURES, make_workload

pytestmark = pytest.mark.proc

SEED = 20260809
SESSIONS = 8  # two sessions per architecture (round-robin over all 4)
CALLS = 4
SHARD_COUNTS = (1, 2, 4)

#: Every parity check runs under the default engine config and under a
#: non-default one that must reach the workers intact.
CONFIGS = {
    "default": EngineConfig(),
    "batch-cost-merge": EngineConfig(
        execution_mode="batch", optimizer="cost", chunk_size=7, join_strategy="merge"
    ),
}


def scripts():
    return make_workload(seed=SEED, sessions=SESSIONS, calls_per_session=CALLS)


def drive_bare(data, script, config):
    """The pre-serving path: one bare single-caller server per script."""
    server = build_scenario(script.architecture, data=data, config=config).server
    if script.faults:
        server.configure_faults(**script.faults)
    rows, call_sims = [], []
    for call in script.calls:
        before = server.machine.clock.now
        if call.kind == "call":
            try:
                rows.append(server.call(call.target, *call.args))
            except StatementAbortedError:
                rows.append(None)
        else:
            result = server.fdbs.execute(call.target, params=list(call.args))
            rows.append(list(result.rows))
        call_sims.append(server.machine.clock.now - before)
    # Sum the deltas rather than subtracting clock endpoints: that is
    # the exact float sum a ClientSession reports as simulated_time.
    return rows, call_sims, sum(call_sims)


@pytest.fixture(scope="module")
def data():
    return generate_enterprise_data()


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def config(request):
    return CONFIGS[request.param]


@pytest.fixture(scope="module")
def bare(data, config):
    """Bare-stack baseline, computed once: rows/per-call/total by session."""
    outcomes = {}
    for script in scripts():
        outcomes[script.session_id] = drive_bare(data, script, config)
    return outcomes


@pytest.fixture(scope="module")
def process_runs(data, config):
    """One sharded run per shard count over the identical workload."""
    runs = {}
    for shards in SHARD_COUNTS:
        with ShardedIntegrationServer(
            shards=shards, data=data, queue_limit=SESSIONS, config=config
        ) as server:
            runs[shards] = server.run_workload(scripts())
            # Each worker reports the config it built its servers with.
            for stats in server.shard_stats().values():
                assert stats["config"] == config
    return runs


def test_workload_covers_every_architecture():
    used = {script.architecture for script in scripts()}
    assert used == set(DEFAULT_ARCHITECTURES)
    assert len(used) == 4


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_process_mode_bit_identical_to_bare_stack(process_runs, bare, shards):
    """Rows, per-call and total simulated times: exact at every count."""
    result = process_runs[shards]
    assert set(result.row_sets) == set(bare)
    for session_id, (rows, call_sims, total) in bare.items():
        assert result.row_sets[session_id] == rows, (
            f"shards={shards} session {session_id}: rows diverge from bare"
        )
        assert result.call_sim_ms[session_id] == call_sims, (
            f"shards={shards} session {session_id}: per-call times diverge"
        )
        assert result.simulated_ms[session_id] == total, (
            f"shards={shards} session {session_id}: total time diverges"
        )


def test_shard_counts_bit_identical_to_each_other(process_runs):
    one = process_runs[SHARD_COUNTS[0]]
    for shards in SHARD_COUNTS[1:]:
        other = process_runs[shards]
        assert other.row_sets == one.row_sets
        assert other.simulated_ms == one.simulated_ms
        assert other.call_sim_ms == one.call_sim_ms


def test_process_mode_matches_thread_mode(process_runs, data, config):
    """Thread pool and process shards are the same serving contract."""
    with ConcurrentIntegrationServer(workers=2, data=data, config=config) as server:
        thread_result = server.run_workload(scripts())
    process_result = process_runs[2]
    assert process_result.row_sets == thread_result.row_sets
    assert process_result.simulated_ms == thread_result.simulated_ms
    assert process_result.call_sim_ms == thread_result.call_sim_ms


def test_routing_is_deterministic_and_total(process_runs):
    """Every session lands on a real shard, identically in every run."""
    for shards, result in process_runs.items():
        assert set(result.shard_assignments) == set(range(SESSIONS))
        assert all(0 <= s < shards for s in result.shard_assignments.values())
    again = {}
    for shards in SHARD_COUNTS:
        again[shards] = process_runs[shards].shard_assignments
        assert again[shards] == process_runs[shards].shard_assignments


def test_no_session_loses_or_duplicates_calls(process_runs):
    expected = {s.session_id: len(s.calls) for s in scripts()}
    for result in process_runs.values():
        assert {sid: len(r) for sid, r in result.row_sets.items()} == expected
        assert result.calls == sum(expected.values())


def test_summaries_cross_the_wire_intact(process_runs, bare):
    for result in process_runs.values():
        for session_id, summary in result.summaries.items():
            rows, _, total = bare[session_id]
            assert summary.session_id == session_id
            assert summary.calls == len(rows)
            assert summary.simulated_ms == total
            assert summary.rows_returned == sum(
                len(r) for r in rows if r is not None
            )
