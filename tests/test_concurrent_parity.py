"""Concurrent-serving parity: worker count must never change results.

The serving layer's isolated mode gives every session its own server
shard — machine, virtual clock, pools, caches — so a session's rows
*and* simulated times depend only on its own call sequence.  These
tests replay one seeded workload under different worker counts and
submission orders and demand bit-identical per-session outcomes, plus
bit-identity against the bare single-caller stack (the pre-serving
execution path).  This is the concurrency extension of the repo's
parity gates: concurrency may change wall-clock time, never answers or
simulated timings.
"""

import pytest

from repro.appsys.datagen import generate_enterprise_data
from repro.core.scenario import build_scenario
from repro.errors import StatementAbortedError
from repro.fdbs.config import EngineConfig
from repro.serving.server import ConcurrentIntegrationServer
from repro.serving.workload import make_workload

SESSIONS = 6
CALLS = 5


def run_serving(data, scripts, workers, config=None):
    """One serving-layer run; returns (row_sets, simulated_ms) by session."""
    with ConcurrentIntegrationServer(
        workers=workers, mode="isolated", data=data, config=config
    ) as server:
        result = server.run_workload(scripts)
    return result.row_sets, result.simulated_ms


def drive_bare(data, script, config=None):
    """The pre-serving path: a dedicated single-caller server, no
    session object, no pool, no admission control."""
    server = build_scenario(script.architecture, data=data, config=config).server
    if script.faults:
        server.configure_faults(**script.faults)
    rows = []
    start = server.machine.clock.now
    for call in script.calls:
        if call.kind == "call":
            try:
                rows.append(server.call(call.target, *call.args))
            except StatementAbortedError:
                rows.append(None)
        else:
            result = server.fdbs.execute(call.target, params=list(call.args))
            rows.append(list(result.rows))
    return rows, server.machine.clock.now - start


@pytest.fixture(scope="module")
def data():
    return generate_enterprise_data()


@pytest.mark.parametrize("seed", [11, 99, 20260805])
@pytest.mark.parametrize("workers", [4, 8])
def test_one_vs_many_workers_bit_identical(data, seed, workers):
    """Same seeded workload, 1 worker vs K: identical rows and times."""
    scripts = make_workload(seed=seed, sessions=SESSIONS, calls_per_session=CALLS)
    rows_one, sim_one = run_serving(data, scripts, workers=1)
    scripts_again = make_workload(
        seed=seed, sessions=SESSIONS, calls_per_session=CALLS
    )
    rows_many, sim_many = run_serving(data, scripts_again, workers=workers)
    assert rows_many == rows_one
    assert sim_many == sim_one


def test_submission_order_is_irrelevant(data):
    """Reversing the script list must not change any session's outcome."""
    scripts = make_workload(seed=31, sessions=SESSIONS, calls_per_session=CALLS)
    rows_fwd, sim_fwd = run_serving(data, scripts, workers=4)
    reversed_scripts = list(
        reversed(make_workload(seed=31, sessions=SESSIONS, calls_per_session=CALLS))
    )
    rows_rev, sim_rev = run_serving(data, reversed_scripts, workers=4)
    assert rows_rev == rows_fwd
    assert sim_rev == sim_fwd


def test_serving_layer_matches_bare_stack(data):
    """1-worker serving == driving each script on a bare server: the
    serving layer (sessions, traces, admission, locks) costs zero
    simulated time and changes no rows."""
    scripts = make_workload(seed=77, sessions=SESSIONS, calls_per_session=CALLS)
    rows_serving, sim_serving = run_serving(data, scripts, workers=1)
    for script in make_workload(seed=77, sessions=SESSIONS, calls_per_session=CALLS):
        rows_bare, sim_bare = drive_bare(data, script)
        assert rows_serving[script.session_id] == rows_bare
        assert sim_serving[script.session_id] == sim_bare


def test_non_default_config_matches_bare_stack(data):
    """A non-default engine config reaches every serving shard: rows and
    simulated times stay bit-identical to bare servers built with the
    same config."""
    config = EngineConfig(
        execution_mode="batch", optimizer="cost", chunk_size=7, join_strategy="merge"
    )
    scripts = make_workload(seed=77, sessions=SESSIONS, calls_per_session=CALLS)
    rows_serving, sim_serving = run_serving(data, scripts, workers=2, config=config)
    for script in make_workload(seed=77, sessions=SESSIONS, calls_per_session=CALLS):
        rows_bare, sim_bare = drive_bare(data, script, config=config)
        assert rows_serving[script.session_id] == rows_bare
        assert sim_serving[script.session_id] == sim_bare


def test_workload_generation_is_deterministic():
    same_a = make_workload(seed=5, sessions=4, calls_per_session=6)
    same_b = make_workload(seed=5, sessions=4, calls_per_session=6)
    other = make_workload(seed=6, sessions=4, calls_per_session=6)
    assert [s.calls for s in same_a] == [s.calls for s in same_b]
    assert [s.calls for s in same_a] != [s.calls for s in other]
    assert [s.architecture for s in same_a] == [s.architecture for s in same_b]


def test_every_session_gets_results(data):
    """No session loses or duplicates calls whatever the worker count."""
    scripts = make_workload(seed=13, sessions=SESSIONS, calls_per_session=CALLS)
    expected_calls = {s.session_id: len(s.calls) for s in scripts}
    for workers in (1, 4):
        rows, _ = run_serving(
            data,
            make_workload(seed=13, sessions=SESSIONS, calls_per_session=CALLS),
            workers=workers,
        )
        assert {sid: len(r) for sid, r in rows.items()} == expected_calls
        assert all(r is not None for session in rows.values() for r in session)
