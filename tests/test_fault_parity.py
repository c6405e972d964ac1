"""Armed-at-zero fault harness is invisible: bit-identical to flags-off.

The contract that keeps the calibration anchors safe: enabling the
fault harness with every site armed at probability 0 (and the retry
policy + forward recovery switched on) must not change a single timing
or row.  Probability-0 sites never draw from the RNG, detection and
timeout costs are only charged when a fault actually fires, and backoff
is only charged between attempts — so the two runs must agree exactly
(``==``, not approximately).
"""

import pytest

from repro.bench.harness import call_args
from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.fdbs.config import EngineConfig
from repro.sysmodel.faults import FAULT_SITES

FUNCTIONS = ("GetNoSuppComp", "GetSuppQual")


def drive(server, function):
    """Cold + two hot calls; return (rows, [per-call timings])."""
    args = call_args(function)
    timings = []
    rows = None
    for _ in range(3):
        result, elapsed = server.elapsed(server.call, function, *args)
        rows = result
        timings.append(elapsed)
    return rows, timings


@pytest.mark.parametrize(
    "architecture", [Architecture.WFMS, Architecture.ENHANCED_SQL_UDTF]
)
@pytest.mark.parametrize("pooling", [False, True])
def test_zero_probability_faults_are_bit_identical(data, architecture, pooling):
    config = EngineConfig(pooling=pooling)
    baseline = build_scenario(architecture, data=data, config=config).server

    armed = build_scenario(architecture, data=data, config=config).server
    armed.configure_faults(
        enabled=True,
        seed=20020322,
        sites={site: 0.0 for site in FAULT_SITES},
        retry_attempts=4,
        backoff_base=50.0,
        forward_recovery=True,
    )

    for function in FUNCTIONS:
        expected_rows, expected_timings = drive(baseline, function)
        armed_rows, armed_timings = drive(armed, function)
        assert armed_rows == expected_rows
        assert armed_timings == expected_timings  # exact, not approx

    # Nothing fired, nothing retried, nothing drew from the RNG.
    stats = armed.machine.runtime_stats()["faults"]
    assert stats["injected_total"] == 0
    assert stats["retry_retries"] == 0


def test_disabled_harness_makes_no_rng_draws(data):
    server = build_scenario(Architecture.WFMS, data=data).server
    server.configure_faults(
        enabled=False, seed=7, sites={site: 0.5 for site in FAULT_SITES}
    )
    function = FUNCTIONS[0]
    server.call(function, *call_args(function))
    rng = server.machine.fault_injector.rng
    # The decision stream is untouched: same next draw as a fresh seed-7
    # stream, so later enabling the harness is still fully reproducible.
    import random

    assert rng.roll() == random.Random(7).random()
