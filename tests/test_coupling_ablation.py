"""Pooling/caching ablation (E9): baseline parity + acceptance bars."""

import pytest

from repro.bench.experiments import (
    exp_coupling_ablation,
    render_coupling_ablation,
)
from repro.bench.harness import measure_hot
from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.fdbs.config import EngineConfig

WFMS = Architecture.WFMS.value
UDTF = Architecture.ENHANCED_SQL_UDTF.value


@pytest.fixture(scope="module")
def ablation(data):
    return exp_coupling_ablation(data=data, repeats=3)


def test_flags_off_is_bit_identical(data):
    """Explicitly disabled pooling/caching yields *exactly* the same
    simulated timings as a default-built scenario."""
    for architecture in (Architecture.WFMS, Architecture.ENHANCED_SQL_UDTF):
        default = build_scenario(architecture, data=data)
        ablated = build_scenario(
            architecture,
            data=data,
            config=EngineConfig(pooling=False, result_cache=False),
        )
        base = measure_hot(default, "GetNoSuppComp")
        off = measure_hot(ablated, "GetNoSuppComp")
        assert off.runs == base.runs


def test_baseline_cells_match_calibration_anchors(ablation):
    assert ablation.get(WFMS, "baseline").per_call == pytest.approx(
        302.9, abs=1.0
    )
    assert ablation.get(UDTF, "baseline").per_call == pytest.approx(
        101.8, abs=1.0
    )


def test_pooling_reduces_start_share_at_least_2x(ablation):
    for architecture in (WFMS, UDTF):
        baseline = ablation.get(architecture, "baseline")
        pooled = ablation.get(architecture, "pooled")
        assert pooled.per_call < baseline.per_call
        assert baseline.start_share / pooled.start_share >= 2.0


def test_result_rows_identical_across_configs(ablation):
    for architecture in (WFMS, UDTF):
        rows = {
            config: ablation.get(architecture, config).rows
            for config in ("baseline", "pooled", "pooled+cache")
        }
        assert rows["baseline"] == rows["pooled"] == rows["pooled+cache"]


def test_architecture_ranking_preserved(ablation):
    """The paper's factor-3 ranking survives every configuration."""
    baseline_ratio = (
        ablation.get(WFMS, "baseline").per_call
        / ablation.get(UDTF, "baseline").per_call
    )
    assert baseline_ratio == pytest.approx(2.97, abs=0.05)
    for config in ("pooled", "pooled+cache"):
        assert (
            ablation.get(WFMS, config).per_call
            > ablation.get(UDTF, config).per_call
        )


def test_pooled_cells_record_warm_hits(ablation):
    for architecture in (WFMS, UDTF):
        pooled = ablation.get(architecture, "pooled")
        assert pooled.warm_hits > 0
        assert pooled.pool_stats["warm_hits"] == pooled.warm_hits


def test_cache_config_hits_and_is_fastest(ablation):
    cached = ablation.get(UDTF, "pooled+cache")
    assert cached.cache_stats["hits"] > 0
    assert cached.per_call < ablation.get(UDTF, "pooled").per_call


def test_unknown_cell_raises(ablation):
    with pytest.raises(KeyError):
        ablation.get(WFMS, "no-such-config")


def test_render_mentions_every_config(ablation):
    text = render_coupling_ablation(ablation)
    for token in ("baseline", "pooled", "pooled+cache", WFMS, UDTF):
        assert token in text
