"""The benchmark's own tests: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import harness, spec
from perfbench.tracing import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def streams(seed: int) -> dict[str, list]:
    """The first ops each workload generates for ``seed``."""
    from perfbench.workloads import analytic_scan, paper_calls, serving_mixed, write_mix

    paper = paper_calls.OpStream(seed)
    analytic = analytic_scan.OpStream(seed, 100_000, [1234, 5001, 5002])
    writes = write_mix.OpStream(seed, 10_000)
    return {
        "paper_calls": paper.next_round() + paper.next_round(),
        "analytic_scan": analytic.next_round() + analytic.next_round(),
        "write_mix": writes.next_round() + writes.next_round(),
        "serving_mixed": [
            (s.session_id, s.architecture, s.calls)
            for s in serving_mixed.batch(seed, 0, 8, 12) + serving_mixed.batch(seed, 1, 8, 12)
        ],
    }


def test_same_seed_same_ops_and_other_seed_other_ops():
    first, again, other = streams(11), streams(11), streams(12)
    for name in spec.WORKLOAD_NAMES:
        assert first[name] == again[name], name
        assert first[name] != other[name], name


def test_write_stream_only_touches_live_keys():
    from perfbench.workloads.write_mix import OpStream

    stream = OpStream(5, 50)
    live = set(range(50))
    for _ in range(40):
        for kind, _sql, params in stream.next_round():
            if kind in ("read", "update", "delete"):
                assert params[-1] in live
            if kind == "insert":
                assert params[0] not in live
                live.add(params[0])
            if kind == "delete":
                live.remove(params[0])


def test_metric_names_are_well_formed_and_unique():
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.match(name), name
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert metric.better in ("higher", "lower")
        for target, workload in metric.moves:
            assert spec.METRICS[target].layer == "end_to_end"
            assert workload in spec.WORKLOAD_NAMES


def test_benchmark_json_matches_the_catalogue():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(spec.WORKLOAD_NAMES)
    assert [w["why"] for w in config["workloads"]] == [w.why for w in spec.WORKLOADS]
    assert config["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.gated_end_to_end()
    ]
    assert config["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.everywhere_per_layer()
    ]


def test_span_self_times_reconcile_with_the_outermost_span():
    from repro.fdbs.engine import Database

    db = Database("t")
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    recorder = SpanRecorder()
    recorder.install()
    try:
        for i in range(20):
            db.execute("INSERT INTO t VALUES (?, ?)", params=[i, i])
        db.execute("SELECT COUNT(*) FROM t WHERE v > 3")
    finally:
        recorder.uninstall()
    assert Database.execute.__name__ == "execute"
    assert not hasattr(Database.execute, "__wrapped__")
    roots = [s for s in recorder.spans if s.parent is None]
    assert {s.name for s in roots} == {"fdbs.exec"}
    assert len({s.request for s in roots}) == len(roots) == 21
    total_self = sum(recorder.self_seconds().values())
    assert total_self == pytest.approx(sum(s.duration for s in roots), rel=1e-9)
    assert recorder.counts()["fdbs.storage.write"] == 20
    trace = recorder.chrome_trace()
    assert trace["traceEvents"][0]["ph"] == "X"


class _Counting:
    """A fake workload whose counter rises by one per op."""

    def __init__(self):
        self.total = 0

    def counters(self):
        return {"ops": self.total}

    def next_round(self):
        return [None] * 5

    def run_round(self, ops):
        result = harness.RoundResult(attempted=len(ops))
        for _ in ops:
            self.total += 1
            result.latencies.append(0.001)
        return result

    def set_sim_trace(self, on):
        pass


def test_counters_are_deltas_of_the_measured_phase_only():
    workload = _Counting()
    workload.total = 1000  # warm-up work before the phase
    phase = harness.measure(workload, 0.0)
    assert phase.counters["ops"] == phase.completed == 5
    untraced, traced = harness.measure(workload, 0.0, SpanRecorder())
    assert traced.counters["ops"] == traced.completed == 5
    assert untraced.completed == 5


def test_cross_architecture_check_allows_only_the_empty_container_row():
    from perfbench.workloads.paper_calls import compare_architectures
    from repro.core.architectures import Architecture as A

    def rows(sql, java, wfms=None, simple=None):
        out = {(A.ENHANCED_SQL_UDTF, "F", (1,)): sql, (A.ENHANCED_JAVA_UDTF, "F", (1,)): java}
        out[(A.WFMS, "F", (1,))] = java if wfms is None else wfms
        out[(A.SIMPLE_UDTF, "F", (1,))] = sql if simple is None else simple
        return out

    widths = {"F": 2}
    assert compare_architectures(rows([(1, 2)], [(1, 2)]), widths) == ([], [])
    assert compare_architectures(rows([], [(None, None)]), widths) == ([], ["F(1,)"])
    for bad in (
        rows([], [(None,)]),  # wrong width
        rows([], [(None, None), (None, None)]),
        rows([(1, 2)], [(None, None)]),
        rows([(1, 2)], [(1, 3)]),
        rows([(1, 2)], [(1, 2)], wfms=[(1, 3)]),
        rows([], [(None, None)], simple=[(None, None)]),
    ):
        failures, _ = compare_architectures(bad, widths)
        assert failures


def test_percentile_and_tail_support():
    values = [float(v) for v in range(1, 101)]
    assert harness.percentile(values, 50) == pytest.approx(50.5)
    assert harness.tail_supported(1000, 99)
    assert not harness.tail_supported(999, 99)


def run_tiny(workload: str, trace: int, results: Path) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny", "--results", str(results)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def applicable(workload: str, trace: int) -> list[spec.Metric]:
    group = spec.PER_LAYER if trace else spec.END_TO_END
    return [m for m in group if not m.workloads or workload in m.workloads]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_and_passes_its_check(workload, trace, tmp_path):
    proc, result = run_tiny(workload, trace, tmp_path)
    for metric in applicable(workload, trace):
        assert f" {metric.name} " in proc.stdout, metric.name
    gate = spec.everywhere_per_layer() if trace else spec.gated_end_to_end()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m.name for m in gate]
    assert result["attempted"] >= 1 and result["failed"] == 0
    report = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert report["fingerprint"]["seed"] == 3
    assert report["fingerprint"]["nproc"] >= 1
    if trace:
        low, high = spec.RECONCILE_TOLERANCE
        assert low <= result["metrics"]["trace.reconciled_frac"]["value"] <= high
        chrome = json.loads((tmp_path / f"{workload}-seed3-trace1.chrome.json").read_text())
        assert chrome["traceEvents"]
    assert result["correct"], proc.stderr


def test_without_the_system_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_calls", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert time.monotonic() - start < 180
