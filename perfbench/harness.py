"""Timing, counting and reporting shared by every workload.

A workload object supplies ``setup()``, ``next_round()``,
``run_round(ops)``, ``counters()`` and ``check()``; this module times
set-up, drives the closed loop for a fixed wall-clock budget, turns
counter snapshots into per-phase deltas and assembles the metrics.

Speed normalization.  On a shared host the interpreter's speed can
drift by 1.7x within seconds (measured on a 2-vCPU VM whose cores carry
other tenants' load), far more than any bound worth gating on.  So a fixed pure-Python
calibration pass is timed between every two rounds (and around every
set-up), and each round's timings are scaled by ``CAL_REF_S / cal``,
``cal`` being the mean of the calibrations before and after it.  The
gated timing metrics are these reference-speed values; the unscaled
wall-clock values are reported beside them as ``wall_*``.
"""

from __future__ import annotations

import math
from array import array
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from perfbench import spec
from perfbench.tracing import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent

#: Nominal seconds of one calibration pass at the reference speed; it
#: only fixes the scale of the normalized values.
CAL_REF_S = 0.001
CAL_PASSES = 3
#: Passes around each set-up: one set-up takes up to seconds, so its
#: speed estimate is worth a longer sample than a round's.
SETUP_CAL_PASSES = 31


def _calibration_pass() -> str:
    """Fixed interpreter-bound work: dict, list, tuple, sort, str."""
    table: dict[int, int] = {}
    items = []
    for i in range(3000):
        key = i & 127
        table[key] = table.get(key, 0) + i
        items.append((key, -i))
    items.sort()
    return ",".join([str(key) for key, _ in items[:300]])


def calibrate(passes: int = CAL_PASSES) -> float:
    """Median seconds of ``passes`` calibration passes."""
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        _calibration_pass()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class RoundResult:
    """What one round of operations produced."""

    latencies: list[float] = field(default_factory=list)
    """Wall seconds of every completed op, in issue order."""
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    """Per completed op: a class label (architecture, op kind)."""
    writes: int = 0
    """Write statements among the completed ops."""


@dataclass
class Phase:
    """One measured phase: latencies, failures and counter deltas."""

    wall: float
    latencies: Sequence[float]
    labels: list[str]
    attempted: int
    failed: int
    errors: list[str]
    writes: int
    counters: dict[str, float]
    factors: Sequence[float]
    """Speed factor of each completed op's round (see module doc)."""
    ref_wall: float
    """Sum of round walls, each scaled by its speed factor."""

    @property
    def ref_latencies(self) -> list[float]:
        """Latencies at the reference speed."""
        return [lat * f for lat, f in zip(self.latencies, self.factors)]

    @property
    def completed(self) -> int:
        """Ops that returned."""
        return len(self.latencies)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' quantile rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_supported(count: int, pct: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond ``pct``."""
    return count * (1.0 - pct / 100.0) >= 10


def delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Per-phase counter deltas (counters absent before count from 0)."""
    return {key: after[key] - before.get(key, 0) for key in after}


def timed_setups(workload, repeats: int) -> tuple[list[float], list[float]]:
    """Run ``workload.setup()`` ``repeats`` times; the last one stays.
    Returns the wall seconds and the reference-speed seconds of each."""
    walls, refs = [], []
    cal = calibrate(SETUP_CAL_PASSES)
    for _ in range(repeats):
        start = time.perf_counter()
        workload.setup()
        wall = time.perf_counter() - start
        after = calibrate(SETUP_CAL_PASSES)
        walls.append(wall)
        refs.append(wall * CAL_REF_S * 2 / (cal + after))
        cal = after
    return walls, refs


class _Accumulator:
    """Collects the rounds of one side of a phase.  Per-op samples are
    kept in flat arrays so the benchmark's own memory barely grows with
    the op count (peak RSS is a gated metric)."""

    def __init__(self):
        self.latencies = array("d")
        self.labels: list[str] = []
        self.errors: list[str] = []
        self.attempted = self.failed = self.writes = 0
        self.wall = 0.0
        self.ref_wall = 0.0
        self.factors = array("d")
        self.counters: dict[str, float] = {}

    def add(self, result: RoundResult, wall: float, factor: float) -> None:
        self.latencies.extend(result.latencies)
        self.factors.extend(array("d", [factor]) * len(result.latencies))
        self.ref_wall += wall * factor
        self.labels.extend(result.labels)
        self.errors.extend(result.errors)
        self.attempted += result.attempted
        self.failed += result.failed
        self.writes += result.writes
        self.wall += wall

    def add_counters(self, counts: dict[str, float]) -> None:
        for key, value in counts.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def phase(self) -> Phase:
        return Phase(
            self.wall, self.latencies, self.labels, self.attempted, self.failed,
            self.errors, self.writes, self.counters, self.factors, self.ref_wall,
        )


def measure(workload, seconds: float, recorder: SpanRecorder | None = None):
    """Closed loop for ``seconds`` of wall time, whole rounds only.

    The deadline is checked between rounds, so every phase holds whole
    rounds and the operation mix is exactly the workload's.  Without a
    recorder this returns one :class:`Phase`.  With one, rounds
    alternate untraced / traced — so both sides see the same warmth and
    the same background load — and it returns ``(untraced, traced)``;
    the traced side's counters are the sum of its own rounds' deltas.
    """
    sides = [_Accumulator(), _Accumulator()]
    before = workload.counters()
    cal = calibrate()
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        tracing = recorder is not None and index % 2 == 1
        side = sides[int(tracing)]
        if tracing:
            traced_before = workload.counters()
            workload.set_sim_trace(True)
            recorder.install()
        ops = workload.next_round()
        chunk = getattr(workload, "calibration_ops", None) or len(ops)
        try:
            for first in range(0, len(ops), chunk):
                start = time.perf_counter()
                result = workload.run_round(ops[first : first + chunk])
                wall = time.perf_counter() - start
                after = calibrate()
                side.add(result, wall, CAL_REF_S * 2 / (cal + after))
                cal = after
        finally:
            if tracing:
                recorder.uninstall()
                workload.set_sim_trace(False)
        if tracing:
            side.add_counters(delta(traced_before, workload.counters()))
        index += 1
        if time.perf_counter() >= deadline and (recorder is None or index % 2 == 0):
            break
    if recorder is None:
        sides[0].add_counters(delta(before, workload.counters()))
        return sides[0].phase()
    return sides[0].phase(), sides[1].phase()


def end_to_end(phase: Phase, setups: tuple[list[float], list[float]], rss_mb: float) -> dict:
    """The end-to-end metrics every workload reports."""
    walls, refs = setups
    metrics = {
        "throughput_ops_s": phase.completed / phase.ref_wall,
        **_latencies("", [s * 1000.0 for s in phase.ref_latencies]),
        "setup_s": statistics.median(refs),
        "peak_rss_mb": rss_mb,
        "failed_ops_frac": phase.failed / phase.attempted if phase.attempted else 0.0,
        "speed_factor": statistics.median(phase.factors),
        "wall_throughput_ops_s": phase.completed / phase.wall,
        **_latencies("wall_", [s * 1000.0 for s in phase.latencies]),
        "wall_setup_s": statistics.median(walls),
    }
    return metrics


def _latencies(prefix: str, lat_ms: list[float]) -> dict:
    p99 = percentile(lat_ms, 99) if tail_supported(len(lat_ms), 99) else None
    return {
        f"{prefix}latency_p50_ms": percentile(lat_ms, 50),
        f"{prefix}latency_p90_ms": percentile(lat_ms, 90),
        f"{prefix}latency_p99_ms": p99,
    }


def label_p50_ms(phase: Phase, label: str) -> float | None:
    """Median reference-speed latency of the completed ops with ``label``."""
    values = [
        lat * f for lat, f, lab in zip(phase.latencies, phase.factors, phase.labels)
        if lab == label
    ]
    return percentile(values, 50) * 1000.0 if values else None


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(numerator: float, denominator: float) -> float | None:
    """``numerator / denominator``, or None when there is no base."""
    return numerator / denominator if denominator else None


def layer_metrics(workload, traced: Phase, untraced: Phase, recorder: SpanRecorder) -> dict:
    """Per-layer metrics of a traced phase (counters are its deltas)."""
    ops = traced.completed
    c = traced.counters
    selfs = recorder.self_seconds()
    busy = recorder.busy_seconds()
    counts = recorder.counts()

    def per_op_ms(seconds: float) -> float:
        return seconds * 1000.0 / ops

    total = sum(traced.latencies)
    layer_self = sum(selfs.values())
    stmt_total = c.get("stmt_cache.hits", 0) + c.get("stmt_cache.misses", 0)
    columnar = getattr(workload, "execution_mode", None) == "columnar"
    source_requests = c.get("federation.requests", 0)
    source_hits = c.get("federation.cache_hits", 0)
    metrics = {
        "fdbs.parse.self_ms_per_op": per_op_ms(selfs["fdbs.parse"]),
        "fdbs.plan.calls_per_op": counts["fdbs.plan"] / ops,
        "fdbs.plan.self_ms_per_op": per_op_ms(selfs["fdbs.plan"]),
        "fdbs.stmt_cache.hit_ratio": ratio(c.get("stmt_cache.hits", 0), stmt_total),
        "fdbs.exec.self_ms_per_op": per_op_ms(selfs["fdbs.exec"]),
        "fdbs.joins.hash_per_op": c.get("joins.joins_hash", 0) / ops,
        "fdbs.joins.merge_per_op": c.get("joins.joins_merge", 0) / ops,
        "fdbs.joins.indexnlj_per_op": c.get("joins.joins_indexnlj", 0) / ops,
        "fdbs.joins.nlj_per_op": c.get("joins.joins_nlj", 0) / ops,
        "fdbs.zone.chunks_scanned_per_op": (
            c.get("columnar.chunks_scanned", 0) / ops if columnar else None
        ),
        "fdbs.zone.pruned_ratio": (
            ratio(
                c.get("columnar.chunks_pruned", 0),
                c.get("columnar.chunks_pruned", 0) + c.get("columnar.chunks_scanned", 0),
            )
            if columnar
            else None
        ),
        "fdbs.zone.rebuilds_per_op": c.get("columnar.zone_map_rebuilds", 0) / ops,
        "fdbs.storage.writes_per_op": counts["fdbs.storage.write"] / ops,
        "fdbs.storage.write_ms_per_op": per_op_ms(selfs["fdbs.storage.write"]),
        "fdbs.mvcc.versions_per_write": ratio(
            c.get("mvcc.versions_published", 0), traced.writes
        ),
        "fdbs.federation.fetch_ms_per_op": per_op_ms(selfs["fdbs.federation"]),
        "fdbs.federation.source_requests_per_op": source_requests / ops,
        "fdbs.federation.source_cache_hit_ratio": ratio(
            source_hits, source_hits + source_requests
        ),
        "wrapper.self_ms_per_op": per_op_ms(selfs["wrapper"]),
        "wfms.self_ms_per_op": per_op_ms(selfs["wfms"]),
        "appsys.calls_per_op": counts["appsys"] / ops,
        "appsys.self_ms_per_op": per_op_ms(selfs["appsys"]),
        "sysmodel.rmi_calls_per_op": c.get("rmi.calls", 0) / ops,
        "serving.busy_ms_per_op": per_op_ms(busy["serving"]),
        "serving.self_ms_per_op": per_op_ms(selfs["serving"]),
        "serving.admission_blocked": c.get("admission.blocked", 0),
        "serving.conflict_retries": c.get("mvcc.retries", 0),
        "bench.unattributed_ms_per_op": per_op_ms(total - layer_self),
        "trace.reconciled_frac": layer_self / total,
        "trace.overhead_pct": (
            statistics.fmean(traced.ref_latencies) / statistics.fmean(untraced.ref_latencies)
            - 1
        )
        * 100.0,
    }
    sim = workload.sim_breakdown()
    sim_ops = sim.pop("__ops__", 0)
    unspanned = sim.pop("__unspanned__", 0.0)
    metrics["sim.unspanned.self_ms_per_op"] = unspanned / sim_ops if sim_ops else 0.0
    for step in spec.SIM_STEPS:
        value = sim.pop(step, 0.0)
        metrics[spec.sim_metric_name(step)] = value / sim_ops if sim_ops else 0.0
    if sim:
        raise RuntimeError(f"simulated steps missing from spec.SIM_STEPS: {sorted(sim)}")
    return metrics


def git_sha() -> str | None:
    """The checkout's commit, when it is a git work tree (git is not
    asked to look above the checkout)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return (out.stdout.strip() or None) if out.returncode == 0 else None


def fingerprint(seed: int) -> dict:
    """Environment of one run."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def format_value(value) -> str:
    """Human-readable metric value."""
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_metrics(workload: str, metrics: dict) -> None:
    """One line per metric: name, value and unit."""
    for name, value in metrics.items():
        unit = spec.METRICS[name].unit
        print(f"{workload:>14}  {name:<44} {format_value(value):>14} {unit}")
