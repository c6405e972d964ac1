"""The benchmark's workloads and what they share.

Every workload takes its inputs from the seed alone and exposes the
protocol :mod:`perfbench.harness` drives: ``setup()``, ``next_round()``,
``run_round(ops)``, ``counters()``, ``check()`` and
``set_sim_trace(on)`` / ``sim_breakdown()``.
"""

from __future__ import annotations

import time

from perfbench.harness import RoundResult

#: Error messages kept per round; the count of failures is always exact.
MAX_ERRORS_KEPT = 20


def fdbs_counters(databases) -> dict[str, float]:
    """Summed cumulative counters of the given FDBS instances."""
    totals: dict[str, float] = {}

    def add(key: str, value) -> None:
        totals[key] = totals.get(key, 0) + value

    for db in databases:
        cache = db.statement_cache.stats()
        add("stmt_cache.hits", cache["hits"])
        add("stmt_cache.misses", cache["misses"])
        for key, value in db.join_stats().items():
            if key.startswith("joins_"):
                add(f"joins.{key}", value)
        columnar = db.columnar_stats()
        for key in ("chunks_scanned", "chunks_pruned", "zone_map_rebuilds"):
            add(f"columnar.{key}", columnar[key])
        mvcc = db.mvcc_stats()
        add("mvcc.versions_published", mvcc["versions_published"])
        add("mvcc.retries", mvcc["retries"])
        for source in db.federation.stats().values():
            add("federation.requests", source["requests"])
            add("federation.cache_hits", source["cache_hits"])
        machine = db.machine
        if machine is not None:
            add("rmi.calls", machine.udtf_rmi.stats()["calls"])
            add("rmi.calls", machine.wf_rmi.stats()["calls"])
    return totals


class SingleClient:
    """One client issuing ops back to back, each waiting for its reply."""

    #: Set by subclasses: how many set-ups a run times (median reported).
    setup_repeats = 3

    def __init__(self):
        self.outputs: list[tuple[object, object]] = []
        self.completed = 0

    def record(self, op, out) -> None:
        """Keep what the correctness check needs of one completed op."""
        self.outputs.append((op, out))

    def perform(self, op):
        """Issue one op; returns what the correctness check compares."""
        raise NotImplementedError

    def label(self, op) -> str:
        """Class label of an op (per-class latency breakdowns)."""
        return ""

    def is_write(self, op) -> bool:
        """Whether the op is a write statement."""
        return False

    def run_round(self, ops) -> RoundResult:
        """Issue ``ops`` in order, timing each; failures are counted,
        never skipped."""
        result = RoundResult()
        for op in ops:
            result.attempted += 1
            start = time.perf_counter()
            try:
                out = self.perform(op)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                result.failed += 1
                if len(result.errors) < MAX_ERRORS_KEPT:
                    result.errors.append(f"{op!r}: {exc!r}")
                continue
            result.latencies.append(time.perf_counter() - start)
            result.labels.append(self.label(op))
            result.writes += self.is_write(op)
            self.completed += 1
            self.record(op, out)
        return result

    def set_sim_trace(self, on: bool) -> None:
        """Single-client workloads without simulated time ignore this."""

    def sim_breakdown(self) -> dict:
        """No simulated time: an empty breakdown."""
        return {}

    def phase_metrics(self, phase) -> dict:
        """Workload-specific end-to-end metrics of a phase (none here)."""
        return {}

    def close(self) -> None:
        """Nothing outlives a single-client run."""


def make(name: str, seed: int, tiny: bool = False):
    """Instantiate the workload called ``name``."""
    if name == "paper_calls":
        from perfbench.workloads.paper_calls import PaperCalls

        return PaperCalls(seed, tiny)
    if name == "analytic_scan":
        from perfbench.workloads.analytic_scan import AnalyticScan

        return AnalyticScan(seed, tiny)
    if name == "write_mix":
        from perfbench.workloads.write_mix import WriteMix

        return WriteMix(seed, tiny)
    if name == "serving_mixed":
        from perfbench.workloads.serving_mixed import ServingMixed

        return ServingMixed(seed, tiny)
    raise KeyError(f"unknown workload {name!r}")
