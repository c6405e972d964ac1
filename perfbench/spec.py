"""What the benchmark measures: every metric and every workload.

This module is the benchmark's catalogue.  ``BENCHMARK.json`` at the
repository root lists the subset the gate compares run over run: the
end-to-end metrics every workload reports (``gated``) and the per-layer
metrics that are a number on every workload (``everywhere``).  The
rest — metrics that exist on some workloads only, or that have no base
on others — are printed and written to the run's result file, where a
``null`` means "not measurable here", never 0.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass(frozen=True)
class Metric:
    """One metric: how it is named, counted and what it should move."""

    name: str
    unit: str
    better: str
    layer: str
    source: str
    moves: tuple[tuple[str, str], ...] = ()
    """(end-to-end metric, workload) pairs this metric should move."""
    workloads: tuple[str, ...] = ()
    """Workloads reporting it; empty means every workload."""
    gated: bool = False
    """End-to-end metric compared run over run with ``bound``."""
    everywhere: bool = False
    """Per-layer metric that is a number on every workload."""
    bound: float | None = None

    def as_dict(self) -> dict:
        """Plain-JSON form for the result file."""
        data = asdict(self)
        data["moves"] = [list(pair) for pair in self.moves]
        data["workloads"] = list(self.workloads)
        return data


@dataclass(frozen=True)
class Workload:
    """One workload: its inputs, loop shape and the reason it exists."""

    name: str
    why: str
    sizes: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    loop: str = "closed"
    clients: int = 1
    threads: int = 1


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "paper_calls",
        "the paper's own hot federated-function calls on all four "
        "architectures; FDBS parse/plan, UDTF runtime, WfMS and RMI dominate",
        sizes={"suppliers": 25, "components": 60, "call_tuples": 92},
        config={
            "architectures": ["WFMS", "ENHANCED_SQL_UDTF", "ENHANCED_JAVA_UDTF", "SIMPLE_UDTF"],
            "draw": "uniform over every deployable (architecture, function, ARG_POOLS args)",
            "pooling": False,
            "result_cache": False,
            "sim_prefix_ops": 400,
        },
    ),
    Workload(
        "analytic_scan",
        "read-only star joins, prunable and unprunable range aggregates, "
        "top-k and nickname queries; executor, storage, optimizer and federation",
        sizes={"fact_rows": 100_000, "dim_rows": 64, "round_ops": 20},
        config={
            "execution_mode": "batch",
            "optimizer": "cost",
            "runstats": True,
            "heterogeneous_sources": True,
            "star_join_threshold": "qty > ? with ? in [40, 60)",
            "range_rows": 200,
            "round": {
                "star_join_param": 1,
                "range_param": 3,
                "range_literal": 8,
                "topk": 2,
                "nickname": 6,
            },
        },
    ),
    Workload(
        "write_mix",
        "keyed point reads and writes on one table; copy-on-write rebuilds, "
        "MVCC publishing and zone-map rebuilds after writes",
        sizes={"table_rows": 10_000, "round_ops": 20},
        config={
            "execution_mode": "row",
            "round": {"read": 10, "update": 4, "insert": 3, "delete": 1, "range_count": 2},
        },
    ),
    Workload(
        "serving_mixed",
        "shared-mode serving with two workers over a large universe; "
        "admission, contention and application-system functions dominate",
        sizes={"suppliers": 500, "components": 2000, "sessions_per_batch": 8,
               "calls_per_session": 12},
        config={"mode": "shared", "workers": 2, "dml_fraction": 0.35,
                "batch": "make_workload(seed) per batch, sessions renumbered"},
        clients=8,
        threads=2,
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)

#: Simulated-time step names (the paper's Fig. 6 breakdown) reported as
#: ``sim.<step>.self_ms_per_op``; workloads without a simulated machine
#: report 0 for each.
SIM_STEPS = (
    "Controller",
    "Finish A-UDTFs",
    "Finish I-UDTF",
    "Finish UDTF",
    "Prepare A-UDTFs",
    "Process UDTF",
    "Process activities",
    "RMI call",
    "RMI calls",
    "RMI return",
    "RMI returns",
    "Start I-UDTF",
    "Start UDTF",
    "Start workflows and Java environment",
    "Workflow",
    "controller runs",
)


def sim_metric_name(step: str) -> str:
    """Metric name for one simulated step."""
    return "sim." + re.sub(r"[^a-z0-9_.-]+", "_", step.lower()) + ".self_ms_per_op"


PAPER = ("paper_calls",)
ANALYTIC = ("analytic_scan",)
WRITE = ("write_mix",)
SERVING = ("serving_mixed",)


def _e2e(name, unit, better, source, bound=None, workloads=()):
    return Metric(
        name, unit, better, "end_to_end", source,
        workloads=workloads, gated=bound is not None, bound=bound,
    )


def _layer(name, unit, layer, source, moves, everywhere=True, workloads=(), better="lower"):
    return Metric(
        name, unit, better, layer, source, moves=tuple(moves),
        workloads=workloads, everywhere=everywhere,
    )


_REF = " at the reference interpreter speed (see harness)"

END_TO_END: tuple[Metric, ...] = (
    _e2e("throughput_ops_s", "1/s", "higher", "completed ops / measured time" + _REF, 0.25),
    _e2e("latency_p50_ms", "ms", "lower", "median per-op latency" + _REF, 0.25),
    _e2e("latency_p90_ms", "ms", "lower", "90th-percentile per-op latency" + _REF, 0.25),
    _e2e("setup_s", "s", "lower",
         "median of repeated build+load+RUNSTATS+warm-up" + _REF, 0.25),
    _e2e("peak_rss_mb", "MB", "lower", "getrusage ru_maxrss after the measured phase", 0.1),
    _e2e("latency_p99_ms", "ms", "lower",
         "99th-percentile per-op latency" + _REF + "; null below 1000 ops"),
    _e2e("failed_ops_frac", "frac", "lower",
         "aborted calls, exhausted conflict retries and raised errors / ops attempted"),
    _e2e("speed_factor", "x", "higher",
         "median reference-time / wall-time scale applied to the run's rounds"),
    _e2e("wall_throughput_ops_s", "1/s", "higher", "completed ops / wall time, unscaled"),
    _e2e("wall_latency_p50_ms", "ms", "lower", "median per-op wall latency, unscaled"),
    _e2e("wall_latency_p90_ms", "ms", "lower", "90th-percentile wall latency, unscaled"),
    _e2e("wall_latency_p99_ms", "ms", "lower",
         "99th-percentile wall latency, unscaled; null below 1000 ops"),
    _e2e("wall_setup_s", "s", "lower", "median set-up wall time, unscaled"),
    _e2e("sim_ms_per_op", "ms", "lower",
         "simulated elapsed ms per op over a fixed seeded prefix", workloads=PAPER + SERVING),
    _e2e("wfms_p50_ms", "ms", "lower", "median latency of WfMS-architecture calls" + _REF,
         workloads=PAPER),
    _e2e("sql_udtf_p50_ms", "ms", "lower",
         "median latency of enhanced SQL UDTF calls" + _REF, workloads=PAPER),
    _e2e("java_udtf_p50_ms", "ms", "lower",
         "median latency of enhanced Java UDTF calls" + _REF, workloads=PAPER),
    _e2e("simple_udtf_p50_ms", "ms", "lower",
         "median latency of simple UDTF calls" + _REF, workloads=PAPER),
)

_P50 = "latency_p50_ms"
_ARCH_P50 = ("wfms_p50_ms", "sql_udtf_p50_ms", "java_udtf_p50_ms", "simple_udtf_p50_ms")

PER_LAYER: tuple[Metric, ...] = (
    _layer("fdbs.parse.self_ms_per_op", "ms", "fdbs.parse",
           "span: repro.fdbs.engine.parse_statement",
           [(_P50, "analytic_scan"), (_P50, "paper_calls")]),
    _layer("fdbs.plan.calls_per_op", "count", "fdbs.plan", "span count: Planner.plan_select",
           [(_P50, "paper_calls"), ("throughput_ops_s", "paper_calls")]),
    _layer("fdbs.plan.self_ms_per_op", "ms", "fdbs.plan", "span: Planner.plan_select",
           [(_P50, "paper_calls"), ("throughput_ops_s", "paper_calls"), (_P50, "analytic_scan")]),
    _layer("fdbs.stmt_cache.hit_ratio", "frac", "fdbs.parse",
           "delta of Database.statement_cache.stats() hits/(hits+misses)",
           [(_P50, "analytic_scan"), (_P50, "paper_calls")], better="higher"),
    _layer("fdbs.exec.self_ms_per_op", "ms", "fdbs.exec",
           "span: Database.execute minus its child spans",
           [(_P50, "analytic_scan"), ("latency_p90_ms", "analytic_scan")]),
    _layer("fdbs.joins.hash_per_op", "count", "fdbs.exec", "delta of Database.join_stats()",
           [("latency_p90_ms", "analytic_scan")], better="lower"),
    _layer("fdbs.joins.merge_per_op", "count", "fdbs.exec", "delta of Database.join_stats()",
           [("latency_p90_ms", "analytic_scan")], better="lower"),
    _layer("fdbs.joins.indexnlj_per_op", "count", "fdbs.exec", "delta of Database.join_stats()",
           [("latency_p90_ms", "analytic_scan")], better="lower"),
    _layer("fdbs.joins.nlj_per_op", "count", "fdbs.exec", "delta of Database.join_stats()",
           [("latency_p90_ms", "analytic_scan")], better="lower"),
    _layer("fdbs.zone.chunks_scanned_per_op", "count", "fdbs.storage",
           "delta of Database.columnar_stats(); null outside columnar mode",
           [(_P50, "analytic_scan")], everywhere=False),
    _layer("fdbs.zone.pruned_ratio", "frac", "fdbs.storage",
           "delta of Database.columnar_stats(); null outside columnar mode",
           [(_P50, "analytic_scan")], everywhere=False, better="higher"),
    _layer("fdbs.zone.rebuilds_per_op", "count", "fdbs.storage",
           "delta of Database.columnar_stats() zone_map_rebuilds",
           [("latency_p99_ms", "write_mix"), ("throughput_ops_s", "write_mix")]),
    _layer("fdbs.storage.writes_per_op", "count", "fdbs.storage",
           "span count: Table.insert / update_rid / delete_rid",
           [("throughput_ops_s", "write_mix")], better="lower"),
    _layer("fdbs.storage.write_ms_per_op", "ms", "fdbs.storage",
           "span: Table.insert / update_rid / delete_rid",
           [("latency_p99_ms", "write_mix"), ("throughput_ops_s", "write_mix")]),
    _layer("fdbs.mvcc.versions_per_write", "count", "fdbs.storage",
           "delta of Database.mvcc_stats() versions_published / write statements; "
           "null without writes",
           [("throughput_ops_s", "write_mix")], everywhere=False),
    _layer("fdbs.federation.fetch_ms_per_op", "ms", "fdbs.federation",
           "span: RemoteTableFetcher.fetch / count",
           [("latency_p90_ms", "analytic_scan")]),
    _layer("fdbs.federation.source_requests_per_op", "count", "fdbs.federation",
           "delta of FederationLayer.stats() requests",
           [("latency_p90_ms", "analytic_scan")]),
    _layer("fdbs.federation.source_cache_hit_ratio", "frac", "fdbs.federation",
           "delta of FederationLayer.stats() cache_hits/(cache_hits+requests); "
           "null without source traffic",
           [("latency_p90_ms", "analytic_scan")], everywhere=False, better="higher"),
    _layer("wrapper.self_ms_per_op", "ms", "wrapper",
           "span: FencedFunctionRuntime.invoke_sql/invoke_external/invoke_batch, "
           "WfmsWrapper.invoke_foreign",
           [(m, "paper_calls") for m in _ARCH_P50]),
    _layer("wfms.self_ms_per_op", "ms", "wfms", "span: WfmsClient.run_process",
           [("wfms_p50_ms", "paper_calls")]),
    _layer("appsys.calls_per_op", "count", "appsys", "span count: ApplicationSystem.call",
           [("latency_p99_ms", "serving_mixed"), ("throughput_ops_s", "serving_mixed")],
           better="lower"),
    _layer("appsys.self_ms_per_op", "ms", "appsys",
           "span: ApplicationSystem.call (its private database included)",
           [("latency_p99_ms", "serving_mixed"), ("throughput_ops_s", "serving_mixed")]),
    _layer("sysmodel.rmi_calls_per_op", "count", "sysmodel",
           "delta of RmiChannel.stats() calls over the UDTF and WfMS channels",
           [("sim_ms_per_op", "paper_calls")], better="lower"),
    _layer("sim.unspanned.self_ms_per_op", "ms", "simtime",
           "simulated ms per op outside any TraceRecorder span",
           [("sim_ms_per_op", "paper_calls")]),
    *(
        _layer(sim_metric_name(step), "ms", "simtime",
               f"TraceRecorder self time of step {step!r}",
               [("sim_ms_per_op", "paper_calls")])
        for step in SIM_STEPS
    ),
    _layer("serving.busy_ms_per_op", "ms", "serving", "span: ClientSession.perform",
           [("throughput_ops_s", "serving_mixed"), ("latency_p99_ms", "serving_mixed")]),
    _layer("serving.self_ms_per_op", "ms", "serving",
           "span: ClientSession.perform minus its child spans",
           [("throughput_ops_s", "serving_mixed")]),
    _layer("serving.admission_blocked", "count", "serving",
           "delta of AdmissionController.stats() blocked over the traced phase",
           [("throughput_ops_s", "serving_mixed"), ("latency_p99_ms", "serving_mixed")]),
    _layer("serving.conflict_retries", "count", "serving",
           "delta of Database.mvcc_stats() retries over the traced phase",
           [("throughput_ops_s", "serving_mixed"), ("latency_p99_ms", "serving_mixed")]),
    _layer("bench.unattributed_ms_per_op", "ms", "bench",
           "traced per-op latency not covered by any layer span", []),
    _layer("trace.reconciled_frac", "frac", "trace",
           "sum of layer self times / traced end-to-end latency", [], better="higher"),
    _layer("trace.overhead_pct", "%", "trace",
           "traced vs untraced mean per-op latency in the same run", []),
)

#: ``trace.reconciled_frac`` must fall in this closed interval; a traced
#: run outside it fails its correctness check.
RECONCILE_TOLERANCE = (0.9, 1.02)

METRICS = {m.name: m for m in END_TO_END + PER_LAYER}


def gated_end_to_end() -> list[Metric]:
    """End-to-end metrics every workload reports with a bound."""
    return [m for m in END_TO_END if m.gated]


def everywhere_per_layer() -> list[Metric]:
    """Per-layer metrics that are a number on every workload."""
    return [m for m in PER_LAYER if m.everywhere]


def workload(name: str) -> Workload:
    """The catalogue entry of one workload."""
    for entry in WORKLOADS:
        if entry.name == name:
            return entry
    raise KeyError(name)
