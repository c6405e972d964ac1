"""Experiment drivers — one per table/figure of the paper.

Every driver *runs the actual engines* under the calibrated cost model
and returns structured results; the ``render_*`` helpers print them in
the paper's format.  Nothing here hard-codes expected numbers — the
benchmarks assert on shapes (orderings, factors, linearity), mirroring
what the paper claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.appsys.datagen import EnterpriseData, generate_enterprise_data
from repro.appsys.pdm import ProductDataManagementSystem
from repro.appsys.purchasing import PurchasingSystem
from repro.appsys.stock import StockKeepingSystem
from repro.bench.harness import (
    SituationTiming,
    call_args,
    measure_hot,
    measure_situations,
    timed_call,
)
from repro.bench.report import format_percent, format_table, linear_fit
from repro.core.architectures import Architecture, mechanism, supports
from repro.core.compile_procedural import compile_procedural
from repro.core.compile_sql_udtf import compile_simple_select, compile_sql_udtf
from repro.core.compile_workflow import compile_workflow
from repro.core.scenario import Scenario, build_scenario, scenario_functions
from repro.errors import UnsupportedMappingError
from repro.fdbs.config import EngineConfig
from repro.simtime.trace import TraceRecorder
from repro.wfms.programs import ProgramRegistry

#: The two architectures the paper's Sect. 4 measures head to head.
MEASURED_ARCHITECTURES = (Architecture.WFMS, Architecture.ENHANCED_SQL_UDTF)

#: Fig. 5's x-axis: scenario functions by increasing #local functions.
FIG5_FUNCTIONS = [
    "GibKompNr",
    "GetNumberSupp1234",
    "GetSuppQual",
    "GetSuppQualRelia",
    "GetSubCompDiscounts",
    "GetSuppGrade",
    "GetSuppQualReliaByName",
    "GetNoSuppComp",
    "BuySuppComp",
]

#: Fig. 6's anchor federated function (three local functions).
FIG6_FUNCTION = "GetNoSuppComp"

#: Fig. 6 row labels, in the paper's order, per architecture.
FIG6_WFMS_STEPS = [
    "Start UDTF",
    "Process UDTF",
    "RMI call",
    "Start workflows and Java environment",
    "Process activities",
    "Workflow",
    "Controller",
    "RMI return",
    "Finish UDTF",
]
FIG6_UDTF_STEPS = [
    "Start I-UDTF",
    "Prepare A-UDTFs",
    "RMI calls",
    "controller runs",
    "Process activities",
    "Finish A-UDTFs",
    "RMI returns",
    "Finish I-UDTF",
]


def _fresh_scenario(
    architecture: Architecture,
    data: EnterpriseData | None = None,
    controller_enabled: bool = True,
) -> Scenario:
    return build_scenario(
        architecture,
        data=data if data is not None else generate_enterprise_data(),
        controller_enabled=controller_enabled,
    )


# ===========================================================================
# E2 — Sect. 3 mapping-complexity matrix
# ===========================================================================


@dataclass
class MatrixRow:
    """One scenario function's support across architectures."""

    function: str
    case: str
    cells: dict[str, str]  # architecture value -> mechanism / "not supported"


@dataclass
class MappingMatrixResult:
    """E2 result: one row per scenario function."""
    rows: list[MatrixRow] = field(default_factory=list)


def exp_mapping_matrix() -> MappingMatrixResult:
    """Reconstruct the Sect. 3 table by *actually compiling* every
    scenario function for every architecture."""
    data = generate_enterprise_data()
    systems = {
        s.name: s
        for s in (
            StockKeepingSystem(None, data),
            PurchasingSystem(None, data),
            ProductDataManagementSystem(None, data),
        )
    }

    def resolver(system: str, function: str):
        return systems[system].function(function)

    result = MappingMatrixResult()
    for fed in scenario_functions():
        cells: dict[str, str] = {}
        for architecture in Architecture:
            try:
                if architecture is Architecture.WFMS:
                    compile_workflow(fed, resolver, ProgramRegistry())
                elif architecture is Architecture.ENHANCED_SQL_UDTF:
                    compile_sql_udtf(fed, resolver)
                elif architecture is Architecture.ENHANCED_JAVA_UDTF:
                    compile_procedural(fed, resolver)
                else:
                    compile_simple_select(fed, resolver)
                cells[architecture.value] = mechanism(architecture, fed.case)
            except UnsupportedMappingError:
                cells[architecture.value] = "not supported"
            # Cross-check the static capability matrix against reality.
            compiled = cells[architecture.value] != "not supported"
            assert compiled == supports(architecture, fed.case), (
                f"capability matrix disagrees with the compiler for "
                f"{fed.name} on {architecture.value}"
            )
        result.rows.append(MatrixRow(fed.name, fed.case.value, cells))
    return result


def render_mapping_matrix(result: MappingMatrixResult) -> str:
    """The Sect. 3 table as ASCII."""
    headers = ["federated function", "case", "UDTF approach", "WfMS approach"]
    rows = [
        [
            row.function,
            row.case,
            row.cells[Architecture.ENHANCED_SQL_UDTF.value],
            row.cells[Architecture.WFMS.value],
        ]
        for row in result.rows
    ]
    return format_table(headers, rows, title="Sect. 3 — supported mapping complexity")


# ===========================================================================
# E3 — boot / warm-other / hot
# ===========================================================================


@dataclass
class BootWarmHotResult:
    """E3 result: situation timings per architecture."""
    timings: dict[str, list[SituationTiming]] = field(default_factory=dict)
    """architecture value -> per-function situation timings."""


def exp_boot_warm_hot(
    functions: list[str] | None = None,
    data: EnterpriseData | None = None,
) -> BootWarmHotResult:
    """Sect. 4 ¶3: initial calls are slowest, repeated calls fastest."""
    shared = data if data is not None else generate_enterprise_data()
    chosen = functions or ["GetSuppQual", "GetSuppQualRelia", FIG6_FUNCTION]
    result = BootWarmHotResult()
    for architecture in MEASURED_ARCHITECTURES:
        scenario = _fresh_scenario(architecture, shared)
        timings = []
        for name in chosen:
            if name.upper() in scenario.skipped:
                continue
            timings.append(measure_situations(scenario, name))
        result.timings[architecture.value] = timings
    return result


def render_boot_warm_hot(result: BootWarmHotResult) -> str:
    """The three-situations tables as ASCII."""
    chunks = []
    for architecture, timings in result.timings.items():
        rows = [
            [t.name, t.cold, t.warm_other, t.hot] for t in timings
        ]
        chunks.append(
            format_table(
                ["function", "after boot", "after other", "repeated"],
                rows,
                title=f"Sect. 4 — processing situations ({architecture})",
            )
        )
    return "\n\n".join(chunks)


# ===========================================================================
# E4 — Fig. 5
# ===========================================================================


@dataclass
class Fig5Point:
    """One Fig. 5 data point (one federated function)."""
    function: str
    local_functions: int
    case: str
    wfms: float
    udtf: float

    @property
    def ratio(self) -> float:
        """WfMS elapsed over UDTF elapsed."""
        return self.wfms / self.udtf


@dataclass
class Fig5Result:
    """E4 result: the full Fig. 5 sweep."""
    points: list[Fig5Point] = field(default_factory=list)

    @property
    def max_ratio(self) -> float:
        """Largest WfMS/UDTF ratio in the sweep."""
        return max(p.ratio for p in self.points)


def exp_fig5(
    data: EnterpriseData | None = None, repeats: int = 3
) -> Fig5Result:
    """Fig. 5: repeated-call elapsed times, WfMS vs enhanced SQL UDTF."""
    shared = data if data is not None else generate_enterprise_data()
    wfms = _fresh_scenario(Architecture.WFMS, shared)
    udtf = _fresh_scenario(Architecture.ENHANCED_SQL_UDTF, shared)
    result = Fig5Result()
    for name in FIG5_FUNCTIONS:
        fed = wfms.function(name)
        result.points.append(
            Fig5Point(
                function=name,
                local_functions=fed.local_function_count(),
                case=fed.case.value,
                wfms=measure_hot(wfms, name, repeats=repeats).mean,
                udtf=measure_hot(udtf, name, repeats=repeats).mean,
            )
        )
    return result


def render_fig5(result: Fig5Result) -> str:
    """The Fig. 5 comparison as ASCII."""
    rows = [
        [p.function, p.local_functions, p.case, p.wfms, p.udtf, f"{p.ratio:.2f}x"]
        for p in result.points
    ]
    return format_table(
        ["function", "#local fns", "case", "WfMS [su]", "UDTF [su]", "WfMS/UDTF"],
        rows,
        title="Fig. 5 — workflow vs. enhanced UDTF approach (repeated calls)",
    )


# ===========================================================================
# E5 — Fig. 6
# ===========================================================================


@dataclass
class Fig6Breakdown:
    """Per-step portions of one architecture's anchor call."""
    architecture: str
    total: float
    steps: list[tuple[str, float, float]] = field(default_factory=list)
    """(label, time, fraction) in the paper's row order."""
    unattributed: float = 0.0


@dataclass
class Fig6Result:
    """E5 result: both Fig. 6 tables."""
    wfms: Fig6Breakdown | None = None
    udtf: Fig6Breakdown | None = None


def _breakdown(
    scenario: Scenario, labels: list[str], architecture: Architecture
) -> Fig6Breakdown:
    scenario.call(FIG6_FUNCTION, *call_args(FIG6_FUNCTION))  # warm
    trace = TraceRecorder(scenario.server.machine.clock)
    with trace.span("TOTAL"):
        scenario.call(FIG6_FUNCTION, *call_args(FIG6_FUNCTION), trace=trace)
    total = trace.total()
    by_name = trace.totals_by_name()
    steps = [
        (label, by_name.get(label, 0.0), by_name.get(label, 0.0) / total)
        for label in labels
    ]
    attributed = sum(t for _, t, _ in steps)
    return Fig6Breakdown(
        architecture=architecture.value,
        total=total,
        steps=steps,
        unattributed=total - attributed,
    )


def exp_fig6(
    data: EnterpriseData | None = None, controller_enabled: bool = True
) -> Fig6Result:
    """Fig. 6: per-step time portions of a hot GetNoSuppComp call."""
    shared = data if data is not None else generate_enterprise_data()
    result = Fig6Result()
    wfms = _fresh_scenario(Architecture.WFMS, shared, controller_enabled)
    result.wfms = _breakdown(wfms, FIG6_WFMS_STEPS, Architecture.WFMS)
    udtf = _fresh_scenario(
        Architecture.ENHANCED_SQL_UDTF, shared, controller_enabled
    )
    result.udtf = _breakdown(udtf, FIG6_UDTF_STEPS, Architecture.ENHANCED_SQL_UDTF)
    return result


def render_fig6(result: Fig6Result) -> str:
    """Both Fig. 6 tables as ASCII."""
    chunks = []
    for breakdown, title in (
        (result.wfms, "Workflow approach"),
        (result.udtf, "UDTF approach"),
    ):
        assert breakdown is not None
        rows = [
            [label, time, format_percent(fraction)]
            for label, time, fraction in breakdown.steps
        ]
        rows.append(["(engine overhead)", breakdown.unattributed,
                     format_percent(breakdown.unattributed / breakdown.total)])
        rows.append(["TOTAL", breakdown.total, "100%"])
        chunks.append(
            format_table(
                ["Step", "Time [su]", "Portion"],
                rows,
                title=f"Fig. 6 — {title} ({FIG6_FUNCTION})",
            )
        )
    return "\n\n".join(chunks)


# ===========================================================================
# E6 — controller ablation
# ===========================================================================


@dataclass
class AblationResult:
    """E6 result: totals with and without the controller."""
    wfms_with: float = 0.0
    wfms_without: float = 0.0
    udtf_with: float = 0.0
    udtf_without: float = 0.0

    @property
    def wfms_decrease(self) -> float:
        """Relative WfMS saving without the controller."""
        return 1.0 - self.wfms_without / self.wfms_with

    @property
    def udtf_decrease(self) -> float:
        """Relative UDTF saving without the controller."""
        return 1.0 - self.udtf_without / self.udtf_with

    @property
    def ratio_with(self) -> float:
        """WfMS/UDTF ratio with the controller."""
        return self.wfms_with / self.udtf_with

    @property
    def ratio_without(self) -> float:
        """WfMS/UDTF ratio without the controller."""
        return self.wfms_without / self.udtf_without


def exp_controller_ablation(data: EnterpriseData | None = None) -> AblationResult:
    """Sect. 4: 'Assume we can implement our prototypes without the
    controller' — WfMS −8 %, UDTF −25 %, ratio 3 → 3.7."""
    shared = data if data is not None else generate_enterprise_data()
    result = AblationResult()
    for enabled in (True, False):
        wfms = _fresh_scenario(Architecture.WFMS, shared, controller_enabled=enabled)
        udtf = _fresh_scenario(
            Architecture.ENHANCED_SQL_UDTF, shared, controller_enabled=enabled
        )
        wfms_time = measure_hot(wfms, FIG6_FUNCTION).mean
        udtf_time = measure_hot(udtf, FIG6_FUNCTION).mean
        if enabled:
            result.wfms_with, result.udtf_with = wfms_time, udtf_time
        else:
            result.wfms_without, result.udtf_without = wfms_time, udtf_time
    return result


def render_controller_ablation(result: AblationResult) -> str:
    """The ablation table as ASCII."""
    rows = [
        ["WfMS", result.wfms_with, result.wfms_without,
         format_percent(result.wfms_decrease)],
        ["UDTF", result.udtf_with, result.udtf_without,
         format_percent(result.udtf_decrease)],
        ["ratio WfMS/UDTF", result.ratio_with, result.ratio_without, "-"],
    ]
    return format_table(
        ["approach", "with controller", "without", "decrease"],
        rows,
        title="Sect. 4 — hypothetical prototypes without the controller",
    )


# ===========================================================================
# E7 — cyclic loop scaling
# ===========================================================================


@dataclass
class LoopScalingResult:
    """E7 result: (iterations, elapsed) points and the fit."""
    points: list[tuple[int, float]] = field(default_factory=list)
    slope: float = 0.0
    intercept: float = 0.0
    r_squared: float = 0.0


def exp_cyclic_scaling(
    iteration_counts: list[int] | None = None,
    data: EnterpriseData | None = None,
) -> LoopScalingResult:
    """Sect. 4: AllCompNames via a do-until loop — 'the overall
    processing time rises linearly to the number of function calls'."""
    counts = iteration_counts or [1, 2, 5, 10, 20, 50]
    shared = data if data is not None else generate_enterprise_data(
        n_components=max(counts) + 10
    )
    scenario = _fresh_scenario(Architecture.WFMS, shared)
    timed_call(scenario, "AllCompNames", (1, 1))  # warm plan + template
    result = LoopScalingResult()
    for k in counts:
        elapsed = timed_call(scenario, "AllCompNames", (1, k))
        result.points.append((k, elapsed))
    slope, intercept, r_squared = linear_fit(
        [(float(k), t) for k, t in result.points]
    )
    result.slope, result.intercept, result.r_squared = slope, intercept, r_squared
    return result


def render_cyclic_scaling(result: LoopScalingResult) -> str:
    """The loop-scaling table and fit as ASCII."""
    rows = [[k, t] for k, t in result.points]
    table = format_table(
        ["#iterations", "elapsed [su]"],
        rows,
        title="Sect. 4 — AllCompNames loop scaling (WfMS)",
    )
    return (
        f"{table}\n"
        f"linear fit: {result.slope:.2f} su/iteration + {result.intercept:.2f} su "
        f"(r^2 = {result.r_squared:.4f})"
    )


# ===========================================================================
# E8 — parallel vs sequential
# ===========================================================================


@dataclass
class ParallelResult:
    """E8 result: parallel vs sequential on both architectures."""
    wfms_sequential: float = 0.0
    wfms_parallel: float = 0.0
    udtf_sequential: float = 0.0
    udtf_parallel: float = 0.0


def exp_parallel_vs_sequential(data: EnterpriseData | None = None) -> ParallelResult:
    """Sect. 4: GetSuppQualRelia (parallel) vs GetSuppQual (sequential)
    — the WfMS profits from parallelism, the UDTF approach shows 'a
    contrary result'."""
    shared = data if data is not None else generate_enterprise_data()
    wfms = _fresh_scenario(Architecture.WFMS, shared)
    udtf = _fresh_scenario(Architecture.ENHANCED_SQL_UDTF, shared)
    return ParallelResult(
        wfms_sequential=measure_hot(wfms, "GetSuppQual").mean,
        wfms_parallel=measure_hot(wfms, "GetSuppQualRelia").mean,
        udtf_sequential=measure_hot(udtf, "GetSuppQual").mean,
        udtf_parallel=measure_hot(udtf, "GetSuppQualRelia").mean,
    )


def render_parallel_vs_sequential(result: ParallelResult) -> str:
    """The parallel-vs-sequential table as ASCII."""
    rows = [
        ["GetSuppQual (sequential)", result.wfms_sequential, result.udtf_sequential],
        ["GetSuppQualRelia (parallel)", result.wfms_parallel, result.udtf_parallel],
    ]
    return format_table(
        ["function", "WfMS [su]", "UDTF [su]"],
        rows,
        title="Sect. 4 — parallel vs sequential execution",
    )


# ===========================================================================
# E9 — warm pooling + result cache (coupling hot path)
# ===========================================================================

#: The pooling-ablation configurations, in measurement order.
COUPLING_CONFIGS: list[tuple[str, bool, bool]] = [
    ("baseline", False, False),
    ("pooled", True, False),
    ("pooled+cache", True, True),
]


@dataclass
class CouplingMeasurement:
    """One architecture × configuration cell of the pooling ablation."""

    architecture: str
    config: str
    pooling: bool
    result_cache: bool
    calls: int
    total: float
    """Summed virtual elapsed time of the measured hot calls."""
    per_call: float
    start_cost: float
    """Runtime-start charges (activity JVMs / fenced-process hand-overs)
    inside the measured window, from pool counter deltas × cost
    constants — the Fig. 6 'start' component the pool targets."""
    warm_hits: int
    cold_starts: int
    pool_stats: dict[str, int] = field(default_factory=dict)
    cache_stats: dict[str, int] = field(default_factory=dict)
    rmi_stats: dict[str, int] = field(default_factory=dict)
    rows: list[tuple] = field(default_factory=list)
    """Result rows of the last call (parity across configurations)."""

    @property
    def start_share(self) -> float:
        """Fraction of the measured time spent starting runtimes."""
        return self.start_cost / self.total if self.total else 0.0


@dataclass
class CouplingAblationResult:
    """E9 result: the full architecture × configuration sweep."""

    function: str
    repeats: int
    measurements: list[CouplingMeasurement] = field(default_factory=list)

    def get(self, architecture: str, config: str) -> CouplingMeasurement:
        """The cell for one architecture value and configuration label."""
        for measurement in self.measurements:
            if (
                measurement.architecture == architecture
                and measurement.config == config
            ):
                return measurement
        raise KeyError(f"no measurement for {architecture!r} / {config!r}")


def _runtime_start_costs(architecture: Architecture, costs) -> tuple[float, float]:
    """(cold, warm) start cost per runtime acquisition for the architecture."""
    if architecture is Architecture.WFMS:
        return costs.wf_activity_jvm, costs.jvm_warm_dispatch
    return costs.udtf_prepare_access, costs.udtf_warm_prepare


def exp_coupling_ablation(
    data: EnterpriseData | None = None, repeats: int = 5
) -> CouplingAblationResult:
    """Warm pooling + result caching on the repeat-call workload.

    For both measured architectures, runs the Fig. 6 anchor function hot
    ``repeats`` times under each configuration (baseline, warm pool,
    pool + result cache) and attributes the runtime-start component of
    every window from the pool's counter deltas.  Result rows must be
    identical across configurations — memoization may change time, never
    answers.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    shared = data if data is not None else generate_enterprise_data()
    result = CouplingAblationResult(FIG6_FUNCTION, repeats)
    args = call_args(FIG6_FUNCTION)
    for architecture in MEASURED_ARCHITECTURES:
        for config, pooling, cache_on in COUPLING_CONFIGS:
            scenario = build_scenario(
                architecture,
                data=shared,
                config=EngineConfig(pooling=pooling, result_cache=cache_on),
            )
            server = scenario.server
            server.call(FIG6_FUNCTION, *args)  # cold call outside the window
            pool = server.machine.runtime_pool
            warm_before, cold_before = pool.warm_hits, pool.cold_starts
            start = server.now
            rows: list[tuple] = []
            for _ in range(repeats):
                rows = server.call(FIG6_FUNCTION, *args)
            total = server.now - start
            warm = pool.warm_hits - warm_before
            cold = pool.cold_starts - cold_before
            cold_cost, warm_cost = _runtime_start_costs(
                architecture, server.machine.costs
            )
            result.measurements.append(
                CouplingMeasurement(
                    architecture=architecture.value,
                    config=config,
                    pooling=pooling,
                    result_cache=cache_on,
                    calls=repeats,
                    total=total,
                    per_call=total / repeats,
                    start_cost=cold * cold_cost + warm * warm_cost,
                    warm_hits=warm,
                    cold_starts=cold,
                    pool_stats=pool.stats(),
                    cache_stats=server.machine.result_cache.stats(),
                    rmi_stats=server.machine.udtf_rmi.stats()
                    if architecture is not Architecture.WFMS
                    else server.machine.wf_rmi.stats(),
                    rows=rows,
                )
            )
    return result


def render_coupling_ablation(result: CouplingAblationResult) -> str:
    """The pooling-ablation table as ASCII."""
    rows = []
    for m in result.measurements:
        rows.append(
            [
                m.architecture,
                m.config,
                m.per_call,
                m.start_cost / m.calls if m.calls else 0.0,
                format_percent(m.start_share),
                m.warm_hits,
                m.cache_stats.get("hits", 0),
            ]
        )
    return format_table(
        [
            "architecture",
            "config",
            "per call [su]",
            "start/call [su]",
            "start share",
            "warm hits",
            "cache hits",
        ],
        rows,
        title=(
            f"Pooling ablation — {result.function}, "
            f"{result.repeats} hot calls per cell"
        ),
    )


# ===========================================================================
# E10 — fault injection & recovery (the robustness asymmetry)
# ===========================================================================

#: Fixed seed of the E10 fault decision stream (deterministic runs).
FAULT_SEED = 20020322

#: Per-site fault probability of the E10 workload.
FAULT_RATE = 0.15


@dataclass
class FaultRecoveryMeasurement:
    """One architecture row of the fault-recovery experiment."""

    architecture: str
    calls: int
    completed: int
    aborted: int
    """Calls that ended with the statement aborted (UDTF failure mode)."""
    injected: dict[str, int]
    """Faults injected, by site."""
    recovered_activities: int
    """Activities restarted successfully by WfMS forward recovery."""
    activity_retries: int
    """In-place activity re-attempts inside the WfMS engine."""
    rmi_drops: int
    rmi_retries: int
    fault_evictions: int
    """Fenced-process pool slots dropped because the process died."""
    total: float
    per_call: float
    fault_free_per_call: float
    """Hot per-call time of the same scenario before faults were armed."""
    rows_consistent: bool
    """Every completed call returned the fault-free baseline rows."""

    @property
    def overhead(self) -> float:
        """Mean per-call slowdown paid for surviving the fault workload."""
        if self.fault_free_per_call == 0.0:
            return 0.0
        return self.per_call / self.fault_free_per_call


@dataclass
class FaultRecoveryResult:
    """E10 result: completion vs. abort under an identical fault seed."""

    function: str
    seed: int
    rate: float
    calls: int
    measurements: list[FaultRecoveryMeasurement] = field(default_factory=list)

    def get(self, architecture: str) -> FaultRecoveryMeasurement:
        """The row for one architecture value."""
        for measurement in self.measurements:
            if measurement.architecture == architecture:
                return measurement
        raise KeyError(f"no measurement for {architecture!r}")


def _fault_sites_for(architecture: Architecture) -> dict[str, float]:
    """The sites exercised per architecture, at :data:`FAULT_RATE` each."""
    from repro.sysmodel.faults import (
        SITE_ACTIVITY_PROGRAM,
        SITE_FENCED_PROCESS,
        SITE_LOCAL_FUNCTION,
        SITE_RMI_UDTF,
        SITE_RMI_WFMS,
    )

    if architecture is Architecture.WFMS:
        return {
            SITE_RMI_WFMS: FAULT_RATE,
            SITE_LOCAL_FUNCTION: FAULT_RATE,
            SITE_ACTIVITY_PROGRAM: FAULT_RATE,
        }
    return {
        SITE_RMI_UDTF: FAULT_RATE,
        SITE_LOCAL_FUNCTION: FAULT_RATE,
        SITE_FENCED_PROCESS: FAULT_RATE,
    }


def exp_fault_recovery(
    data: EnterpriseData | None = None,
    calls: int = 16,
    seed: int = FAULT_SEED,
) -> FaultRecoveryResult:
    """Identical fault workload against both measured architectures.

    Arms the RMI hop, the local functions and the architecture's own
    runtime site (activity-program JVMs on the WfMS path, fenced
    processes on the UDTF path) at the same per-site rate and drives the
    Fig. 6 anchor function ``calls`` times hot.  The WfMS architecture
    absorbs faults through channel retries, in-place activity retries
    and forward recovery from the activity's input container; the UDTF
    architecture can retry dropped RMI hops but must abort the whole
    statement for any failure past the hop — the paper's robustness
    asymmetry, measured.
    """
    if calls < 1:
        raise ValueError("calls must be positive")
    from repro.errors import StatementAbortedError, TransientFaultError, WorkflowError

    shared = data if data is not None else generate_enterprise_data()
    args = call_args(FIG6_FUNCTION)
    result = FaultRecoveryResult(FIG6_FUNCTION, seed, FAULT_RATE, calls)
    for architecture in MEASURED_ARCHITECTURES:
        # Pooling on: warm fenced processes give the UDTF path its
        # graceful-degradation chance (a dead warm slot is evicted and
        # retried cold once before the statement aborts).
        scenario = build_scenario(
            architecture, data=shared, config=EngineConfig(pooling=True)
        )
        server = scenario.server
        baseline_rows = server.call(FIG6_FUNCTION, *args)  # cold
        _, fault_free = server.elapsed(server.call, FIG6_FUNCTION, *args)
        server.configure_faults(
            enabled=True,
            seed=seed,
            sites=_fault_sites_for(architecture),
            retry_attempts=2,
            forward_recovery=True,
        )
        audit = server.wfms_client.engine.audit
        audit_before = len(audit.events)
        channel = (
            server.machine.wf_rmi
            if architecture is Architecture.WFMS
            else server.machine.udtf_rmi
        )
        drops_before = channel.drops
        retries_before = channel.retries
        completed = aborted = 0
        rows_consistent = True
        start = server.now
        for _ in range(calls):
            try:
                rows = server.call(FIG6_FUNCTION, *args)
            except (StatementAbortedError, TransientFaultError, WorkflowError):
                aborted += 1
            else:
                completed += 1
                if rows != baseline_rows:
                    rows_consistent = False
        total = server.now - start
        events = [e.event for e in audit.events[audit_before:]]
        injector = server.machine.fault_injector
        result.measurements.append(
            FaultRecoveryMeasurement(
                architecture=architecture.value,
                calls=calls,
                completed=completed,
                aborted=aborted,
                injected={
                    site: injector.injected(site)
                    for site in _fault_sites_for(architecture)
                },
                recovered_activities=events.count("activity recovered"),
                activity_retries=events.count("activity retried"),
                rmi_drops=channel.drops - drops_before,
                rmi_retries=channel.retries - retries_before,
                fault_evictions=server.machine.runtime_pool.fault_evictions,
                total=total,
                per_call=total / calls,
                fault_free_per_call=fault_free,
                rows_consistent=rows_consistent,
            )
        )
    return result


def render_fault_recovery(result: FaultRecoveryResult) -> str:
    """The recovered-vs-aborted table as ASCII."""
    rows = []
    for m in result.measurements:
        rows.append(
            [
                m.architecture,
                f"{m.completed}/{m.calls}",
                m.aborted,
                sum(m.injected.values()),
                m.recovered_activities,
                m.activity_retries,
                m.rmi_retries,
                m.per_call,
                f"{m.overhead:.2f}x",
            ]
        )
    return format_table(
        [
            "architecture",
            "completed",
            "aborted",
            "faults",
            "recovered",
            "act. retries",
            "rmi retries",
            "per call [su]",
            "overhead",
        ],
        rows,
        title=(
            f"Fault recovery — {result.function}, {result.calls} calls, "
            f"p={result.rate} per site, seed={result.seed}"
        ),
    )
