"""``paper_calls``: the paper's federated-function calls, hot.

One client calls ``build_scenario`` servers of all four architectures
on the default enterprise universe.  Each round is a seeded shuffle of
every deployable (architecture, function, ``ARG_POOLS`` args) tuple, so
draws are uniform and every round holds the exact mix.
"""

from __future__ import annotations

import gc
import random

from perfbench.harness import label_p50_ms
from perfbench.workloads import SingleClient, fdbs_counters
from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario, scenario_functions
from repro.serving.workload import ARG_POOLS, supported_functions
from repro.simtime.trace import TraceRecorder

#: Ops of the seeded prefix replayed twice for ``sim_ms_per_op``.
SIM_PREFIX_OPS = 400

#: Per-architecture p50 metric of each architecture's calls.
ARCH_METRICS = {
    Architecture.WFMS: "wfms_p50_ms",
    Architecture.ENHANCED_SQL_UDTF: "sql_udtf_p50_ms",
    Architecture.ENHANCED_JAVA_UDTF: "java_udtf_p50_ms",
    Architecture.SIMPLE_UDTF: "simple_udtf_p50_ms",
}

#: Architectures whose federated functions build their result from
#: output values rather than a relational expression: the WfMS wrapper
#: turns the process output container into a row, the Java UDTF its
#: output variables.  When the local functions find nothing, the
#: container still exists with its members unset, so these return one
#: all-NULL row where the SQL architectures return none.
CONTAINER_ARCHITECTURES = frozenset({Architecture.WFMS, Architecture.ENHANCED_JAVA_UDTF})


def call_tuples() -> list[tuple[Architecture, str, tuple]]:
    """Every deployable (architecture, function, args) tuple, in order."""
    return [
        (architecture, function, args)
        for architecture in Architecture
        for function in supported_functions(architecture)
        for args in ARG_POOLS[function]
    ]


class OpStream:
    """Seeded rounds: each a shuffle of every call tuple."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.tuples = call_tuples()

    def next_round(self) -> list:
        """The next shuffled round."""
        ops = list(self.tuples)
        self.rng.shuffle(ops)
        return ops


def build_servers() -> dict:
    """One scenario per architecture, every call tuple issued once."""
    scenarios = {architecture: build_scenario(architecture) for architecture in Architecture}
    for architecture, function, args in call_tuples():
        scenarios[architecture].call(function, *args)
    return scenarios


class PaperCalls(SingleClient):
    """The paper's workload (see the module docstring)."""

    name = "paper_calls"
    setup_repeats = 5

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        self.seed = seed
        self.sim_prefix = 40 if tiny else SIM_PREFIX_OPS
        self.scenarios: dict = {}
        self.stream = OpStream(seed)
        self._recorders: dict | None = None
        self._tracing = False
        self._sim_start: dict = {}
        self._sim_ops_start = self._sim_ops = 0
        self._sim_elapsed = 0.0
        self.first_rows: dict = {}
        self.diverged: list[str] = []

    def record(self, op, rows) -> None:
        """Keep each call tuple's first rows; note any later call whose
        rows differ (memory stays flat however many calls run)."""
        first = self.first_rows.setdefault(op, rows)
        if rows != first and len(self.diverged) < 5:
            self.diverged.append(f"{op!r}: rows changed between calls")

    def setup(self) -> None:
        """Build the four servers and warm every call tuple."""
        self.scenarios = {}
        gc.collect()
        self.scenarios = build_servers()
        self.stream = OpStream(self.seed)
        self.first_rows, self.diverged = {}, []

    def next_round(self) -> list:
        """The next seeded round of calls."""
        return self.stream.next_round()

    def perform(self, op):
        """One federated-function call through the FDBS."""
        architecture, function, args = op
        if not self._tracing:
            return self.scenarios[architecture].call(function, *args)
        return self.scenarios[architecture].call(
            function, *args, trace=self._recorders[architecture]
        )

    def label(self, op) -> str:
        """The op's architecture metric."""
        return ARCH_METRICS[op[0]]

    def counters(self) -> dict:
        """Counters of the four integration FDBS instances."""
        return fdbs_counters(s.server.fdbs for s in self.scenarios.values())

    def set_sim_trace(self, on: bool) -> None:
        """Pass a TraceRecorder to every call while ``on``; simulated
        time and ops accumulate over every traced round."""
        clocks = {a: s.server.machine.clock for a, s in self.scenarios.items()}
        if on:
            if self._recorders is None:
                self._recorders = {a: TraceRecorder(clock) for a, clock in clocks.items()}
            self._sim_start = {a: clock.now for a, clock in clocks.items()}
            self._sim_ops_start = self.completed
            self._tracing = True
        else:
            self._sim_elapsed += sum(clocks[a].now - self._sim_start[a] for a in clocks)
            self._sim_ops += self.completed - self._sim_ops_start
            self._tracing = False

    def sim_breakdown(self) -> dict:
        """Simulated self ms per step over the traced rounds."""
        totals: dict = {"__ops__": self._sim_ops}
        spanned = 0.0
        for recorder in (self._recorders or {}).values():
            for name, value in recorder.totals_by_name().items():
                totals[name] = totals.get(name, 0.0) + value
            spanned += recorder.total()
        totals["__unspanned__"] = self._sim_elapsed - spanned
        return totals

    def _replay_sim(self) -> list[float]:
        """Simulated ms of each op of the seeded prefix, fresh servers."""
        scenarios = build_servers()
        stream = OpStream(self.seed)
        ops: list = []
        while len(ops) < self.sim_prefix:
            ops.extend(stream.next_round())
        times = []
        for architecture, function, args in ops[: self.sim_prefix]:
            server = scenarios[architecture].server
            start = server.now
            scenarios[architecture].call(function, *args)
            times.append(server.now - start)
        return times

    def check(self) -> tuple[list[str], dict]:
        """Rows agree across architectures (see :func:`compare_architectures`)
        and with every measured call; simulated time repeats exactly for
        one seed."""
        reference = {
            (architecture, function, args): self.scenarios[architecture].call(function, *args)
            for architecture, function, args in call_tuples()
        }
        widths = {fed.name: len(fed.returns) for fed in scenario_functions()}
        failures, empty_containers = compare_architectures(reference, widths)
        failures.extend(self.diverged)
        for op, rows in self.first_rows.items():
            if rows != reference[op]:
                failures.append(f"{op!r}: measured rows differ from the reference")
                break
        first, second = self._replay_sim(), self._replay_sim()
        if first != second:
            failures.append("simulated times differ between two replays of one seed")
        return failures, {
            "sim_ms_per_op": sum(first) / len(first),
            "empty_result_container_calls": empty_containers,
        }

    def phase_metrics(self, phase) -> dict:
        """Median latency of each architecture's calls."""
        return {metric: label_p50_ms(phase, metric) for metric in ARCH_METRICS.values()}


def compare_architectures(reference: dict, widths: dict) -> tuple[list[str], list[str]]:
    """Check each call tuple's rows across the architectures deploying it.

    Architectures of one result model must return identical rows, and
    the two models must agree, with one allowance: an empty relational
    result appears on :data:`CONTAINER_ARCHITECTURES` as exactly one
    all-NULL row of the function's width.  Returns the failures and the
    (function, args) calls that used the allowance.
    """
    groups: dict = {}
    for (architecture, function, args), rows in reference.items():
        model = architecture in CONTAINER_ARCHITECTURES
        groups.setdefault((function, args), {}).setdefault(model, []).append(
            (architecture, rows)
        )
    failures: list[str] = []
    allowed: list[str] = []
    for (function, args), models in groups.items():
        agreed = {}
        for model, results in models.items():
            first_arch, first_rows = results[0]
            for architecture, rows in results[1:]:
                if rows != first_rows:
                    failures.append(
                        f"{function}{args!r}: {architecture.name} returns {rows!r} but "
                        f"{first_arch.name} returns {first_rows!r}"
                    )
            agreed[model] = results[0]
        if len(agreed) < 2:
            continue
        (rel_arch, rel_rows), (con_arch, con_rows) = agreed[False], agreed[True]
        if con_rows == rel_rows:
            continue
        if rel_rows == [] and con_rows == [(None,) * widths[function]]:
            allowed.append(f"{function}{args!r}")
            continue
        failures.append(
            f"{function}{args!r}: {con_arch.name} returns {con_rows!r} but "
            f"{rel_arch.name} returns {rel_rows!r}"
        )
    return failures, allowed
