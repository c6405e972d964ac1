"""``serving_mixed``: the concurrent serving front end, shared mode.

``ConcurrentIntegrationServer(mode="shared", workers=2)`` runs batches
of ``make_workload(seed, sessions=8, dml_fraction=0.35)`` over a
500-supplier / 2000-component universe.  Each batch is one round; its
sessions are renumbered so every batch gets fresh session ids and
scratch tables on the long-lived shared servers.  Within a session each
call waits for its reply (a closed loop of 8 clients on 2 threads).
"""

from __future__ import annotations

import gc

from perfbench.harness import RoundResult
from perfbench.workloads import MAX_ERRORS_KEPT, fdbs_counters
from repro.appsys.datagen import generate_enterprise_data
from repro.errors import ServingError
from repro.serving import ConcurrentIntegrationServer, make_workload
from repro.serving.workload import SessionScript, WorkloadCall

SESSIONS = 8
CALLS_PER_SESSION = 12
DML_FRACTION = 0.35
WORKERS = 2
SUPPLIERS = 500
COMPONENTS = 2000


def batch(seed: int, index: int, sessions: int, calls: int) -> list[SessionScript]:
    """Batch ``index`` of the run: a seeded workload with its session
    ids (and so its scratch tables) moved to ``index * sessions + i``."""
    scripts = []
    for script in make_workload(
        seed * 100_003 + index,
        sessions=sessions,
        calls_per_session=calls,
        dml_fraction=DML_FRACTION,
    ):
        moved = SessionScript(
            session_id=index * sessions + script.session_id,
            architecture=script.architecture,
        )
        moved.calls = [
            WorkloadCall(
                call.kind,
                call.target.replace(script.scratch_table, moved.scratch_table),
                call.args,
            )
            if call.kind == "sql"
            else call
            for call in script.calls
        ]
        scripts.append(moved)
    return scripts


def is_write(call: WorkloadCall) -> bool:
    """INSERT and UPDATE steps of the DML mix."""
    return call.kind == "sql" and call.target.split(None, 1)[0] in ("INSERT", "UPDATE")


class ServingMixed:
    """The serving workload (see the module docstring)."""

    name = "serving_mixed"
    setup_repeats = 5

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.sessions = 4 if tiny else SESSIONS
        self.calls = 3 if tiny else CALLS_PER_SESSION
        self.data = (
            generate_enterprise_data()
            if tiny
            else generate_enterprise_data(n_suppliers=SUPPLIERS, n_components=COMPONENTS)
        )
        self.server: ConcurrentIntegrationServer | None = None
        self.rows: dict[int, list] = {}
        self.batches: list[list[SessionScript]] = []
        self._tracing = False
        self._traced_sessions: list = []

    def _new_server(self, workers: int) -> ConcurrentIntegrationServer:
        return ConcurrentIntegrationServer(workers=workers, mode="shared", data=self.data)

    def setup(self) -> None:
        """Build the shared servers and run one warm-up batch."""
        self.close()
        self.rows, self.batches, self.fdbs = {}, [], []
        gc.collect()
        self.server = self._new_server(WORKERS)
        self.run_round(self.next_round())
        # Sessions of one architecture share its server: count each once.
        sessions = [self.server.sessions.get(s.session_id) for s in self.batches[0]]
        servers = {id(session.server): session.server for session in sessions}
        self.fdbs = [server.fdbs for server in servers.values()]

    def close(self) -> None:
        """Shut the serving front end down (waits for its workers)."""
        if self.server is not None:
            self.server.shutdown()
            self.server = None

    def next_round(self) -> list[SessionScript]:
        """The next batch of session scripts."""
        return batch(self.seed, len(self.batches), self.sessions, self.calls)

    def run_round(self, scripts: list[SessionScript]) -> RoundResult:
        """Run one batch; aborted calls, exhausted conflict retries and
        raised errors all count as failed."""
        self.batches.append(scripts)
        result = RoundResult()
        result.attempted = sum(len(script.calls) for script in scripts)
        try:
            run = self.server.run_workload(scripts)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            result.errors.append(repr(exc))
            run = None
        latencies = iter(run.latencies) if run is not None else iter(())
        for script in scripts:
            try:
                session = self.server.sessions.get(script.session_id)
            except ServingError:  # the batch failed before opening it
                result.failed += len(script.calls)
                continue
            self.rows[script.session_id] = session.row_sets
            if self._tracing:
                self._traced_sessions.append(session)
            for call, record in zip(script.calls, session.records):
                latency = next(latencies, None)
                if record.aborted:
                    result.failed += 1
                    if len(result.errors) < MAX_ERRORS_KEPT:
                        result.errors.append(f"{record.label}: {record.error}")
                    continue
                result.latencies.append(latency)
                result.labels.append(session.architecture.name)
                result.writes += is_write(call)
            result.failed += len(script.calls) - len(session.records)
        if run is None:
            # The raised batch reported no latencies: its completed calls
            # count as failed too, so nothing is silently dropped.
            result.failed = result.attempted
            result.latencies, result.labels, result.writes = [], [], 0
        return result

    def counters(self) -> dict:
        """Counters of the shared FDBS instances plus admission."""
        totals = fdbs_counters(self.fdbs)
        totals["admission.blocked"] = self.server.admission.stats()["blocked"]
        return totals

    def set_sim_trace(self, on: bool) -> None:
        """Collect the sessions' simulated traces while ``on``."""
        self._tracing = on
        if on:
            self._traced_sessions = []

    def sim_breakdown(self) -> dict:
        """Simulated self ms per step of the traced sessions."""
        totals: dict = {"__ops__": 0, "__unspanned__": 0.0}
        for session in self._traced_sessions:
            for name, value in session.trace.totals_by_name().items():
                totals[name] = totals.get(name, 0.0) + value
            spanned = session.trace.total()
            totals["__ops__"] += len(session.records)
            totals["__unspanned__"] += session.simulated_time - spanned
        return totals

    def phase_metrics(self, phase) -> dict:
        """No workload-specific phase metrics."""
        return {}

    def check(self) -> tuple[list[str], dict]:
        """Per-session rows equal a single-worker replay of every batch;
        ``sim_ms_per_op`` is the replay's first measured batch."""
        failures: list[str] = []
        sim_ms_per_op = None
        with self._new_server(1) as replay:
            for index, scripts in enumerate(self.batches):
                try:
                    run = replay.run_workload(scripts)
                except Exception as exc:  # noqa: BLE001 - reported as a failed check
                    failures.append(f"replay of batch {index} raised {exc!r}")
                    break
                for script in scripts:
                    if run.row_sets[script.session_id] != self.rows[script.session_id]:
                        failures.append(
                            f"session {script.session_id}: rows differ from the "
                            "single-worker replay"
                        )
                if index == 1:
                    sims = [ms for calls in run.call_sim_ms.values() for ms in calls]
                    sim_ms_per_op = sum(sims) / len(sims)
                if len(failures) >= 5:
                    break
        return failures, {"sim_ms_per_op": sim_ms_per_op}
