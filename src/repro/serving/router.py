"""Process-sharded serving: consistent-hash routing over OS workers.

:class:`ShardedIntegrationServer` is the scale-out sibling of the
thread-pool :class:`~repro.serving.server.ConcurrentIntegrationServer`.
Threads top out against the GIL; here every shard is a real OS process
(:func:`~repro.serving.shard.shard_worker_main`) owning isolated
per-session server shards, so CPU work and injected wall latency both
overlap across shards.

The front end is a thin, selector-based event loop:

* **Routing** — sessions map onto shards by consistent hashing on the
  session id (:class:`~repro.serving.hashring.ConsistentHashRing`);
  placement is deterministic across runs and processes.
* **Admission** — the same :class:`~repro.serving.server
  .AdmissionController` bounds scripts in flight (block or reject).
* **Multiplexing** — one collector thread waits on every worker pipe
  *and* process sentinel with :func:`multiprocessing.connection.wait`
  (a selector under the hood), resolving per-script futures as
  :class:`~repro.serving.wire.ScriptDone` frames arrive.
* **Fault handling** — a dead worker (EOF, broken pipe, wire-protocol
  violation or sentinel) first has its already-buffered results
  drained, then every outstanding script on it fails with a clean,
  retryable :class:`~repro.errors.ShardCrashError`; nothing hangs and
  the process is reaped.  ``respawn_shard`` brings the shard back on
  the same ring points, so resubmitted sessions land exactly where
  they did before.
* **Drain/shutdown** — ``shutdown()`` stops new admissions, waits for
  in-flight scripts, then sends ``Shutdown`` down each pipe; ordered
  frames make the worker drain its queue before acking and exiting.

Isolated shards make cross-process parity testable: rows and
per-session simulated times must match the bare single-process stack
bit-for-bit at any shard count (``tests/test_process_parity.py``).
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
from concurrent.futures import Future
from multiprocessing.connection import wait as connection_wait

from repro.appsys.datagen import EnterpriseData, generate_enterprise_data
from repro.errors import ServingError, ShardCrashError, WireProtocolError
from repro.fdbs.config import EngineConfig
from repro.serving.hashring import DEFAULT_REPLICAS, ConsistentHashRing
from repro.serving.server import AdmissionController, ServerSpec, WorkloadRunResult
from repro.serving.shard import shard_worker_main
from repro.serving.wire import (
    Hello,
    Pong,
    RunScript,
    ScriptDone,
    ScriptFailed,
    Shutdown,
    ShutdownAck,
    recv_frame,
    send_frame,
)
from repro.serving.workload import SessionScript
from repro.simtime.costs import CostModel


def _default_start_method() -> str:
    """Prefer fork (cheap, inherits the universe); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class _ShardHandle:
    """Router-side state for one worker process (internal)."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.process = None
        self.conn = None
        self.pid: int | None = None
        self.alive = False
        self.ready = False
        self.completed = 0
        self.respawns = 0
        #: Bumped on every (re)spawn; stale pipe/sentinel events from a
        #: previous incarnation must never kill the current one.
        self.generation = 0
        self.death_cause: str | None = None
        #: The engine config the worker reported booting with.
        self.config: EngineConfig | None = None
        self.pending: dict[int, Future] = {}


class ShardedIntegrationServer:
    """Serve session scripts across N single-process server shards."""

    MODE = "process"

    def __init__(
        self,
        shards: int = 4,
        *,
        data: EnterpriseData | None = None,
        queue_limit: int | None = None,
        admission_policy: str = "block",
        replicas: int = DEFAULT_REPLICAS,
        start_method: str | None = None,
        costs: CostModel | None = None,
        controller_enabled: bool = True,
        config: EngineConfig | None = None,
        heterogeneous: bool = False,
        rmi_wall_latency_s: float = 0.0,
        setup_sql: tuple[str, ...] = (),
    ):
        """``config`` sets every shard server's engine switches; it and
        the other server keywords form the :class:`ServerSpec` each
        worker receives at start."""
        if shards < 1:
            raise ServingError(f"shards must be >= 1, got {shards!r}")
        self.shards = shards
        self.spec = ServerSpec(
            data=data if data is not None else generate_enterprise_data(),
            costs=costs,
            controller_enabled=controller_enabled,
            config=EngineConfig() if config is None else config,
            heterogeneous=heterogeneous,
            rmi_wall_latency_s=rmi_wall_latency_s,
            setup_sql=tuple(setup_sql),
        )
        self.ring = ConsistentHashRing(tuple(range(shards)), replicas=replicas)
        self.admission = AdmissionController(
            capacity=shards,
            queue_limit=shards if queue_limit is None else queue_limit,
            policy=admission_policy,
        )
        self._ctx = multiprocessing.get_context(
            start_method or _default_start_method()
        )
        self._lock = threading.RLock()
        self._request_ids = itertools.count(1)
        self._closed = False
        self._handles: dict[int, _ShardHandle] = {}
        for shard_id in range(shards):
            handle = _ShardHandle(shard_id)
            self._handles[shard_id] = handle
            self._start_worker(handle)
        self._collector_stop = threading.Event()
        self._collector = threading.Thread(
            target=self._collect_loop, name="shard-router", daemon=True
        )
        self._collector.start()

    # -- worker lifecycle ---------------------------------------------------

    def _start_worker(self, handle: _ShardHandle) -> None:
        """Fork/spawn one worker process behind a fresh duplex pipe."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(child_conn, handle.shard_id, self.spec),
            name=f"shard-{handle.shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.pid = process.pid
        handle.alive = True
        handle.ready = False
        handle.generation += 1
        handle.death_cause = None
        handle.pending = {}

    def _mark_dead(
        self, handle: _ShardHandle, cause: str, generation: int
    ) -> None:
        """Reap a dead shard: drain buffered results, fail the rest."""
        with self._lock:
            if not handle.alive or handle.generation != generation:
                return
            handle.alive = False
            handle.death_cause = cause
        # Results the worker flushed before dying are still in the pipe;
        # deliver them so only genuinely unfinished sessions fail.
        while True:
            try:
                if not handle.conn.poll(0):
                    break
                message = recv_frame(handle.conn)
            except (EOFError, OSError, WireProtocolError):
                break
            self._dispatch(handle, message)
        with self._lock:
            failed = list(handle.pending.items())
            handle.pending = {}
        for _, future in failed:
            if future.set_running_or_notify_cancel():
                future.set_exception(
                    ShardCrashError(
                        handle.shard_id,
                        f"shard {handle.shard_id} died ({cause}) with the "
                        "session outstanding; the script is retryable — "
                        "respawn the shard and resubmit",
                    )
                )
            self.admission.release()
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join(timeout=5.0)
        if handle.process.is_alive():  # pragma: no cover - defensive
            handle.process.terminate()
            handle.process.join(timeout=5.0)

    def kill_shard(self, shard_id: int) -> None:
        """Hard-kill one worker (SIGKILL) — the fault battery's hammer.

        Detection, draining of already-completed results and the
        failing of outstanding sessions all happen on the collector
        path, exactly as for a real crash.
        """
        handle = self._handle(shard_id)
        handle.process.kill()

    def respawn_shard(self, shard_id: int) -> None:
        """Bring a dead shard back on the same consistent-hash arcs."""
        handle = self._handle(shard_id)
        with self._lock:
            if self._closed:
                raise ServingError("server is shut down")
            if handle.alive:
                raise ServingError(f"shard {shard_id} is still alive")
            handle.respawns += 1
            self._start_worker(handle)

    def _handle(self, shard_id: int) -> _ShardHandle:
        try:
            return self._handles[shard_id]
        except KeyError:
            raise ServingError(f"unknown shard id {shard_id}") from None

    # -- the selector loop --------------------------------------------------

    def _collect_loop(self) -> None:
        """Multiplex every worker pipe + process sentinel until stopped."""
        while not self._collector_stop.is_set():
            with self._lock:
                by_object = {}
                for handle in self._handles.values():
                    if handle.alive:
                        entry = (handle, handle.generation)
                        by_object[handle.conn] = entry
                        by_object[handle.process.sentinel] = entry
            if not by_object:
                time.sleep(0.01)
                continue
            for obj in connection_wait(list(by_object), timeout=0.05):
                handle, generation = by_object[obj]
                if obj is handle.conn:
                    try:
                        message = recv_frame(handle.conn)
                    except (EOFError, OSError, WireProtocolError) as exc:
                        self._mark_dead(
                            handle, f"pipe broke: {exc}", generation
                        )
                        continue
                    self._dispatch(handle, message)
                else:
                    self._mark_dead(
                        handle, "worker process exited", generation
                    )

    def _dispatch(self, handle: _ShardHandle, message: object) -> None:
        """Resolve one worker frame against the pending-future table."""
        if isinstance(message, Hello):
            handle.ready = True
            handle.pid = message.pid
            handle.config = message.config
        elif isinstance(message, ScriptDone):
            with self._lock:
                future = handle.pending.pop(message.request_id, None)
                handle.completed += 1
            if future is not None:
                if future.set_running_or_notify_cancel():
                    future.set_result(message)
                self.admission.release()
        elif isinstance(message, ScriptFailed):
            with self._lock:
                future = handle.pending.pop(message.request_id, None)
            if future is not None:
                if future.set_running_or_notify_cancel():
                    future.set_exception(
                        ServingError(
                            f"shard {handle.shard_id} failed the script "
                            f"for session {message.session_id}: "
                            f"{message.error_kind}: {message.message}"
                        )
                    )
                self.admission.release()
        elif isinstance(message, (Pong, ShutdownAck)):
            # Liveness / drain acks carry no future to resolve; the
            # shutdown path reads its ack synchronously off-collector.
            pass

    # -- submission ---------------------------------------------------------

    def route(self, session_id: int) -> int:
        """The shard id a session is (deterministically) routed to."""
        return self.ring.route(session_id)

    def submit(
        self, script: SessionScript, timeout: float | None = None
    ) -> Future:
        """Admit and route one script; returns a future of ScriptDone.

        The future raises :class:`~repro.errors.ShardCrashError` if the
        owning shard dies first (retryable: respawn and resubmit), or
        :class:`~repro.errors.ServingError` if the script itself failed
        inside the worker.
        """
        with self._lock:
            if self._closed:
                raise ServingError("server is shut down")
        self.admission.admit(timeout=timeout)
        future: Future = Future()
        try:
            with self._lock:
                if self._closed:
                    raise ServingError("server is shut down")
                handle = self._handle(self.route(script.session_id))
                if not handle.alive:
                    raise ShardCrashError(
                        handle.shard_id,
                        f"shard {handle.shard_id} is dead "
                        f"({handle.death_cause}); respawn_shard() first",
                    )
                request_id = next(self._request_ids)
                handle.pending[request_id] = future
                try:
                    send_frame(
                        handle.conn,
                        RunScript(request_id=request_id, script=script),
                    )
                except (OSError, ValueError) as exc:
                    handle.pending.pop(request_id, None)
                    raise ShardCrashError(
                        handle.shard_id,
                        f"shard {handle.shard_id} pipe rejected the "
                        f"script: {exc}",
                    ) from exc
        except BaseException:
            self.admission.release()
            raise
        return future

    def run_workload(
        self,
        scripts: list[SessionScript],
        join_timeout: float = 120.0,
    ) -> WorkloadRunResult:
        """Run every script across the shards; collect one result.

        Mirrors the thread server's ``run_workload`` contract: scripts
        run concurrently across sessions, strictly in order within
        each, and ``join_timeout`` bounds the wait for any one session
        so a wedged shard fails fast instead of hanging.
        """
        wall_start = time.perf_counter()
        futures = [
            self.submit(script, timeout=join_timeout) for script in scripts
        ]
        outcomes: list[ScriptDone] = [
            future.result(timeout=join_timeout) for future in futures
        ]
        wall_seconds = time.perf_counter() - wall_start
        latencies: list[float] = []
        for outcome in outcomes:
            latencies.extend(outcome.latencies)
        return WorkloadRunResult(
            workers=self.shards,
            mode=self.MODE,
            wall_seconds=wall_seconds,
            latencies=latencies,
            row_sets={o.session_id: o.row_sets for o in outcomes},
            simulated_ms={o.session_id: o.simulated_ms for o in outcomes},
            summaries={o.session_id: o.summary for o in outcomes},
            admission=self.admission.stats(),
            call_sim_ms={o.session_id: o.call_sim_ms for o in outcomes},
            shard_assignments={
                script.session_id: self.route(script.session_id)
                for script in scripts
            },
        )

    # -- introspection & lifecycle ------------------------------------------

    def shard_stats(self) -> dict[int, dict]:
        """Per-shard counters: pid, liveness, completions, respawns, and
        the engine config the worker reported at boot."""
        with self._lock:
            return {
                shard_id: {
                    "pid": handle.pid,
                    "alive": handle.alive,
                    "ready": handle.ready,
                    "completed": handle.completed,
                    "pending": len(handle.pending),
                    "respawns": handle.respawns,
                    "death_cause": handle.death_cause,
                    "config": handle.config,
                }
                for shard_id, handle in sorted(self._handles.items())
            }

    def runtime_stats(self) -> dict[str, dict]:
        """Router-level stats: admission counters plus per-shard state."""
        return {
            "admission": self.admission.stats(),
            "shards": {
                f"shard_{sid}": stats for sid, stats in self.shard_stats().items()
            },
        }

    def drain(self, timeout: float = 60.0) -> None:
        """Block until no script is outstanding on any live shard."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                pending = [
                    future
                    for handle in self._handles.values()
                    for future in handle.pending.values()
                ]
            if not pending:
                return
            if time.monotonic() >= deadline:
                raise ServingError(
                    f"drain timed out with {len(pending)} scripts in flight"
                )
            pending[0].exception(timeout=max(0.0, deadline - time.monotonic()))

    def shutdown(self, timeout: float = 30.0) -> None:
        """Graceful teardown: drain, stop workers, reap (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self.drain(timeout=timeout)
        except ServingError:  # pragma: no cover - wedged-shard fallback
            pass
        self._collector_stop.set()
        self._collector.join(timeout=timeout)
        for handle in self._handles.values():
            if not handle.alive:
                continue
            try:
                send_frame(handle.conn, Shutdown())
                deadline = time.monotonic() + timeout
                while time.monotonic() < deadline:
                    if not handle.conn.poll(0.05):
                        continue
                    if isinstance(recv_frame(handle.conn), ShutdownAck):
                        break
            except (EOFError, OSError, WireProtocolError):
                pass
            handle.alive = False
        for handle in self._handles.values():
            if handle.process is None:
                continue
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():  # pragma: no cover - defensive
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ShardedIntegrationServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


__all__ = ["ShardedIntegrationServer"]
