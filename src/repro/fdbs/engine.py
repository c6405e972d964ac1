"""The Database façade: parse, plan, execute, DDL, DML, CALL.

A :class:`Database` may run *costed* (with a
:class:`~repro.sysmodel.machine.Machine`, charging the calibrated
latencies — the integration FDBS of the experiments) or *free* (machine
``None`` — the private databases embedded inside application systems,
whose internal work is accounted through the local-function costs
instead).

Table-function execution is delegated to a pluggable
:class:`FunctionRuntime`; the wrapper layer installs the fenced runtime
that routes A-UDTFs through the controller and charges the Fig. 6 step
costs.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import (
    CatalogError,
    ExecutionError,
    PlanError,
    ReadOnlyFunctionError,
    ReproError,
    SqlError,
    StatementAbortedError,
    TransientFaultError,
    WriteConflictError,
)
from repro.fdbs import ast
from repro.fdbs.authorization import (
    SUPERUSER,
    AuthorizationManager,
    Privilege,
    required_privileges,
)
from repro.fdbs.catalog import (
    Catalog,
    ColumnDef,
    ExternalTableFunction,
    FunctionParam,
    NicknameDef,
    ProcedureDef,
    ServerDef,
    SqlTableFunction,
    TableDef,
    TableFunction,
    WrapperDef,
)
from repro.fdbs.config import EngineConfig
from repro.fdbs.executor import Plan
from repro.fdbs.expr import (
    ColumnSlot,
    EvalContext,
    ExpressionCompiler,
    ParamScope,
    RowLayout,
)
from repro.fdbs.federation import FederationLayer, RemoteEndpoint
from repro.fdbs.functions import normalize_rows
from repro.fdbs.parser import parse_statement
from repro.fdbs.planner import Planner
from repro.fdbs.procedures import ProcedureInterpreter
from repro.fdbs.session import Result, StatementCache
from repro.fdbs.storage import Snapshot, Table, TableVersion, UndoLog
from repro.fdbs.types import coerce_into
from repro.simtime.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.sysmodel.machine import Machine

_MAX_FUNCTION_DEPTH = 32

#: Cardinality feedback: q-errors at or above this threshold recorded by
#: EXPLAIN ANALYZE override the table's planning cardinality and bump
#: the stats epoch (invalidating cached plans).
FEEDBACK_THRESHOLD = 2.0


class _EngineLocal(threading.local):
    """Per-thread execution state of one database."""

    def __init__(self):
        self.function_depth = 0


class FunctionRuntime:
    """Default table-function runtime: direct in-process execution.

    The integration server replaces this with the fenced runtime from
    :mod:`repro.wrapper.udtf_runtime`, which charges the architecture's
    latency costs and enforces the fenced-mode security model.
    """

    def __init__(self, database: "Database"):
        self.database = database

    def invoke(
        self,
        function: TableFunction,
        args: list[object],
        ctx: EvalContext,
    ) -> list[tuple]:
        """Dispatch to the SQL or external invocation path."""
        if isinstance(function, SqlTableFunction):
            return self.invoke_sql(function, args, ctx)
        return self.invoke_external(function, args, ctx)

    def invoke_sql(
        self, function: SqlTableFunction, args: list[object], ctx: EvalContext
    ) -> list[tuple]:
        """Run a SQL I-UDTF body in-process."""
        return self.database.run_sql_function(function, args, trace=ctx.trace)

    def invoke_external(
        self, function: ExternalTableFunction, args: list[object], ctx: EvalContext
    ) -> list[tuple]:
        """Run an external function's implementation in-process."""
        return self.database.run_external_function(function, args)

    def invoke_batch(
        self,
        function: TableFunction,
        args_list: list[list[object]],
        ctx: EvalContext,
    ) -> list[list[tuple]]:
        """Invoke once per argument tuple; one row list per tuple.

        The direct runtime has no fixed per-call overhead to amortize, so
        the default batch is simply a loop — cost-identical to row-at-a-
        time invocation.  The fenced runtime overrides this to share one
        prepare/RMI/finish cycle across the whole batch (the bind-join
        saving).
        """
        return [self.invoke(function, args, ctx) for args in args_list]


class Database:
    """One database instance with its catalog, storage and runtimes.

    ``config`` holds every engine switch (default: the paper's measured
    configuration); keyword ``overrides`` name :class:`EngineConfig`
    fields and are applied on top of it, so
    ``Database("d", optimizer="cost")`` is shorthand for
    ``Database("d", config=EngineConfig(optimizer="cost"))``.
    """

    def __init__(
        self,
        name: str = "FDBS",
        machine: "Machine | None" = None,
        config: EngineConfig | None = None,
        **overrides,
    ):
        self.name = name
        self.machine = machine
        self.catalog = Catalog()
        self.statement_cache = StatementCache()
        self.catalog.runtime_stats_provider = self.runtime_stats
        if machine is not None:
            # The machine-attached database is the integration FDBS: its
            # execution mode namespaces the machine-level result cache.
            machine.execution_mode_provider = lambda: self.config.execution_mode
            machine.extra_stats_providers["mvcc"] = lambda: self.mvcc_stats()
            machine.extra_stats_providers["columnar"] = lambda: self.columnar_stats()
            machine.extra_stats_providers["joins"] = lambda: self.join_stats()
        self.config = EngineConfig()
        self._apply_config(
            replace(self.config if config is None else config, **overrides)
        )
        self._chunk_lock = threading.Lock()
        self._chunk_counters = {"chunks_scanned": 0, "chunks_pruned": 0}
        self._join_lock = threading.Lock()
        self._joins = {
            "joins_hash": 0,
            "joins_merge": 0,
            "joins_indexnlj": 0,
            "joins_nlj": 0,
            "plans_invalidated": 0,
            "midquery_fallbacks": 0,
            "max_q_error_pct": 0,
        }
        self.federation = FederationLayer(self)
        self.function_runtime: FunctionRuntime = FunctionRuntime(self)
        self._undo = UndoLog()
        self._local = _EngineLocal()
        self._function_plan_cache: dict[str, Plan] = {}
        # MVCC snapshot isolation replaces the old database-wide
        # statement lock: readers pin `_published` (an immutable map of
        # every table's current TableVersion) with a single reference
        # read and run lock-free; writers serialize per table on the
        # storage layer's write latches and advance `_published` under
        # the short `_visibility_lock` critical section.
        self._published = Snapshot(0, {})
        self._visibility_lock = threading.Lock()
        self._mvcc_lock = threading.Lock()
        self._mvcc = {
            "snapshots_pinned": 0,
            "versions_published": 0,
            "write_conflicts": 0,
            "retries": 0,
        }
        self._stats_lock = threading.Lock()
        self.statements_executed = 0
        #: Access control (the paper's Sect. 6 future-work item).
        self.authorization = AuthorizationManager()
        self.current_user = SUPERUSER

    # ------------------------------------------------------------------
    # MVCC snapshot plumbing
    # ------------------------------------------------------------------

    def pin_snapshot(self) -> Snapshot:
        """Pin the current database snapshot (lock-free fast path).

        ``_published`` is an immutable object swapped atomically on every
        publish, so reading it once yields a mutually consistent
        TableVersion for every table — no reader/writer blocking.
        """
        snapshot = self._published
        with self._mvcc_lock:
            self._mvcc["snapshots_pinned"] += 1
        return snapshot

    def _publish_version(self, storage: Table, version: TableVersion) -> None:
        """Commit-time visibility: advance the snapshot map to cover the
        newly published table version (installed as each table's
        ``publish_hook``; runs under that table's write latch)."""
        with self._visibility_lock:
            self._published = self._published.successor(storage, version)
        with self._mvcc_lock:
            self._mvcc["versions_published"] += 1

    def _track_storage(self, storage: Table) -> None:
        """Register a new table's storage with the snapshot map."""
        storage.publish_hook = self._publish_version
        with self._visibility_lock:
            self._published = self._published.successor(
                storage, storage.current_version
            )

    def note_conflict_retry(self) -> None:
        """Record one session-level retry of a WriteConflictError."""
        with self._mvcc_lock:
            self._mvcc["retries"] += 1

    def mvcc_stats(self) -> dict[str, int]:
        """MVCC counters (lock-free except the counter latch itself)."""
        with self._mvcc_lock:
            counters = dict(self._mvcc)
        counters["snapshot_epoch"] = self._published.epoch
        return counters

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def reconfigure(self, **changes) -> EngineConfig:
        """Replace the named :class:`EngineConfig` fields; returns the
        new config.

        Every switch takes effect on the next statement: SELECT plans
        are rebuilt per execution (the statement cache holds parsed
        ASTs only, never plans) and function bodies always plan row-
        at-a-time and syntactically.  A new ``chunk_size`` reaches
        every table's storage, whose zone maps rebuild lazily on the
        next checked scan; ``pooling``/``result_cache`` switch the
        machine's warm pool and result cache.
        """
        self._apply_config(replace(self.config, **changes))
        return self.config

    def _apply_config(self, config: EngineConfig) -> None:
        """Install ``config`` and push its two stateful side effects."""
        old = self.config
        runtime = (config.pooling, config.result_cache)
        if runtime != (old.pooling, old.result_cache):
            if self.machine is None:
                raise ExecutionError(
                    "runtime pooling needs a machine-attached database"
                )
            self.machine.configure_runtime(
                pooling=config.pooling, result_cache=config.result_cache
            )
        self.config = config
        for table_def in self.catalog.tables():
            if table_def.storage is not None:
                table_def.storage.chunk_size = config.chunk_size

    def _note_chunks(self, scanned: int, pruned: int) -> None:
        """Accumulate per-scan chunk counters (wired into every table
        scan; zone-map-checked scans report)."""
        with self._chunk_lock:
            self._chunk_counters["chunks_scanned"] += scanned
            self._chunk_counters["chunks_pruned"] += pruned

    def columnar_stats(self) -> dict[str, int]:
        """Chunk and zone-map counters for SYSCAT_RUNTIME_STATS.

        The name refers to the column-chunk storage; the scan counters
        cover zone-map-checked scans in every execution mode.
        """
        with self._chunk_lock:
            counters = dict(self._chunk_counters)
        rebuilds = 0
        sealed = 0
        for table_def in self.catalog.tables():
            storage = table_def.storage
            if storage is not None:
                rebuilds += storage.zone_map_rebuilds
                sealed += storage.chunks_sealed
        counters["zone_map_rebuilds"] = rebuilds
        counters["chunks_sealed"] = sealed
        counters["zone_maps_enabled"] = int(self.config.zone_maps)
        return counters

    def _note_join(self, strategy: str) -> None:
        """Count one built join operator (wired into the planner)."""
        key = f"joins_{strategy}"
        with self._join_lock:
            if key in self._joins:
                self._joins[key] += 1

    def _note_midquery_fallback(self) -> None:
        """Count one adaptive mid-query fallback (wired into the plan)."""
        with self._join_lock:
            self._joins["midquery_fallbacks"] += 1

    def join_stats(self) -> dict[str, int]:
        """Join-strategy and feedback counters for SYSCAT_RUNTIME_STATS."""
        with self._join_lock:
            counters = dict(self._joins)
        counters["stats_epoch"] = self.catalog.stats_epoch
        return counters

    def execute(
        self,
        sql: str,
        params: list[object] | None = None,
        trace: TraceRecorder | None = None,
        snapshot: Snapshot | None = None,
    ) -> Result:
        """Parse and execute one SQL statement.

        Each statement pins a fresh snapshot at entry (statement-level
        snapshot isolation); passing ``snapshot`` explicitly lets tests
        and the serving layer hold a statement against an older epoch.
        """
        with self._stats_lock:
            self.statements_executed += 1
        if self.machine is not None:
            self.machine.ensure_base_services()
            self.machine.clock.advance(self.machine.costs.fdbs_query_base)
        statement = self._parse_cached(sql)
        if snapshot is None:
            snapshot = self.pin_snapshot()
        return self._dispatch(statement, sql, params or [], trace, snapshot)

    def execute_script(self, sql: str) -> list[Result]:
        """Execute a ';'-separated script; returns one Result per statement."""
        from repro.fdbs.parser import parse_script

        results = []
        for statement in parse_script(sql):
            results.append(
                self._dispatch(
                    statement, statement.render(), [], None, self.pin_snapshot()
                )
            )
        return results

    def explain(self, sql: str) -> str:
        """EXPLAIN-style plan tree for a SELECT statement."""
        statement = parse_statement(sql)
        if not isinstance(statement, ast.Select):
            raise PlanError("EXPLAIN supports SELECT statements only")
        snapshot = self.pin_snapshot()
        plan = self._planner().plan_select(statement)
        if self.config.optimizer == "cost":
            from repro.fdbs.optimizer import propagate_estimates

            propagate_estimates(plan)
        header = self._runtime_header() + [f"Snapshot(epoch={snapshot.epoch})"]
        text = plan.explain(mode=self.config.execution_mode)
        return "\n".join(header + [text])

    def configure_faults(self, **kwargs) -> None:
        """Configure the machine's fault-injection harness (see
        :meth:`repro.sysmodel.machine.Machine.configure_faults`)."""
        if self.machine is None:
            raise ExecutionError(
                "fault injection needs a machine-attached database"
            )
        self.machine.configure_faults(**kwargs)

    def runtime_stats(self) -> dict[str, dict[str, int]]:
        """Live counters for SYSCAT_RUNTIME_STATS and the shell's .stats.

        Always includes the statement cache; machine-backed databases add
        the warm runtime pool, the result cache and the RMI channels.
        """
        stats: dict[str, dict[str, int]] = {
            "statement_cache": self.statement_cache.stats()
        }
        if self.machine is not None:
            # The machine reports "mvcc" through its extra-providers
            # registry (see __init__), so .stats consumers of the
            # machine alone see the counters too.
            stats.update(self.machine.runtime_stats())
        else:
            stats["mvcc"] = self.mvcc_stats()
            stats["columnar"] = self.columnar_stats()
            stats["joins"] = self.join_stats()
        # Heterogeneous sources: one component per profiled server.
        stats.update(self.federation.stats())
        return stats

    def _runtime_header(self) -> list[str]:
        """EXPLAIN header line describing pool/cache state.

        Empty (no header at all) while both features are off, so EXPLAIN
        output is unchanged for every existing caller.
        """
        if self.machine is None:
            return []
        pool = self.machine.runtime_pool
        cache = self.machine.result_cache
        if not pool.enabled and not cache.enabled:
            return []
        pool_part = (
            f"pooling=on({len(pool)}/{pool.capacity} warm)"
            if pool.enabled
            else "pooling=off"
        )
        cache_part = (
            f"result_cache=on({len(cache)}/{cache.capacity})"
            if cache.enabled
            else "result_cache=off"
        )
        return [f"Runtime({pool_part}, {cache_part})"]

    def call_procedure(self, name: str, args: list[object]) -> dict[str, object]:
        """CALL a stored procedure; returns its OUT/INOUT values.

        Each statement of the body pins its own snapshot (through
        ``execute``/``execute_select_ast``), so a later statement sees an
        earlier statement's writes — the same read-latest semantics the
        serialized engine had.
        """
        procedure = self.catalog.get_procedure(name)
        return ProcedureInterpreter(self, procedure).call(args)

    def attach_endpoint(
        self,
        server_name: str,
        endpoint: RemoteEndpoint,
        profile=None,
    ) -> None:
        """Attach the remote endpoint object to a created server.

        ``profile`` optionally marks the server as a heterogeneous
        source (a :class:`~repro.fdbs.federation.SourceProfile`): its
        cost constants replace the uniform round-trip pricing and its
        counters surface in SYSCAT_RUNTIME_STATS as ``source:<name>``.
        """
        server = self.catalog.get_server(server_name)
        server.endpoint = endpoint
        server.profile = profile

    def register_external_function(self, function: ExternalTableFunction) -> None:
        """Register a pre-built external table function (A-UDTF)."""
        self.catalog.add_function(function)
        self._invalidate_plans()

    def table_rows(self, name: str) -> list[tuple]:
        """All rows of a base table (testing convenience)."""
        table = self.catalog.get_table(name)
        assert table.storage is not None
        return table.storage.rows()

    # ------------------------------------------------------------------
    # Statement dispatch
    # ------------------------------------------------------------------

    def _parse_cached(self, sql: str) -> ast.Statement:
        # The cached AST is shared by every engine config: the planner
        # only ever rewrites clones of it (pushdown and index selection
        # splice copied conjuncts), so row and batch, syntactic and cost
        # executions all read the same entry.  The namespace folds in
        # the catalog's DDL epoch, so a statement compiled and validated
        # against one schema generation can never be replayed after a
        # concurrent CREATE/DROP changed the catalog underneath it —
        # the entry simply misses and the statement recompiles against
        # the schema its fresh snapshot will actually read.  The stats
        # epoch folds in the same way: RUNSTATS or recorded cardinality
        # feedback bumps it, invalidating every cached statement so the
        # next execution replans against the corrected estimates.
        namespace = f"{self.catalog.ddl_epoch}.{self.catalog.stats_epoch}"
        cached = self.statement_cache.get(sql, namespace=namespace)
        if cached is not None:
            return cached  # type: ignore[return-value]
        if self.machine is not None:
            key = StatementCache.normalize(sql)
            if not self.machine.warmth.statement_is_hot(key):
                self.machine.clock.advance(self.machine.costs.plan_compile)
                self.machine.warmth.note_statement(key)
        statement = parse_statement(sql)
        self.statement_cache.put(sql, statement, namespace=namespace)
        return statement

    def set_current_user(self, name: str) -> None:
        """Switch the session user (must exist; SYSTEM is built in)."""
        self.authorization.require_user(name)
        self.current_user = name.upper()

    def _enforce_authorization(self, statement: ast.Statement) -> None:
        user = self.current_user
        if user == SUPERUSER:
            return
        if isinstance(statement, ast.Explain):
            statement = statement.query  # EXPLAIN needs the query's rights
        if isinstance(
            statement,
            (
                ast.Select,
                ast.Insert,
                ast.Update,
                ast.Delete,
                ast.Call,
            ),
        ):
            for privilege, kind, name in required_privileges(statement, self.catalog):
                if kind == "function" and not self.catalog.has_function(name):
                    continue  # unknown names fail later with CatalogError
                self.authorization.check(privilege, kind, name, user)
            return
        if isinstance(statement, (ast.Commit, ast.Rollback)):
            return
        # Everything else is DDL / grants: superuser only.
        from repro.errors import AuthorizationError

        raise AuthorizationError(
            f"user {user!r} may not execute DDL or grant statements"
        )

    def _dispatch(
        self,
        statement: ast.Statement,
        sql: str,
        params: list[object],
        trace: TraceRecorder | None,
        snapshot: Snapshot,
    ) -> Result:
        self._enforce_authorization(statement)
        if isinstance(statement, ast.Select):
            return self._execute_select(statement, params, trace, snapshot)
        if isinstance(statement, ast.Explain):
            return self._execute_explain(statement, params, trace, snapshot)
        if isinstance(statement, ast.Runstats):
            return self._execute_runstats(statement)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.DropTable):
            dropped = self.catalog.drop_table(statement.name)
            if dropped.storage is not None:
                with self._visibility_lock:
                    self._published = self._published.without(dropped.storage)
            self._invalidate_plans()
            return Result(statement_type="DROP TABLE")
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement, params, trace, snapshot)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement, params, snapshot)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement, params, snapshot)
        if isinstance(statement, ast.CreateSqlFunction):
            return self._execute_create_sql_function(statement)
        if isinstance(statement, ast.CreateExternalFunction):
            return self._execute_create_external_function(statement)
        if isinstance(statement, ast.DropFunction):
            self.catalog.drop_function(statement.name)
            self._invalidate_plans()
            return Result(statement_type="DROP FUNCTION")
        if isinstance(statement, ast.CreateProcedure):
            return self._execute_create_procedure(statement)
        if isinstance(statement, ast.Call):
            return self._execute_call(statement, params)
        if isinstance(statement, ast.CreateWrapper):
            self.catalog.add_wrapper(WrapperDef(statement.name))
            return Result(statement_type="CREATE WRAPPER")
        if isinstance(statement, ast.CreateServer):
            self.catalog.add_server(ServerDef(statement.name, statement.wrapper))
            return Result(statement_type="CREATE SERVER")
        if isinstance(statement, ast.CreateNickname):
            return self._execute_create_nickname(statement)
        if isinstance(statement, ast.CreateView):
            return self._execute_create_view(statement)
        if isinstance(statement, ast.DropView):
            self.catalog.drop_view(statement.name)
            self._invalidate_plans()
            return Result(statement_type="DROP VIEW")
        if isinstance(statement, ast.CreateUser):
            self.authorization.create_user(statement.name)
            return Result(statement_type="CREATE USER")
        if isinstance(statement, ast.Grant):
            return self._execute_grant_revoke(statement, grant=True)
        if isinstance(statement, ast.Revoke):
            return self._execute_grant_revoke(statement, grant=False)
        if isinstance(statement, ast.Commit):
            self._undo.clear()
            return Result(statement_type="COMMIT")
        if isinstance(statement, ast.Rollback):
            self._undo.rollback()
            return Result(statement_type="ROLLBACK")
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    def _execute_explain(
        self,
        statement: ast.Explain,
        params: list[object],
        trace: TraceRecorder | None,
        snapshot: Snapshot,
    ) -> Result:
        """EXPLAIN [ANALYZE]: plan tree with cost-mode cardinality
        estimates; ANALYZE also drains the plan exactly as a plain
        execution would and reports the actual row count per operator."""
        plan = self._planner().plan_select(statement.query)
        if self.config.optimizer == "cost":
            from repro.fdbs.optimizer import propagate_estimates

            propagate_estimates(plan)
        if statement.analyze:
            from repro.fdbs.optimizer import instrument_plan

            instrument_plan(plan)
            ctx = EvalContext(params=params, trace=trace, snapshot=snapshot)
            rows = plan.rows(ctx, self.config.chunk_size)
            if self.machine is not None:
                self.machine.clock.advance(
                    self.machine.costs.fdbs_row_cost * len(rows)
                )
            if self.config.optimizer == "cost":
                self._ingest_feedback(plan)
        lines = (
            self._runtime_header()
            + [f"Snapshot(epoch={snapshot.epoch})"]
            + plan.explain(mode=self.config.execution_mode).splitlines()
        )
        return Result(
            columns=["PLAN"],
            rows=[(line,) for line in lines],
            rowcount=len(lines),
            statement_type="EXPLAIN",
        )

    def _ingest_feedback(self, plan) -> None:
        """Cardinality feedback from an EXPLAIN ANALYZE execution.

        Every instrumented base-table or remote scan is compared against
        its planning estimate; a q-error at or past the feedback
        threshold records the observed cardinality as the table's
        planning override and bumps the stats epoch, invalidating every
        cached statement so the next execution replans.  Feedback only
        refines *existing* RUNSTATS — with no statistics recorded the
        optimizer gate already falls back to syntactic plans, and
        feedback must not change that.
        """
        from repro.fdbs.optimizer import collect_feedback
        from repro.fdbs.stats import StatsFeedback

        for table, estimated, observed, error in collect_feedback(plan):
            with self._join_lock:
                pct = int(round(error * 100))
                if pct > self._joins["max_q_error_pct"]:
                    self._joins["max_q_error_pct"] = pct
            if error < FEEDBACK_THRESHOLD:
                continue
            before = self.catalog.stats_epoch
            after = self.catalog.record_feedback(
                StatsFeedback(
                    table=table,
                    estimated=estimated,
                    observed=observed,
                    q_error=error,
                )
            )
            if after != before:
                with self._join_lock:
                    self._joins["plans_invalidated"] += 1

    def _execute_runstats(self, statement: ast.Runstats) -> Result:
        """RUNSTATS <table>: scan the table (or nickname) and store row
        count, per-column distinct counts and min/max in the catalog."""
        from repro.fdbs.stats import collect_stats

        name = statement.table
        if self.catalog.has_table(name):
            table = self.catalog.get_table(name)
            if table.storage is None:
                raise ExecutionError(
                    f"table {name!r} has no storage attached; cannot RUNSTATS"
                )
            columns = list(table.columns)
            rows = table.storage.rows()
            stored_name = table.name
        elif self.catalog.has_nickname(name):
            nickname = self.catalog.get_nickname(name)
            fetcher, column_defs = self.federation.fetcher_for(nickname)
            columns = list(column_defs)
            rows = fetcher.fetch(None, None)
            stored_name = nickname.name
        else:
            raise CatalogError(f"unknown table or nickname {name!r} in RUNSTATS")
        if self.machine is not None:
            self.machine.clock.advance(
                self.machine.costs.runstats_base
                + self.machine.costs.runstats_row_cost * len(rows)
            )
        self.catalog.set_statistics(collect_stats(stored_name, columns, rows))
        return Result(rowcount=len(rows), statement_type="RUNSTATS")

    def _invalidate_plans(self) -> None:
        # The epoch bump is what *guarantees* staleness safety (every
        # compiled-plan cache folds it into its keys); the explicit
        # clears just reclaim the now-unreachable entries eagerly.
        self.catalog.note_ddl()
        self.statement_cache.invalidate()
        self._function_plan_cache.clear()

    def _execute_grant_revoke(self, statement, grant: bool) -> Result:
        kind = statement.kind or self._infer_object_kind(statement.object_name)
        for privilege_name in statement.privileges:
            privilege = Privilege(privilege_name.upper())
            if grant:
                self.authorization.grant(
                    privilege, kind, statement.object_name, statement.grantee
                )
            else:
                self.authorization.revoke(
                    privilege, kind, statement.object_name, statement.grantee
                )
        return Result(statement_type="GRANT" if grant else "REVOKE")

    def _infer_object_kind(self, name: str) -> str:
        if self.catalog.has_function(name):
            return "function"
        if self.catalog.has_procedure(name):
            return "procedure"
        if (
            self.catalog.has_table(name)
            or self.catalog.has_nickname(name)
            or self.catalog.has_view(name)
        ):
            return "table"
        raise CatalogError(f"unknown object {name!r} in GRANT/REVOKE")

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def _planner(
        self, params: ParamScope | None = None, config: EngineConfig | None = None
    ) -> Planner:
        machine = self.machine
        return Planner(
            self.catalog,
            invoker=self._invoke_table_function,
            config=config or self.config,
            remote_fetcher=self.federation.fetcher_for,
            params=params,
            costs=machine.costs if machine is not None else None,
            charge=(machine.clock.advance if machine is not None else None),
            pushdown_counter=self.federation,
            statistics=self.catalog.planning_statistics,
            batch_invoker=self._invoke_table_function_batch,
            chunk_note=self._note_chunks,
            join_counter=self._note_join,
            adaptive_note=self._note_midquery_fallback,
        )

    def _invoke_table_function(
        self, function: TableFunction, args: list[object], ctx: EvalContext
    ) -> list[tuple]:
        coerced = [
            coerce_into(value, param.type)
            for value, param in zip(args, function.params)
        ]
        try:
            rows = self.function_runtime.invoke(function, coerced, ctx)
        except TransientFaultError as exc:
            # A fault that survived every site-level retry reaches the
            # FDBS executor, which has no recovery state of its own: the
            # whole statement aborts (the paper's robustness asymmetry —
            # only the WfMS path can absorb failures below this line).
            raise StatementAbortedError(
                f"statement aborted: table function {function.name} failed "
                f"at {exc.site}: {exc}"
            ) from exc
        return self._coerce_result_rows(function, rows)

    def _invoke_table_function_batch(
        self,
        function: TableFunction,
        args_list: list[list[object]],
        ctx: EvalContext,
    ) -> list[list[tuple]]:
        """Batched invocation for UDTF bind joins: one runtime call for
        all distinct argument tuples (the fenced runtime amortizes its
        fixed prepare/RMI/finish overheads across the batch)."""
        coerced_lists = [
            [
                coerce_into(value, param.type)
                for value, param in zip(args, function.params)
            ]
            for args in args_list
        ]
        try:
            results = self.function_runtime.invoke_batch(
                function, coerced_lists, ctx
            )
        except TransientFaultError as exc:
            raise StatementAbortedError(
                f"statement aborted: table function {function.name} failed "
                f"at {exc.site}: {exc}"
            ) from exc
        return [self._coerce_result_rows(function, rows) for rows in results]

    def _coerce_result_rows(
        self, function: TableFunction, rows: Iterable[tuple]
    ) -> list[tuple]:
        returns = function.returns
        coerced: list[tuple] = []
        for row in rows:
            if len(row) != len(returns):
                raise ExecutionError(
                    f"function {function.name} declared {len(returns)} result "
                    f"column(s) but produced a row of width {len(row)}"
                )
            coerced.append(
                tuple(
                    coerce_into(value, column.type)
                    for value, column in zip(row, returns)
                )
            )
        if self.machine is not None and coerced:
            self.machine.clock.advance(
                self.machine.costs.udtf_row_overhead * len(coerced)
            )
        return coerced

    def _execute_select(
        self,
        statement: ast.Select,
        params: list[object],
        trace: TraceRecorder | None,
        snapshot: Snapshot,
    ) -> Result:
        config = self.config
        plan = self._planner(config=config).plan_select(statement)
        ctx = EvalContext(params=params, trace=trace, snapshot=snapshot)
        rows = plan.rows(ctx, config.chunk_size)
        if self.machine is not None:
            self.machine.clock.advance(self.machine.costs.fdbs_row_cost * len(rows))
        return Result(
            columns=[slot.name for slot in plan.schema],
            rows=rows,
            rowcount=len(rows),
        )

    def execute_select_ast(
        self, statement: ast.Select, params: list[object] | None = None
    ) -> Result:
        """Execute an already-parsed SELECT (used by the PSM interpreter)."""
        return self._execute_select(statement, params or [], None, self.pin_snapshot())

    # ------------------------------------------------------------------
    # Table functions
    # ------------------------------------------------------------------

    def run_sql_function(
        self,
        function: SqlTableFunction,
        args: list[object],
        trace: TraceRecorder | None = None,
    ) -> list[tuple]:
        """Execute the single-statement body of a SQL I-UDTF.

        The body is itself one statement, so it pins its own fresh
        snapshot — nested invocations read the latest published state
        exactly as they did under the serialized engine.
        """
        if self._local.function_depth >= _MAX_FUNCTION_DEPTH:
            raise ExecutionError(
                f"table-function recursion deeper than {_MAX_FUNCTION_DEPTH} "
                f"while invoking {function.name}"
            )
        plan_key = f"{function.name.upper()}@{self.catalog.ddl_epoch}"
        plan = self._function_plan_cache.get(plan_key)
        if plan is None:
            if self.machine is not None:
                key = f"FUNCTION:{function.name.upper()}"
                if not self.machine.warmth.statement_is_hot(key):
                    self.machine.clock.advance(self.machine.costs.plan_compile)
                    self.machine.warmth.note_statement(key)
            scope = ParamScope(
                qualifier=function.name,
                names={
                    param.name.upper(): (index, param.type)
                    for index, param in enumerate(function.params)
                },
            )
            # UDTF bodies always plan with per-row closures and
            # syntactically (they run through ``batches()`` like every
            # plan): fenced invocation semantics and the per-row
            # simulated cost charges must stay bit-identical regardless
            # of the session's mode, and cached body plans must not
            # depend on statistics collected later.
            plan = self._planner(
                scope,
                replace(self.config, execution_mode="row", optimizer="syntactic"),
            ).plan_select(function.body)
            if len(plan.schema) != len(function.returns):
                raise PlanError(
                    f"body of {function.name} produces {len(plan.schema)} "
                    f"column(s), declaration says {len(function.returns)}"
                )
            self._function_plan_cache[plan_key] = plan
        self._local.function_depth += 1
        try:
            ctx = EvalContext(
                params=args, trace=trace, snapshot=self.pin_snapshot()
            )
            return plan.rows(ctx, self.config.chunk_size)
        finally:
            self._local.function_depth -= 1

    def run_external_function(
        self, function: ExternalTableFunction, args: list[object]
    ) -> list[tuple]:
        """Execute an external function's registered implementation.

        Backend failures surface as
        :class:`~repro.errors.ExecutionError` — the statement fails with
        an engine error, never with a raw implementation exception.
        """
        if function.implementation is None:
            raise ExecutionError(
                f"external function {function.name} ({function.external_name}) "
                "has no implementation bound; use bind_external() or "
                "register_external_function()"
            )
        try:
            result = function.implementation(*args)
        except ReproError:
            raise
        except Exception as exc:
            raise ExecutionError(
                f"external function {function.name} failed: {exc}"
            ) from exc
        return normalize_rows(result, function.name)

    def bind_external(
        self, name: str, implementation: Callable[..., object]
    ) -> None:
        """Bind the implementation of a declared external function."""
        function = self.catalog.get_function(name)
        if not isinstance(function, ExternalTableFunction):
            raise CatalogError(f"{name!r} is not an external function")
        function.implementation = implementation

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def _execute_create_table(self, statement: ast.CreateTable) -> Result:
        columns = []
        primary_key = list(statement.primary_key)
        for spec in statement.columns:
            columns.append(
                ColumnDef(
                    spec.name,
                    spec.type,
                    not_null=spec.not_null or spec.primary_key,
                )
            )
            if spec.primary_key:
                primary_key.append(spec.name)
        if len(primary_key) != len({k.upper() for k in primary_key}):
            raise CatalogError(
                f"duplicate primary-key column in table {statement.name!r}"
            )
        table = TableDef(statement.name, columns, primary_key)
        table.storage = Table(
            statement.name, columns, primary_key, chunk_size=self.config.chunk_size
        )
        self.catalog.add_table(table)
        self._track_storage(table.storage)
        self._invalidate_plans()
        return Result(statement_type="CREATE TABLE")

    def _execute_create_sql_function(self, statement: ast.CreateSqlFunction) -> Result:
        function = SqlTableFunction(
            name=statement.name,
            params=[FunctionParam(p.name, p.type) for p in statement.params],
            returns=[ColumnDef(n, t) for n, t in statement.returns_table],
            body=statement.body,
            deterministic=statement.deterministic,
        )
        self.catalog.add_function(function)
        self._invalidate_plans()
        return Result(statement_type="CREATE FUNCTION")

    def _execute_create_external_function(
        self, statement: ast.CreateExternalFunction
    ) -> Result:
        function = ExternalTableFunction(
            name=statement.name,
            params=[FunctionParam(p.name, p.type) for p in statement.params],
            returns=[ColumnDef(n, t) for n, t in statement.returns_table],
            external_name=statement.external_name,
            language=statement.language,
            fenced=statement.fenced,
            deterministic=statement.deterministic,
        )
        self.catalog.add_function(function)
        self._invalidate_plans()
        return Result(statement_type="CREATE FUNCTION")

    def _execute_create_procedure(self, statement: ast.CreateProcedure) -> Result:
        procedure = ProcedureDef(
            name=statement.name,
            params=[FunctionParam(p.name, p.type, p.mode) for p in statement.params],
            body=statement.body,
        )
        self.catalog.add_procedure(procedure)
        return Result(statement_type="CREATE PROCEDURE")

    def _execute_create_view(self, statement: ast.CreateView) -> Result:
        from repro.fdbs.catalog import ViewDef

        # Bind-time validation: the body must plan, and a declared
        # column list must match the body's width.
        plan = self._planner().plan_select(statement.body)
        if statement.columns is not None and len(statement.columns) != len(
            plan.schema
        ):
            raise PlanError(
                f"view {statement.name!r} declares {len(statement.columns)} "
                f"column(s) but its body produces {len(plan.schema)}"
            )
        self.catalog.add_view(
            ViewDef(statement.name, statement.columns, statement.body)
        )
        self._invalidate_plans()
        return Result(statement_type="CREATE VIEW")

    def _execute_create_nickname(self, statement: ast.CreateNickname) -> Result:
        nickname = NicknameDef(statement.name, statement.server, statement.remote_name)
        self.catalog.add_nickname(nickname)
        self.federation.resolve_columns(nickname)
        self._invalidate_plans()
        return Result(statement_type="CREATE NICKNAME")

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _require_writable_target(self, name: str) -> TableDef:
        if self.catalog.has_function(name):
            raise ReadOnlyFunctionError(
                f"{name!r} is a table function; UDTFs support read access "
                "only — inserts, deletes and updates cannot be propagated"
            )
        if self.catalog.has_nickname(name):
            raise ExecutionError(
                f"nickname {name!r} is read-only in this reproduction"
            )
        if self.catalog.has_view(name):
            raise ExecutionError(f"view {name!r} is read-only")
        return self.catalog.get_table(name)

    def _execute_insert(
        self,
        statement: ast.Insert,
        params: list[object],
        trace: TraceRecorder | None,
        snapshot: Snapshot,
    ) -> Result:
        table = self._require_writable_target(statement.table)
        assert table.storage is not None
        if statement.columns is not None:
            positions = [table.column_index(c) for c in statement.columns]
        else:
            positions = list(range(len(table.columns)))

        if statement.source is not None:
            source_result = self._execute_select(
                statement.source, params, trace, snapshot
            )
            incoming = source_result.rows
            width = len(source_result.columns)
        else:
            assert statement.rows is not None
            compiler = ExpressionCompiler(RowLayout([]))
            ctx = EvalContext(params=params, trace=trace, snapshot=snapshot)
            incoming = []
            width = len(positions)
            for row_exprs in statement.rows:
                if len(row_exprs) != len(positions):
                    raise ExecutionError(
                        f"INSERT expects {len(positions)} values per row, "
                        f"got {len(row_exprs)}"
                    )
                incoming.append(
                    tuple(compiler.compile(e)((), ctx) for e in row_exprs)
                )
        if width != len(positions):
            raise ExecutionError(
                f"INSERT column count {len(positions)} does not match source "
                f"width {width}"
            )
        count = 0
        # Appends never first-writer-conflict (expected=None): concurrent
        # inserters interleave safely under the latch, and genuine
        # collisions surface as the primary-key ConstraintError they are.
        with table.storage.write_transaction():
            for incoming_row in incoming:
                full_row: list[object] = [None] * len(table.columns)
                for position, value in zip(positions, incoming_row):
                    full_row[position] = value
                table.storage.insert(full_row, undo=self._undo)
                count += 1
        return Result(rowcount=count, statement_type="INSERT")

    def _dml_layout(self, table: TableDef) -> RowLayout:
        return RowLayout(
            [ColumnSlot(table.name, c.name, c.type) for c in table.columns]
        )

    def _write_transaction(self, storage: Table, snapshot: Snapshot):
        """A first-writer-wins write latch scope for UPDATE/DELETE.

        The expected version is the statement's pinned one; unknown
        tables (created after the snapshot was pinned) skip the check —
        there is nothing an earlier reader could have validated against.
        """
        return storage.write_transaction(expected=snapshot.version_for(storage))

    def _execute_update(
        self, statement: ast.Update, params: list[object], snapshot: Snapshot
    ) -> Result:
        table = self._require_writable_target(statement.table)
        assert table.storage is not None
        layout = self._dml_layout(table)
        compiler = ExpressionCompiler(layout, subquery_compiler=self._subquery_for_dml)
        # No snapshot in the DML context: predicate and assignment
        # evaluation (including subqueries) read the latest published
        # state so they observe this statement's own earlier writes,
        # exactly as under the serialized engine.  The pinned snapshot
        # is the statement's *validation* point, not its read point.
        ctx = EvalContext(params=params)
        try:
            with self._write_transaction(table.storage, snapshot):
                assignments = [
                    (table.column_index(column), compiler.compile(expr))
                    for column, expr in statement.assignments
                ]
                predicate = (
                    compiler.compile(statement.where)
                    if statement.where is not None
                    else None
                )
                touched: list[tuple[int, tuple]] = []
                for rid, row in table.storage.scan():
                    if predicate is None or predicate(row, ctx) is True:
                        touched.append((rid, row))
                for rid, row in touched:
                    new_row = list(row)
                    for position, expr in assignments:
                        new_row[position] = expr(row, ctx)
                    table.storage.update_rid(rid, new_row, undo=self._undo)
        except WriteConflictError:
            with self._mvcc_lock:
                self._mvcc["write_conflicts"] += 1
            raise
        return Result(rowcount=len(touched), statement_type="UPDATE")

    def _execute_delete(
        self, statement: ast.Delete, params: list[object], snapshot: Snapshot
    ) -> Result:
        table = self._require_writable_target(statement.table)
        assert table.storage is not None
        layout = self._dml_layout(table)
        compiler = ExpressionCompiler(layout, subquery_compiler=self._subquery_for_dml)
        ctx = EvalContext(params=params)
        try:
            with self._write_transaction(table.storage, snapshot):
                predicate = (
                    compiler.compile(statement.where)
                    if statement.where is not None
                    else None
                )
                doomed = [
                    rid
                    for rid, row in table.storage.scan()
                    if predicate is None or predicate(row, ctx) is True
                ]
                for rid in doomed:
                    table.storage.delete_rid(rid, undo=self._undo)
        except WriteConflictError:
            with self._mvcc_lock:
                self._mvcc["write_conflicts"] += 1
            raise
        return Result(rowcount=len(doomed), statement_type="DELETE")

    def _subquery_for_dml(self, select: ast.Select):
        plan = self._planner().plan_select(select)
        size = self.config.chunk_size

        def run(ctx: EvalContext) -> list[tuple]:
            return plan.rows(ctx, size)

        return run

    # ------------------------------------------------------------------
    # CALL
    # ------------------------------------------------------------------

    def _execute_call(self, statement: ast.Call, params: list[object]) -> Result:
        if self.catalog.has_function(statement.name):
            raise SqlError(
                f"{statement.name!r} is a function; reference it in a FROM "
                "clause — CALL is only valid for stored procedures"
            )
        compiler = ExpressionCompiler(RowLayout([]))
        ctx = EvalContext(params=params)
        args = [compiler.compile(a)((), ctx) for a in statement.args]
        out = self.call_procedure(statement.name, args)
        return Result(out_params=out, statement_type="CALL")
