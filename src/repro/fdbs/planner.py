"""Query planner: AST → executable plan.

The FROM clause is planned as a *lateral fold*, left to right, exactly
like the paper's host DBMS: each ``TABLE (f(args)) AS a`` item may
reference columns of items to its left (and the enclosing function's
parameters), never items to its right.  A forward reference produces a
:class:`~repro.errors.PlanError`; a *mutual* reference between two table
functions produces :class:`~repro.errors.CyclicDependencyError` — the
formal reason the paper's Sect. 3 table marks the cyclic case "not
supported" for the UDTF architecture.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import (
    CallOnlyProcedureError,
    CatalogError,
    CyclicDependencyError,
    PlanError,
    TypeError_,
)
from repro.fdbs import ast
from repro.fdbs.catalog import Catalog, ColumnDef, NicknameDef
from repro.fdbs.config import EngineConfig
from repro.fdbs.executor import (
    BATCH_SIZE,
    MAX_BIND_KEYS,
    AdaptiveRemoteJoinPlan,
    AggregatePlan,
    AggregateSpec,
    CrossApplyPlan,
    CutPlan,
    DistinctPlan,
    FilterPlan,
    FunctionInvoker,
    HashJoinPlan,
    IndexNestedLoopJoinPlan,
    LimitPlan,
    MergeJoinPlan,
    NestedLoopJoinPlan,
    Plan,
    ProjectPlan,
    RemoteBindJoinPlan,
    RemoteScanPlan,
    SortPlan,
    StaticRightSide,
    TableFunctionRightSide,
    TableScanPlan,
    UdtfBindJoinPlan,
    UnionPlan,
    UnitPlan,
)
from repro.fdbs.expr import (
    BatchCompiler,
    BatchFn,
    ColumnSlot,
    CompiledExpr,
    EvalContext,
    ExpressionCompiler,
    ParamScope,
    RowLayout,
    contains_aggregate,
    hash_join_compatible,
    is_aggregate_call,
    map_rows,
    order_join_compatible,
)
from repro.fdbs.types import SqlType, implicitly_castable, is_numeric

RemoteFetcher = Callable[
    [NicknameDef], tuple[Callable[[EvalContext], list[tuple]], list[ColumnDef]]
]


class Planner:
    """Plans SELECT statements against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        invoker: FunctionInvoker,
        config: EngineConfig = EngineConfig(),
        remote_fetcher: RemoteFetcher | None = None,
        params: ParamScope | None = None,
        costs: "object | None" = None,
        charge: Callable[[float], None] | None = None,
        pushdown_counter=None,
        statistics: "Callable[[str], object | None] | None" = None,
        batch_invoker=None,
        chunk_note: Callable[[int, int], None] | None = None,
        join_counter: Callable[[str], None] | None = None,
        adaptive_note: Callable[[], None] | None = None,
    ):
        self.catalog = catalog
        self.invoker = invoker
        #: The engine switches this plan honours: execution mode,
        #: optimizer, join strategy, adaptive factor, zone maps,
        #: pushdown and index selection.
        self.config = config
        self.remote_fetcher = remote_fetcher
        self.params = params or ParamScope()
        #: Cost model + charge hook for composition overheads (None for
        #: cost-free databases, e.g. app-system internals).
        self.costs = costs
        self.charge = charge
        self.pushdown_counter = pushdown_counter
        #: RUNSTATS snapshot lookup: table name -> TableStats | None.
        self.statistics = statistics
        #: Batched table-function invoker for UDTF bind joins (the
        #: fenced runtime amortizes fixed per-call overheads).
        self.batch_invoker = batch_invoker
        #: Callback ``(chunks_scanned, chunks_pruned)`` wired into every
        #: table scan for the database's chunk runtime counters (scans
        #: with zone-map checks read chunks and report).
        self.chunk_note = chunk_note
        #: Callback ``(strategy)`` counting built join operators into
        #: the database's runtime statistics.
        self.join_counter = join_counter
        #: Callback wired into adaptive joins: fires when the mid-query
        #: fallback from ship-all to bind join actually triggers.
        self.adaptive_note = adaptive_note
        self._view_stack: list[str] = []

    def _chunk(
        self,
        compiler: ExpressionCompiler,
        expr: ast.Expression,
        compiled: CompiledExpr,
    ) -> BatchFn:
        """The chunk closure an operator evaluates ``expr`` through:
        vectorized in batch mode, the row closure ``compiled`` (``expr``
        compiled by ``compiler``) mapped over the chunk otherwise."""
        if self.config.execution_mode == "batch":
            return BatchCompiler(compiler).compile(expr, compiled)
        return map_rows(compiled.fn)

    # -- public API -----------------------------------------------------------

    def plan_select(self, select: ast.Select) -> Plan:
        """Plan a full SELECT including UNION branches and ORDER BY."""
        if not select.union:
            # Single query block: ORDER BY may also reference columns
            # that are not in the select list (hidden sort keys).
            return self._plan_query_block(select, top_level=True)
        plan = self._plan_query_block(select)
        branches = [plan]
        for _, branch_ast in select.union:
            branches.append(self._plan_query_block(branch_ast))
        all_ = all(is_all for is_all, _ in select.union)
        if any(is_all for is_all, _ in select.union) and not all_:
            raise PlanError("mixing UNION and UNION ALL is not supported")
        plan = UnionPlan(branches, all_)
        if select.order_by:
            plan = self._plan_order_by(plan, select)
        if select.limit is not None:
            plan = LimitPlan(plan, select.limit)
        return plan

    # -- query block -------------------------------------------------------------

    def _plan_query_block(self, select: ast.Select, top_level: bool = False) -> Plan:
        decisions = None
        config = self.config
        if config.optimizer == "cost":
            from repro.fdbs.optimizer import plan_decisions

            decisions = plan_decisions(
                select,
                self.catalog,
                self.statistics or (lambda name: None),
                self.costs,
                federation=(
                    self.pushdown_counter
                    if hasattr(self.pushdown_counter, "profile_for")
                    else None
                ),
                join_strategy=config.join_strategy,
                adaptive_factor=config.adaptive_factor,
            )
        plan, layout, remote_candidates, local_scans, consumed, prunable = (
            self._plan_from(select, decisions)
        )
        compiler = self._compiler(layout)

        where = select.where
        if where is not None and contains_aggregate(where):
            raise PlanError("aggregates are not allowed in WHERE")
        if consumed and where is not None:
            # Bind joins applied these equi-conjuncts during the FROM
            # fold; re-evaluating them in the filter would be redundant.
            from repro.fdbs.pushdown import recombine, split_conjuncts

            where = recombine(
                [
                    conjunct
                    for conjunct in split_conjuncts(where)
                    if not any(conjunct is used for used in consumed)
                ]
            )
        had_remote = bool(remote_candidates)
        if config.pushdown and remote_candidates:
            from repro.fdbs.pushdown import push_predicates

            where = push_predicates(where, remote_candidates, self.pushdown_counter)
        if config.index_selection and local_scans and where is not None:
            where = self._select_indexes(where, layout, local_scans)
        if where is not None:
            self._attach_zone_checks(where, layout, prunable)
            input_est = plan.est_rows
            plan = FilterPlan(
                plan,
                self._chunk(compiler, where, compiler.compile(where)),
                "Filter(WHERE)",
            )
            if had_remote and config.pushdown:
                from repro.fdbs.pushdown import split_conjuncts

                plan.residual_texts = [
                    conjunct.render() for conjunct in split_conjuncts(where)
                ]
            if decisions is not None and input_est is not None:
                plan.est_rows = max(
                    1, round(input_est * decisions.local_selectivity)
                )

        items = self._expand_stars(select.items, layout)
        needs_aggregate = (
            bool(select.group_by)
            or any(contains_aggregate(item.expr) for item in items)
            or (select.having is not None and contains_aggregate(select.having))
        )
        if select.having is not None and not needs_aggregate:
            raise PlanError("HAVING requires GROUP BY or aggregates")

        order_by = select.order_by
        if needs_aggregate:
            plan, layout, items, having, order_by = self._plan_aggregate(
                plan, layout, compiler, select, items
            )
            compiler = self._compiler(layout)
            if having is not None:
                plan = FilterPlan(
                    plan,
                    self._chunk(compiler, having, compiler.compile(having)),
                    "Filter(HAVING)",
                )

        exprs: list[BatchFn] = []
        schema: list[ColumnSlot] = []
        for position, item in enumerate(items):
            compiled = compiler.compile(item.expr)
            exprs.append(self._chunk(compiler, item.expr, compiled))
            # Keep the source alias on plain column projections so ORDER BY
            # may still use qualified names after projection.
            alias = None
            if isinstance(item.expr, ast.ColumnRef) and item.alias is None:
                resolved = layout.resolve(item.expr.qualifier, item.expr.name)
                if resolved is not None:
                    alias = resolved[1].alias
            schema.append(
                ColumnSlot(alias, self._output_name(item, position), compiled.type)
            )

        if top_level and order_by:
            plan = self._project_and_sort(
                plan, layout, exprs, schema, select, order_by
            )
        else:
            plan = ProjectPlan(plan, exprs, schema)

        if select.distinct:
            plan = DistinctPlan(plan)
        if top_level and select.limit is not None:
            plan = LimitPlan(plan, select.limit)
        return plan

    def _project_and_sort(
        self,
        plan: Plan,
        layout: RowLayout,
        exprs: list[BatchFn],
        schema: list[ColumnSlot],
        select: ast.Select,
        order_by: list[ast.OrderItem],
    ) -> Plan:
        """Projection + ORDER BY for a single query block.

        Sort keys resolve against the *output* schema first (select
        aliases, qualified projections) and fall back to the input
        layout as hidden trailing columns — which is how ``SELECT name
        FROM t ORDER BY relia`` works without projecting ``relia``.
        ``order_by`` is the block's ORDER BY, already rewritten over the
        aggregate's output columns when the block aggregates.
        """
        width = len(schema)
        out_compiler = self._compiler(RowLayout(schema))
        input_compiler = self._compiler(layout)
        keys: list[tuple] = []
        hidden_slots: list[ColumnSlot] = []
        hidden_fns: list[BatchFn] = []
        for order_item in order_by:
            expr = order_item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                index = expr.value - 1
                if not (0 <= index < width):
                    raise PlanError(
                        f"ORDER BY position {expr.value} is out of range"
                    )
                keys.append((index, order_item.ascending))
                continue
            try:
                compiled = out_compiler.compile(expr)
            except PlanError:
                pass
            else:
                keys.append(
                    (self._chunk(out_compiler, expr, compiled), order_item.ascending)
                )
                continue
            # Hidden sort key over the pre-projection layout.
            if select.distinct:
                raise PlanError(
                    "ORDER BY over non-selected columns cannot be combined "
                    "with DISTINCT"
                )
            compiled = input_compiler.compile(expr)
            keys.append((width + len(hidden_fns), order_item.ascending))
            hidden_slots.append(
                ColumnSlot(None, f"$k{len(hidden_fns)}", compiled.type)
            )
            hidden_fns.append(self._chunk(input_compiler, expr, compiled))
        if hidden_fns:
            plan = ProjectPlan(plan, exprs + hidden_fns, schema + hidden_slots)
            return CutPlan(SortPlan(plan, keys), width, schema)
        return SortPlan(ProjectPlan(plan, exprs, schema), keys)

    def _expand_stars(
        self, items: list[ast.SelectItem], layout: RowLayout
    ) -> list[ast.SelectItem]:
        """Expand ``*`` and ``alias.*`` select items into column refs."""
        expanded: list[ast.SelectItem] = []
        for item in items:
            if not isinstance(item.expr, ast.Star):
                expanded.append(item)
                continue
            qualifier = item.expr.qualifier
            if qualifier is not None and qualifier.upper() not in layout.aliases():
                raise PlanError(f"unknown correlation name {qualifier!r} in select list")
            matched = False
            for slot in layout.slots:
                if qualifier is None or (slot.alias or "").upper() == qualifier.upper():
                    expanded.append(
                        ast.SelectItem(ast.ColumnRef(slot.alias, slot.name))
                    )
                    matched = True
            if not matched:
                raise PlanError("'*' found nothing to expand in the FROM clause")
        return expanded

    def _output_name(self, item: ast.SelectItem, position: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.name
        return f"COL{position + 1}"

    def _compiler(self, layout: RowLayout) -> ExpressionCompiler:
        return ExpressionCompiler(
            layout,
            params=self.params,
            subquery_compiler=self._compile_subquery,
            table_function_names=self.catalog.has_function,
        )

    def _compile_subquery(
        self, select: ast.Select
    ) -> Callable[[EvalContext], list[tuple]]:
        subplan = self.plan_select(select)
        size = self.config.chunk_size

        def run(ctx: EvalContext) -> list[tuple]:
            return subplan.rows(ctx, size)

        return run

    # -- FROM ----------------------------------------------------------------------

    def _plan_from(
        self, select: ast.Select, decisions=None
    ) -> tuple[
        Plan,
        RowLayout,
        dict[str, RemoteScanPlan],
        dict[str, TableScanPlan],
        list[ast.Expression],
        "dict[str, TableScanPlan | None] | None",
    ]:
        plan: Plan = UnitPlan()
        layout = RowLayout([])
        seen_aliases: set[str] = set()
        remote_candidates: dict[str, RemoteScanPlan] = {}
        local_scans: dict[str, TableScanPlan] = {}
        consumed: list[ast.Expression] = []
        #: Alias -> local scan eligible for zone-map pruning.  Pruning
        #: applies in *every* execution mode: a scan
        #: must deliver the same rows however they are dispatched, or a
        #: lazily-pulled inner side (a remote fetch, a rate-limited
        #: web-API request) would run under one mode and not another
        #: whenever pruning empties the outer side.  Scans on the
        #: nullable side of an outer join are never registered: pruning
        #: them could manufacture NULL-padded rows that pass predicates
        #: like ``d.x IS NULL``.  A duplicate alias poisons its entry
        #: (None) so no check can mis-bind.
        prunable: dict[str, TableScanPlan | None] | None = (
            {} if self.config.zone_maps else None
        )
        items = select.from_items
        if decisions is not None:
            ordered = [(index, items[index]) for index in decisions.order]
        else:
            ordered = list(enumerate(items))
        exec_items = [item for _, item in ordered]
        running_est: float | None = 1.0 if decisions is not None else None
        for position, (original_index, item) in enumerate(ordered):
            built = self._try_cost_join(plan, layout, item, original_index, decisions)
            if built is not None:
                right_schema = built[0].schema
            else:
                right, right_schema = self._plan_from_item(
                    item, layout, exec_items, position, prunable
                )
            alias_names = {
                (slot.alias or "").upper() for slot in right_schema if slot.alias
            }
            duplicate = alias_names & seen_aliases
            if duplicate:
                raise PlanError(
                    f"duplicate correlation name {sorted(duplicate)[0]!r} in FROM"
                )
            seen_aliases |= alias_names
            if built is not None:
                scan, join_plan, spec = built
                if isinstance(scan, RemoteScanPlan):
                    for alias in alias_names:
                        remote_candidates[alias] = scan
                elif spec.strategy in ("hash", "merge"):
                    # Hash and merge joins pull the inner side through
                    # the scan's ``batches()``, so index probes and zone
                    # checks still apply.  IndexNLJ bypasses the scan protocol
                    # entirely (it probes the hash index per outer key),
                    # so its scan must stay unregistered.
                    for alias in alias_names:
                        local_scans[alias] = scan
                    self._register_prunable(prunable, scan)
                consumed.append(spec.conjunct)
                scan.est_rows = _round_est(decisions.est_scan.get(original_index))
                if running_est is not None:
                    running_est *= spec.est_match_per_key
                    join_plan.est_rows = _round_est(running_est)
                if isinstance(scan, TableScanPlan):
                    self._count_join(spec.strategy)
                plan = join_plan
                layout = layout.extend(right_schema)
                continue
            # Only top-level (comma) remote scans are pushdown targets;
            # scans nested under explicit joins keep predicates local.
            if isinstance(right, StaticRightSide) and isinstance(
                right.plan, RemoteScanPlan
            ):
                for alias in alias_names:
                    remote_candidates[alias] = right.plan
            if isinstance(right, StaticRightSide) and isinstance(
                right.plan, TableScanPlan
            ):
                for alias in alias_names:
                    local_scans[alias] = right.plan
                self._register_prunable(prunable, right.plan)
            if (
                decisions is not None
                and original_index in decisions.bind_udtf
                and isinstance(right, TableFunctionRightSide)
                and self.batch_invoker is not None
            ):
                plan = UdtfBindJoinPlan(plan, right, self.batch_invoker)
            else:
                plan = CrossApplyPlan(plan, right)
            if decisions is not None:
                item_est = decisions.est_scan.get(original_index)
                inner = getattr(right, "plan", None)
                if (
                    isinstance(inner, Plan)
                    and item_est is not None
                    and inner.est_rows is None
                ):
                    inner.est_rows = _round_est(item_est)
                if running_est is not None and item_est is not None:
                    running_est *= item_est
                    plan.est_rows = _round_est(running_est)
                else:
                    running_est = None
            layout = layout.extend(right_schema)
        return plan, layout, remote_candidates, local_scans, consumed, prunable

    def _register_prunable(
        self,
        prunable: "dict[str, TableScanPlan | None] | None",
        scan: TableScanPlan,
    ) -> None:
        """Register a local scan as a zone-check target by its alias."""
        if prunable is None or not scan.schema:
            return
        alias = (scan.schema[0].alias or "").upper()
        if not alias:
            return
        # A repeated alias poisons the entry: a check resolved against
        # an ambiguous name must never bind to the wrong scan.
        prunable[alias] = None if alias in prunable else scan

    def _attach_zone_checks(
        self,
        where: ast.Expression,
        layout: RowLayout,
        prunable: "dict[str, TableScanPlan | None] | None",
    ) -> None:
        """Compile WHERE conjuncts into zone-map prune checks.

        Each locally-evaluated conjunct of a recognised shape is bound
        to its scan by slot identity and attached as a conservative
        may-match check over the chunk's ``(min, max, null_count)``
        statistics.  The conjunct itself stays in the filter above —
        pruning only skips chunks the filter would have emptied anyway.
        """
        if not prunable:
            return
        from repro.fdbs.pushdown import split_conjuncts, zone_check, zone_target

        for conjunct in split_conjuncts(where):
            target = zone_target(conjunct)
            if target is None:
                continue
            try:
                resolved = layout.resolve(target.qualifier, target.name)
            except PlanError:
                continue  # ambiguous name: the filter handles it
            if resolved is None:
                continue
            _, slot = resolved
            scan = prunable.get((slot.alias or "").upper())
            if scan is None:
                continue
            position = None
            for index, scan_slot in enumerate(scan.schema):
                if scan_slot is slot:
                    position = index
                    break
            if position is None:
                continue
            check = zone_check(conjunct, slot.type)
            if check is None:
                continue
            scan.prune_checks.append((position, check, conjunct.render()))

    def _count_join(self, strategy: str) -> None:
        if self.join_counter is not None:
            self.join_counter(strategy)

    def _try_cost_join(
        self,
        left: Plan,
        layout: RowLayout,
        item: ast.FromItem,
        index: int,
        decisions,
    ) -> "tuple[Plan, Plan, object] | None":
        """Build the cost-selected join into one comma-joined nickname or
        base table as ``(scan, join plan, decision)``: a bind join, else
        an adaptive ship-all join for a nickname; a hash, merge or index
        nested-loop join for a table.  None keeps the syntactic
        cross-apply fold."""
        if decisions is None or not isinstance(item, ast.TableRef):
            return None
        if self.catalog.has_nickname(item.name):
            attempts = [(decisions.bind_remote.get(index), None)]
            est_build = _round_est(decisions.est_scan.get(index))
            if self.config.adaptive_factor is not None and est_build is not None:
                attempts.append((decisions.adaptive_remote.get(index), est_build))
            scan = None
            for spec, est in attempts:
                if spec is None:
                    continue
                if scan is None:
                    scan = self._plan_table_ref(item)
                join = self._try_remote_bind(left, layout, scan, spec, est)
                if join is not None:
                    return scan, join, spec
            return None
        spec = decisions.local_join.get(index)
        if spec is None or not self.catalog.has_table(item.name):
            return None
        scan = self._plan_table_ref(item)
        join = self._try_local_join(left, layout, scan, spec)
        return None if join is None else (scan, join, spec)

    def _outer_key(
        self, layout: RowLayout, scan: Plan, spec, inner_column: str
    ) -> "tuple[int, SqlType | None, BatchFn] | None":
        """``(inner position, outer key type, outer key closure)`` for a
        cost-selected equi-join of the running layout with ``scan`` on
        ``inner_column``; None when the column is missing, the outer key
        does not compile, or the two key types do not hash alike."""
        inner_index = next(
            (
                position
                for position, slot in enumerate(scan.schema)
                if slot.name.upper() == inner_column.upper()
            ),
            None,
        )
        if inner_index is None:
            return None
        key_ast = ast.ColumnRef(spec.outer_qualifier, spec.outer_column)
        compiler = self._compiler(layout)
        try:
            compiled = compiler.compile(key_ast)
        except (PlanError, TypeError_):
            return None
        if not hash_join_compatible(compiled.type, scan.schema[inner_index].type):
            return None
        return inner_index, compiled.type, self._chunk(compiler, key_ast, compiled)

    def _try_remote_bind(
        self,
        left: Plan,
        layout: RowLayout,
        scan: RemoteScanPlan,
        spec,
        est_build: int | None = None,
    ) -> RemoteBindJoinPlan | None:
        """Build the bind join (or, given ``est_build``, the adaptive
        ship-all join with its mid-query bind-join escape hatch); None
        keeps the plain static remote scan."""
        keyed = self._outer_key(layout, scan, spec, spec.bind_column)
        if keyed is None:
            return None
        remote_index, _, left_key = keyed
        profile = getattr(scan.fetcher, "profile", None)
        max_keys = MAX_BIND_KEYS
        if profile is not None and profile.max_bind_keys is not None:
            max_keys = profile.max_bind_keys
        if est_build is None:
            return RemoteBindJoinPlan(
                left, scan, left_key, spec.bind_column, remote_index,
                max_keys=max_keys,
            )
        return AdaptiveRemoteJoinPlan(
            left,
            scan,
            left_key,
            spec.bind_column,
            remote_index,
            est_build=est_build,
            blowup_factor=self.config.adaptive_factor,
            max_keys=max_keys,
            note=self.adaptive_note,
        )

    def _try_local_join(
        self,
        left: Plan,
        layout: RowLayout,
        scan: TableScanPlan,
        spec,
    ) -> Plan | None:
        """Build the cost-selected local join operator (hash, merge or
        index nested-loop) when the key types suit the chosen strategy;
        None falls back to the syntactic cross-apply fold."""
        keyed = self._outer_key(layout, scan, spec, spec.inner_column)
        if keyed is None:
            return None
        inner_index, outer_type, left_key = keyed
        inner_slot = scan.schema[inner_index]
        key_name = spec.conjunct.render()
        numeric = is_numeric(outer_type) and is_numeric(inner_slot.type)
        if spec.strategy == "indexnlj":
            if not numeric:
                return None
            return IndexNestedLoopJoinPlan(
                left, scan, left_key, inner_slot.name, key_name
            )
        if spec.strategy == "merge":
            if not order_join_compatible(outer_type, inner_slot.type):
                return None
            return MergeJoinPlan(
                left,
                scan,
                left_key,
                inner_index,
                key_name,
                normalise=not numeric,
                sorted_hint=spec.sorted_hint,
            )
        if spec.strategy != "hash":
            return None
        return HashJoinPlan(
            left, scan, "INNER", [left_key], [_slot_batch(inner_index)], None, [key_name]
        )

    def _select_indexes(
        self,
        where: ast.Expression,
        layout: RowLayout,
        local_scans: "dict[str, TableScanPlan]",
    ) -> ast.Expression | None:
        """Lift ``col = <constant>`` conjuncts into hash-index probes.

        Restricted to numeric columns (character comparisons ignore CHAR
        padding, which an exact-match hash probe would not) and one
        probe per scan.
        """
        from repro.fdbs.pushdown import recombine, split_conjuncts

        remaining: list[ast.Expression] = []
        for conjunct in split_conjuncts(where):
            probe = self._as_index_probe(conjunct, layout, local_scans)
            if probe is None:
                remaining.append(conjunct)
                continue
            scan, column, value_expr = probe
            scan.index_probe = (column, value_expr)
        return recombine(remaining)

    def _as_index_probe(self, conjunct, layout, local_scans):
        from repro.fdbs.types import is_numeric

        if not (
            isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
        ):
            return None
        sides = [conjunct.left, conjunct.right]
        for ref, value in (sides, reversed(sides)):
            if not isinstance(ref, ast.ColumnRef):
                continue
            if not isinstance(value, (ast.Literal, ast.Parameter)):
                continue
            if isinstance(value, ast.Literal) and value.value is None:
                continue
            resolved = None
            try:
                resolved = layout.resolve(ref.qualifier, ref.name)
            except PlanError:
                return None  # ambiguous: leave for the normal filter
            if resolved is None:
                return None
            _, slot = resolved
            alias = (slot.alias or "").upper()
            scan = local_scans.get(alias)
            if scan is None or scan.index_probe is not None:
                return None
            if slot.type is None or not is_numeric(slot.type):
                return None
            value_expr = ExpressionCompiler(RowLayout([]), params=self.params).compile(
                value
            )
            return scan, slot.name, value_expr
        return None

    def _plan_from_item(
        self,
        item: ast.FromItem,
        layout: RowLayout,
        all_items: list[ast.FromItem],
        position: int,
        prunable: "dict[str, TableScanPlan | None] | None" = None,
    ):
        if isinstance(item, ast.TableFunctionRef):
            return self._plan_table_function(item, layout, all_items, position)
        if isinstance(item, ast.TableRef):
            return self._static_side(self._plan_table_ref(item))
        if isinstance(item, ast.SubquerySource):
            subplan = self.plan_select(item.select)
            schema = [
                ColumnSlot(item.alias, slot.name, slot.type) for slot in subplan.schema
            ]
            return self._static_side(_Reschema(subplan, schema))
        if isinstance(item, ast.Join):
            return self._static_side(self._plan_join(item, prunable))
        raise PlanError(f"unsupported FROM item: {item!r}")  # pragma: no cover

    def _static_side(self, plan: Plan):
        return StaticRightSide(plan), plan.schema

    def _plan_table_ref(self, item: ast.TableRef) -> Plan:
        alias = item.alias or item.name
        if self.catalog.has_view(item.name):
            return self._plan_view(item.name, alias)
        if self.catalog.has_table(item.name):
            table_def = self.catalog.get_table(item.name)
            if table_def.storage is None:
                raise PlanError(f"table {item.name!r} has no storage attached")
            schema = [
                ColumnSlot(alias, column.name, column.type)
                for column in table_def.columns
            ]
            plan = TableScanPlan(table_def.storage, schema, item.name)
            plan.chunk_note = self.chunk_note
            return plan
        if self.catalog.has_nickname(item.name):
            if self.remote_fetcher is None:
                raise PlanError("no federation layer available for nicknames")
            nickname = self.catalog.get_nickname(item.name)
            fetcher, columns = self.remote_fetcher(nickname)
            schema = [ColumnSlot(alias, c.name, c.type) for c in columns]
            return RemoteScanPlan(fetcher, schema, item.name)
        if self.catalog.has_function(item.name):
            raise PlanError(
                f"{item.name!r} is a table function; reference it as "
                f"TABLE ({item.name}(...)) AS {alias}"
            )
        if self.catalog.has_procedure(item.name):
            raise CallOnlyProcedureError(
                f"{item.name!r} is a stored procedure; procedures can only be "
                "invoked by a CALL statement and cannot appear in a FROM clause"
            )
        from repro.fdbs.syscat import is_syscat_table, syscat_definition

        if is_syscat_table(item.name):
            from repro.fdbs.executor import SyscatScanPlan

            columns, generator = syscat_definition(item.name)
            schema = [ColumnSlot(alias, c.name, c.type) for c in columns]
            return SyscatScanPlan(self.catalog, generator, schema, item.name.upper())
        raise CatalogError(f"unknown table {item.name!r}")

    def _plan_view(self, name: str, alias: str) -> Plan:
        """Macro-expand a view reference (with a recursion guard)."""
        key = name.upper()
        if key in self._view_stack:
            chain = " -> ".join(self._view_stack + [key])
            raise PlanError(f"cyclic view definition: {chain}")
        view = self.catalog.get_view(name)
        self._view_stack.append(key)
        try:
            subplan = self.plan_select(view.body)
        finally:
            self._view_stack.pop()
        names = view.columns or [slot.name for slot in subplan.schema]
        if len(names) != len(subplan.schema):
            raise PlanError(
                f"view {view.name!r} declares {len(names)} column(s) but its "
                f"body produces {len(subplan.schema)}"
            )
        schema = [
            ColumnSlot(alias, column_name, slot.type)
            for column_name, slot in zip(names, subplan.schema)
        ]
        return _Reschema(subplan, schema)

    def _plan_join(
        self,
        item: ast.Join,
        prunable: "dict[str, TableScanPlan | None] | None" = None,
    ) -> Plan:
        left = self._plan_join_side(item.left, prunable)
        # The right (nullable) side of a LEFT OUTER join is never a
        # pruning target: skipping a chunk there would manufacture
        # NULL-padded output rows (e.g. ``WHERE d.x IS NULL``).
        right = self._plan_join_side(
            item.right, prunable if item.kind != "LEFT OUTER" else None
        )
        combined = RowLayout(left.schema + right.schema)
        predicate = None
        if item.on is not None:
            # Always compile the full ON clause first: name-resolution
            # errors (unknown / ambiguous columns) must surface exactly
            # as they do in row mode.
            predicate = self._compiler(combined).compile(item.on)
        elif item.kind != "CROSS":
            raise PlanError(f"{item.kind} JOIN requires an ON condition")
        if (
            self.config.execution_mode == "batch"
            and item.on is not None
            and item.kind in ("INNER", "LEFT OUTER")
        ):
            hash_join = self._try_hash_join(left, right, item)
            if hash_join is not None:
                self._count_join("hash")
                return hash_join
        self._count_join("nlj")
        return NestedLoopJoinPlan(left, right, item.kind, predicate)

    def _try_hash_join(self, left: Plan, right: Plan, item: ast.Join) -> Plan | None:
        """Build a :class:`HashJoinPlan` when the ON clause carries at
        least one hash-compatible equi-conjunct; None keeps the NLJ."""
        from repro.fdbs.pushdown import recombine, split_conjuncts

        left_layout = RowLayout(left.schema)
        right_layout = RowLayout(right.schema)
        left_compiler = self._compiler(left_layout)
        right_compiler = self._compiler(right_layout)
        left_keys: list[BatchFn] = []
        right_keys: list[BatchFn] = []
        key_names: list[str] = []
        residual: list[ast.Expression] = []
        for conjunct in split_conjuncts(item.on):
            pair = self._equi_key(
                conjunct, left_compiler, right_compiler, left_layout, right_layout
            )
            if pair is None:
                residual.append(conjunct)
                continue
            left_key, right_key = pair
            left_keys.append(left_key)
            right_keys.append(right_key)
            key_names.append(conjunct.render())
        if not left_keys:
            return None
        residual_expr = recombine(residual)
        combined = RowLayout(left.schema + right.schema)
        residual_compiled = (
            self._compiler(combined).compile(residual_expr)
            if residual_expr is not None
            else None
        )
        return HashJoinPlan(
            left, right, item.kind, left_keys, right_keys, residual_compiled, key_names
        )

    def _equi_key(
        self,
        conjunct: ast.Expression,
        left_compiler: ExpressionCompiler,
        right_compiler: ExpressionCompiler,
        left_layout: RowLayout,
        right_layout: RowLayout,
    ) -> tuple[BatchFn, BatchFn] | None:
        """(left key, right key) chunk closures for ``left_side =
        right_side`` conjuncts whose sides each touch only one join
        input; None sends the conjunct to the residual predicate."""
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        sides = (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        )
        for first, second in sides:
            left_key = self._side_key(first, left_compiler, left_layout)
            right_key = self._side_key(second, right_compiler, right_layout)
            if left_key is None or right_key is None:
                continue
            if not hash_join_compatible(left_key.type, right_key.type):
                # The row-mode comparison would align these operands
                # (e.g. DECIMAL vs DOUBLE); a raw hash probe would not.
                return None
            return (
                self._chunk(left_compiler, first, left_key),
                self._chunk(right_compiler, second, right_key),
            )
        return None

    def _side_key(
        self,
        expr: ast.Expression,
        compiler: ExpressionCompiler,
        layout: RowLayout,
    ) -> CompiledExpr | None:
        """Compile one equality side against a single join input, or
        None when it references anything outside that input."""
        refs = list(_column_refs(expr))
        if not refs:
            return None  # constant-only sides stay in the residual
        try:
            for ref in refs:
                if layout.resolve(ref.qualifier, ref.name) is None:
                    return None
            return compiler.compile(expr)
        except (PlanError, TypeError_):
            return None

    def _plan_join_side(
        self,
        item: ast.FromItem,
        prunable: "dict[str, TableScanPlan | None] | None" = None,
    ) -> Plan:
        if isinstance(item, ast.TableRef):
            plan = self._plan_table_ref(item)
            if isinstance(plan, TableScanPlan):
                self._register_prunable(prunable, plan)
            return plan
        if isinstance(item, ast.SubquerySource):
            subplan = self.plan_select(item.select)
            schema = [
                ColumnSlot(item.alias, slot.name, slot.type) for slot in subplan.schema
            ]
            return _Reschema(subplan, schema)
        if isinstance(item, ast.Join):
            return self._plan_join(item, prunable)
        if isinstance(item, ast.TableFunctionRef):
            raise PlanError(
                "table functions cannot appear inside an explicit JOIN; list "
                "them as comma-separated FROM items (processed left to right)"
            )
        raise PlanError(f"unsupported join operand: {item!r}")  # pragma: no cover

    # -- table functions -----------------------------------------------------------

    def _plan_table_function(
        self,
        item: ast.TableFunctionRef,
        layout: RowLayout,
        all_items: list[ast.FromItem],
        position: int,
    ):
        name = item.function_name
        if self.catalog.has_procedure(name):
            raise CallOnlyProcedureError(
                f"{name!r} is a stored procedure; procedures can only be invoked "
                "by a CALL statement and cannot appear in a FROM clause"
            )
        if self.catalog.has_table(name):
            raise PlanError(f"{name!r} is a table, not a table function")
        function = self.catalog.get_function(name)
        if len(item.args) != len(function.params):
            raise PlanError(
                f"function {function.name} expects {len(function.params)} "
                f"arguments, got {len(item.args)}"
            )
        compiler = self._compiler(layout)
        arg_exprs: list[CompiledExpr] = []
        for arg_ast, param in zip(item.args, function.params):
            try:
                compiled = compiler.compile(arg_ast)
            except PlanError as exc:
                raise self._diagnose_forward_reference(
                    exc, arg_ast, item, all_items, position
                ) from None
            if compiled.type is not None and not implicitly_castable(
                compiled.type, param.type
            ):
                raise TypeError_(
                    f"argument {param.name} of {function.name} expects "
                    f"{param.type}, got {compiled.type}"
                )
            arg_exprs.append(compiled)
        assert item.alias is not None  # parser enforces the correlation name
        schema = [
            ColumnSlot(item.alias, column.name, column.type)
            for column in function.returns
        ]
        # An *independent* branch (no lateral references) that is not the
        # first FROM item must be composed with the running result set —
        # the paper's "join with selection" overhead of the UDTF approach.
        lateral = any(
            layout.resolve(ref.qualifier, ref.name) is not None
            for arg in item.args
            for ref in _column_refs(arg)
        )
        composition_cost = 0.0
        if not lateral and position > 0 and self.costs is not None:
            composition_cost = self.costs.join_composition
        side = TableFunctionRightSide(
            function,
            arg_exprs,
            schema,
            self.invoker,
            item.alias,
            composition_cost=composition_cost,
            charge=self.charge,
        )
        return side, schema

    def _diagnose_forward_reference(
        self,
        original: PlanError,
        arg_ast: ast.Expression,
        item: ast.TableFunctionRef,
        all_items: list[ast.FromItem],
        position: int,
    ) -> PlanError:
        """Turn an unresolved reference into the DB2-faithful diagnosis:
        forward reference (left-to-right violation) or cyclic dependency."""
        later_aliases = {
            (other.alias or "").upper(): other
            for other in all_items[position + 1 :]
            if isinstance(other, ast.TableFunctionRef) and other.alias
        }
        for ref in _column_refs(arg_ast):
            qualifier = (ref.qualifier or "").upper()
            target = later_aliases.get(qualifier)
            if target is None:
                continue
            my_alias = (item.alias or "").upper()
            if any(
                (back.qualifier or "").upper() == my_alias
                for arg in target.args
                for back in _column_refs(arg)
            ):
                return CyclicDependencyError(
                    f"cyclic dependency between table functions "
                    f"{item.alias!r} and {target.alias!r}: cycles cannot be "
                    "expressed in the UDTF approach (no loop construct in SQL)"
                )
            return PlanError(
                f"table function argument references {ref.render()!r}, which is "
                "defined later in the FROM clause; the FROM clause is processed "
                "left to right, so inputs must come from earlier items"
            )
        return original

    # -- aggregation ------------------------------------------------------------------

    def _plan_aggregate(
        self,
        plan: Plan,
        layout: RowLayout,
        compiler: ExpressionCompiler,
        select: ast.Select,
        items: list[ast.SelectItem],
    ):
        group_renders = [expr.render() for expr in select.group_by]
        aggregates: list[ast.FunctionCall] = []
        agg_renders: list[str] = []

        def collect(expr: ast.Expression) -> None:
            for call in _aggregate_calls(expr):
                render = call.render()
                if render not in agg_renders:
                    agg_renders.append(render)
                    aggregates.append(call)

        for item in items:
            collect(item.expr)
        if select.having is not None:
            collect(select.having)
        for order_item in select.order_by:
            collect(order_item.expr)

        group_compiled = [compiler.compile(e) for e in select.group_by]
        fold_chunks = self.config.execution_mode == "batch"
        agg_specs: list[AggregateSpec] = []
        for call in aggregates:
            name = call.name.upper()
            if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
                if name != "COUNT":
                    raise PlanError(f"{call.name}(*) is only valid for COUNT")
                agg_specs.append(AggregateSpec(name, None, call.distinct))
            elif len(call.args) == 1:
                if contains_aggregate(call.args[0]):
                    raise PlanError("aggregates cannot be nested")
                arg = call.args[0]
                agg_specs.append(
                    AggregateSpec(
                        name,
                        self._chunk(compiler, arg, compiler.compile(arg)),
                        call.distinct,
                        fold_chunks,
                    )
                )
            else:
                raise PlanError(f"aggregate {call.name} takes exactly one argument")

        post_schema = [
            ColumnSlot(None, f"$g{index}", compiled.type)
            for index, compiled in enumerate(group_compiled)
        ] + [
            ColumnSlot(None, f"$a{index}", None) for index in range(len(agg_specs))
        ]
        group_fns = [
            self._chunk(compiler, expr, compiled)
            for expr, compiled in zip(select.group_by, group_compiled)
        ]
        agg_plan = AggregatePlan(plan, group_fns, agg_specs, post_schema)
        post_layout = RowLayout(post_schema)

        replacement: dict[str, ast.Expression] = {}
        for index, render in enumerate(group_renders):
            replacement[render] = ast.ColumnRef(None, f"$g{index}")
        for index, render in enumerate(agg_renders):
            replacement[render] = ast.ColumnRef(None, f"$a{index}")

        new_items = []
        for position, item in enumerate(items):
            # Preserve the user-visible output name: the synthetic $g/$a
            # references must not leak into the result columns.
            alias = item.alias or self._output_name(item, position)
            new_items.append(
                ast.SelectItem(_replace(item.expr, replacement), alias)
            )
        having = (
            _replace(select.having, replacement) if select.having is not None else None
        )
        # Rewritten copies: the statement AST is shared through the
        # statement cache and must never change under planning.
        order_by = [
            ast.OrderItem(_replace(item.expr, replacement), item.ascending)
            for item in select.order_by
        ]
        return agg_plan, post_layout, new_items, having, order_by

    # -- ORDER BY ---------------------------------------------------------------------

    def _plan_order_by(self, plan: Plan, select: ast.Select) -> Plan:
        """Sort on extended rows: output columns plus hidden key columns."""
        output_schema = plan.schema
        compiler = self._compiler(RowLayout(output_schema))
        width = len(output_schema)
        extra_slots: list[ColumnSlot] = []
        extra_fns: list[BatchFn] = []
        key_positions: list[tuple[int, bool]] = []
        for order_item in select.order_by:
            expr = order_item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                index = expr.value - 1
                if not (0 <= index < width):
                    raise PlanError(
                        f"ORDER BY position {expr.value} is out of range"
                    )
                key_positions.append((index, order_item.ascending))
                continue
            compiled = compiler.compile(expr)
            key_positions.append((width + len(extra_fns), order_item.ascending))
            extra_slots.append(ColumnSlot(None, f"$k{len(extra_fns)}", compiled.type))
            extra_fns.append(self._chunk(compiler, expr, compiled))
        if not extra_fns:
            return SortPlan(plan, key_positions)
        identity = [_slot_batch(index) for index in range(width)]
        plan = ProjectPlan(plan, identity + extra_fns, output_schema + extra_slots)
        return CutPlan(SortPlan(plan, key_positions), width, output_schema)


class _Reschema(Plan):
    """Renames the schema of a subplan (derived-table aliasing)."""

    def __init__(self, inner: Plan, schema: list[ColumnSlot]):
        self.inner = inner
        self.schema = schema

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE):
        """Forward the subplan's chunks unchanged."""
        return self.inner.batches(ctx, size)

    def _describe(self) -> str:
        return "Reschema"

    def _children(self) -> list[Plan]:
        return [self.inner]


def _round_est(value: "float | None") -> "int | None":
    """Round a fractional cardinality estimate to a display integer."""
    if value is None:
        return None
    return max(1, round(value))


def _slot_batch(index: int) -> BatchFn:
    """Chunk closure reading the value at one row position."""
    return lambda chunk, ctx, _i=index: [row[_i] for row in chunk]


def _column_refs(expr: ast.Expression):
    """Yield every ColumnRef in an expression tree."""
    from repro.fdbs.expr import _children  # reuse the walker

    if isinstance(expr, ast.ColumnRef):
        yield expr
    for child in _children(expr):
        yield from _column_refs(child)


def _aggregate_calls(expr: ast.Expression):
    """Yield top-most aggregate calls in an expression tree."""
    from repro.fdbs.expr import _children

    if is_aggregate_call(expr):
        yield expr  # type: ignore[misc]
        return
    for child in _children(expr):
        yield from _aggregate_calls(child)


def _replace(expr: ast.Expression, mapping: dict[str, ast.Expression]) -> ast.Expression:
    """Structurally replace subtrees whose rendering appears in ``mapping``."""
    render = expr.render()
    if render in mapping:
        return mapping[render]
    import copy

    clone = copy.copy(expr)
    if isinstance(clone, ast.BinaryOp):
        clone.left = _replace(clone.left, mapping)
        clone.right = _replace(clone.right, mapping)
    elif isinstance(clone, ast.UnaryOp):
        clone.operand = _replace(clone.operand, mapping)
    elif isinstance(clone, ast.FunctionCall):
        clone.args = [_replace(a, mapping) for a in clone.args]
    elif isinstance(clone, ast.Cast):
        clone.operand = _replace(clone.operand, mapping)
    elif isinstance(clone, ast.IsNull):
        clone.operand = _replace(clone.operand, mapping)
    elif isinstance(clone, ast.InList):
        clone.operand = _replace(clone.operand, mapping)
        clone.items = [_replace(i, mapping) for i in clone.items]
    elif isinstance(clone, ast.Like):
        clone.operand = _replace(clone.operand, mapping)
        clone.pattern = _replace(clone.pattern, mapping)
    elif isinstance(clone, ast.Between):
        clone.operand = _replace(clone.operand, mapping)
        clone.low = _replace(clone.low, mapping)
        clone.high = _replace(clone.high, mapping)
    elif isinstance(clone, ast.Case):
        if clone.operand is not None:
            clone.operand = _replace(clone.operand, mapping)
        clone.whens = [
            ast.CaseWhen(_replace(w.condition, mapping), _replace(w.result, mapping))
            for w in clone.whens
        ]
        if clone.else_result is not None:
            clone.else_result = _replace(clone.else_result, mapping)
    return clone
