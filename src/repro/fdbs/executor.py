"""Plan operators speaking one chunk protocol.

Every operator exposes ``schema`` (a list of
:class:`~repro.fdbs.expr.ColumnSlot`) and ``batches(ctx, size)``
yielding *chunks* (lists) of flat tuples, sized around ``size``.  Plans
are built by :mod:`repro.fdbs.planner` and executed by the engine, which
supplies the :class:`~repro.fdbs.expr.EvalContext` and the
table-function invoker; :meth:`Plan.rows` flattens the chunks for
consumers that materialise.

Every expression an operator evaluates over its input rows (filter
predicates, projections, group keys and aggregate arguments, sort keys,
join keys) arrives as one chunk closure, a
:data:`~repro.fdbs.expr.BatchFn` ``(chunk, ctx) -> values``.  The
planner decides how that closure is built — a per-row closure mapped
over the chunk or a vectorized one — so operators never see the
execution mode.  Closures that must run once per combined or outer row
stay per-row :class:`~repro.fdbs.expr.CompiledExpr` calls: nested-loop
ON predicates, hash-join residuals, index-probe values and lateral
table-function arguments (which keep the left-to-right invocation order
the cost accounting depends on).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from operator import le
from typing import Callable, Iterable, Iterator, Protocol, Sequence

from repro.errors import ExecutionError
from repro.fdbs import ast
from repro.fdbs.catalog import TableFunction
from repro.fdbs.expr import (
    BatchFn,
    ColumnSlot,
    CompiledExpr,
    EvalContext,
    truthy,
)
from repro.fdbs.storage import Table

#: Default number of rows per chunk.
BATCH_SIZE = 1024


def _chunked(rows: list[tuple], size: int) -> Iterator[list[tuple]]:
    """Slice materialised rows into chunks of at most ``size``."""
    for start in range(0, len(rows), size):
        yield rows[start : start + size]


class FunctionInvoker(Protocol):
    """Invokes a catalog table function with evaluated argument values."""

    def __call__(
        self, function: TableFunction, args: list[object], ctx: EvalContext
    ) -> list[tuple]: ...


class Plan:
    """Base class of executable plan operators."""

    schema: list[ColumnSlot]

    #: Optimizer cardinality estimate (rows), set by the cost-based
    #: planner; None on syntactic plans.
    est_rows: int | None = None
    #: Observed output cardinality, set by EXPLAIN ANALYZE
    #: instrumentation; None otherwise.
    actual_rows: int | None = None
    #: False when an instrumented run closed this operator before its
    #: chunks ran out, so ``actual_rows`` counts only a prefix.
    actual_drained: bool = True

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Yield the operator's result rows in chunks (the protocol)."""
        raise NotImplementedError  # pragma: no cover

    def rows(self, ctx: EvalContext, size: int = BATCH_SIZE) -> list[tuple]:
        """All result rows, drained from :meth:`batches`."""
        return [row for chunk in self.batches(ctx, size) for row in chunk]

    def explain(self, indent: int = 0, mode: str | None = None) -> str:
        """Human-readable plan tree (EXPLAIN-style).

        ``mode`` (when given) prepends an ``Execution(mode=...)`` header
        so EXPLAIN output shows whether the plan runs row- or batch-wise.
        """
        pad = "  " * indent
        lines = []
        if mode is not None:
            lines.append(pad + f"Execution(mode={mode})")
        lines.append(pad + self._describe() + self._cardinality_suffix())
        for child in self._children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _cardinality_suffix(self) -> str:
        """`` [est=N, actual=M rows]`` annotation (empty when unknown)."""
        parts = []
        if self.est_rows is not None:
            parts.append(f"est={self.est_rows}")
        if self.actual_rows is not None:
            parts.append(f"actual={self.actual_rows}")
        if not parts:
            return ""
        return f" [{', '.join(parts)} rows]"

    def _describe(self) -> str:
        return type(self).__name__

    def _children(self) -> list["Plan"]:
        return []


class UnitPlan(Plan):
    """Produces exactly one empty row — the seed of a FROM-less SELECT
    and of the lateral fold over the FROM list."""

    def __init__(self) -> None:
        self.schema = []

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Yield the single empty row."""
        yield [()]

    def _describe(self) -> str:
        return "Unit"


class TableScanPlan(Plan):
    """Scan of a base table: full, or index-assisted.

    The planner may attach an *index probe* — an equality conjunct
    ``col = <constant>`` lifted from the WHERE clause — in which case
    the scan resolves through the table's hash index instead of reading
    every row (index selection, a small classic physical optimization).
    """

    def __init__(self, table: Table, schema: list[ColumnSlot], name: str):
        self._table = table
        self.schema = schema
        self._name = name
        self.index_probe: tuple[str, CompiledExpr] | None = None
        #: Zone-map prune checks attached by the planner (every
        #: execution mode): ``(column position, check, conjunct text)`` where
        #: ``check(lo, hi, nulls, count)`` returns False only when no
        #: row of a chunk with that zone entry can satisfy the conjunct.
        self.prune_checks: list[tuple[int, Callable, str]] = []
        #: Callback ``(chunks_scanned, chunks_pruned)`` feeding the
        #: database's chunk runtime counters (attached by the planner).
        self.chunk_note: Callable[[int, int], None] | None = None
        #: Chunk pruning outcome of the most recent execution (shown by
        #: EXPLAIN ANALYZE as ``pruned=N/M chunks``).
        self.last_chunks_total: int | None = None
        self.last_chunks_pruned: int | None = None

    def _version(self, ctx: EvalContext):
        """The TableVersion this scan reads: the statement's pinned
        snapshot when it covers the table, else the current version."""
        if ctx.snapshot is not None:
            pinned = ctx.snapshot.version_for(self._table)
            if pinned is not None:
                return pinned
        return self._table.current_version

    def _chunks(self, ctx: EvalContext) -> Iterator:
        """Column chunks of the pinned version, zone-map pruned.

        Pruning is a pure superset skip: a pruned chunk provably holds
        no row satisfying the attached conjunct, and the conjunct itself
        still runs in the filter above, so the surviving rows (in rid
        order) are exactly what the unpruned scan would feed through
        that filter.  Empty (all-tombstone) chunks are skipped without
        counting as scanned or pruned.

        Chunks are produced lazily and counted as they are examined, so
        when a LIMIT above terminates the scan early the counters stay
        consistent: ``chunks_scanned`` is exactly the chunks handed to
        the consumer, and EXPLAIN ANALYZE's ``pruned=N/M`` reports the
        chunks actually examined (``M - N`` of which were scanned) —
        never chunks the aborted scan would have read.
        """
        chunks = self._table.columnar_chunks(self._version(ctx))
        checks = self.prune_checks
        scanned = pruned = 0
        self.last_chunks_total = 0
        self.last_chunks_pruned = 0
        try:
            for chunk in chunks:
                count = chunk.count
                if count == 0:
                    continue
                keep = True
                for position, check, _text in checks:
                    lo, hi, nulls = chunk.zone(position)
                    if not check(lo, hi, nulls, count):
                        keep = False
                        break
                if keep:
                    scanned += 1
                    self.last_chunks_total = scanned + pruned
                    yield chunk
                else:
                    pruned += 1
                    self.last_chunks_total = scanned + pruned
                    self.last_chunks_pruned = pruned
        finally:
            # Runs on exhaustion *and* on early termination (generator
            # close), so the database counters see each chunk once.
            self.last_chunks_total = scanned + pruned
            self.last_chunks_pruned = pruned
            if self.chunk_note is not None:
                self.chunk_note(scanned, pruned)

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Yield chunks by slicing the materialised heap directly."""
        version = self._version(ctx)
        if self.index_probe is not None:
            column, value_expr = self.index_probe
            value = value_expr((), ctx)
            if value is None:
                return  # col = NULL never matches
            data = self._table.version_index_lookup(version, column, value)
        elif self.prune_checks:
            for chunk in self._chunks(ctx):
                yield chunk.rows
            return
        else:
            data = version.rows()
        yield from _chunked(data, size)

    def _describe(self) -> str:
        if self.index_probe is not None:
            return f"IndexLookup({self._name}.{self.index_probe[0]})"
        if self.prune_checks:
            zones = " AND ".join(text for _, _, text in self.prune_checks)
            described = f"TableScan({self._name}, zone: {zones})"
        else:
            described = f"TableScan({self._name})"
        if self.last_chunks_total is not None:
            described += (
                f" [pruned={self.last_chunks_pruned}"
                f"/{self.last_chunks_total} chunks]"
            )
        return described


class RemoteScanPlan(Plan):
    """Scan of a nickname: the subquery is shipped to the remote server
    through the federation layer.

    ``pushed_predicates`` holds predicate texts the planner pushed down
    (the paper's future-work 'query optimization' item); they travel in
    the remote statement's WHERE clause.
    """

    def __init__(
        self,
        fetcher,
        schema: list[ColumnSlot],
        name: str,
    ):
        self.fetcher = fetcher
        self.schema = schema
        self._name = name
        self.pushed_predicates: list[str] = []

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Ship the remote statement and yield its rows in chunks."""
        yield from _chunked(self.fetcher.fetch(ctx, self.pushed_predicates), size)

    def _describe(self) -> str:
        if self.pushed_predicates:
            pushed = " AND ".join(self.pushed_predicates)
            return f"RemoteScan({self._name}, pushed: {pushed})"
        return f"RemoteScan({self._name})"


class SyscatScanPlan(Plan):
    """Scan of a SYSCAT virtual table: rows are generated from the live
    catalog at execution time, so DDL is immediately visible."""

    def __init__(self, catalog, generator, schema: list[ColumnSlot], name: str):
        self._catalog = catalog
        self._generator = generator
        self.schema = schema
        self._name = name

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Generate the virtual table from the live catalog, in chunks."""
        yield from _chunked(list(self._generator(self._catalog)), size)

    def _describe(self) -> str:
        return f"SyscatScan({self._name})"


class CrossApplyPlan(Plan):
    """Lateral fold step: for every left row, produce the rows of the
    right side.  The right side is either *static* (a plan independent
    of the left row) or *lateral* (a table function whose arguments are
    evaluated against the current left row) — this is the executor
    embodiment of DB2's left-to-right FROM-clause processing."""

    def __init__(self, left: Plan, right: "RightSide"):
        self.left = left
        self.right = right
        self.schema = left.schema + right.schema

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Yield one output chunk per left chunk.  The degenerate first
        fold step (Unit seed on the left, a static plan on the right)
        forwards the right side's batches unchanged, so the first FROM
        item streams; lateral folds call the right side once per left
        row, left to right — the invocation order that the cost
        accounting and fenced UDTF semantics depend on."""
        if isinstance(self.left, UnitPlan) and isinstance(self.right, StaticRightSide):
            yield from self.right.plan.batches(ctx, size)
            return
        rows_for = self.right.rows_for
        for chunk in self.left.batches(ctx, size):
            out = [
                left_row + right_row
                for left_row in chunk
                for right_row in rows_for(left_row, ctx)
            ]
            if out:
                yield out

    def _describe(self) -> str:
        return "CrossApply"

    def _children(self) -> list[Plan]:
        children: list[Plan] = [self.left]
        inner = getattr(self.right, "plan", None)
        if isinstance(inner, Plan):
            children.append(inner)
        return children


class RightSide:
    """Right input of a :class:`CrossApplyPlan`."""

    schema: list[ColumnSlot]

    def rows_for(self, left_row: tuple, ctx: EvalContext) -> Iterable[tuple]:
        """Rows of the right side for one left row."""
        raise NotImplementedError  # pragma: no cover


class StaticRightSide(RightSide):
    """A right side independent of the left row (plain cross join)."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.schema = plan.schema
        self._cache: list[tuple] | None = None

    def rows_for(self, left_row: tuple, ctx: EvalContext) -> Iterable[tuple]:
        """Rows of the right side for one left row."""
        if self._cache is None:
            self._cache = self.plan.rows(ctx)
        return self._cache


class TableFunctionRightSide(RightSide):
    """A lateral table-function call.

    ``arg_exprs`` are compiled against the layout of everything to the
    *left* of this FROM item (plus the statement's parameter scope) —
    exactly the paper's "execution order defined by input parameters".

    ``composition_cost``/``charge`` model the result-set composition of
    *independent* branches ("join with selection"): composing a branch
    that does not depend on the running row costs extra work, which is
    why the UDTF architecture loses the paper's parallel-vs-sequential
    comparison while the WfMS wins it.
    """

    def __init__(
        self,
        function: TableFunction,
        arg_exprs: list[CompiledExpr],
        schema: list[ColumnSlot],
        invoker: FunctionInvoker,
        alias: str,
        composition_cost: float = 0.0,
        charge: Callable[[float], None] | None = None,
    ):
        self.function = function
        self.arg_exprs = arg_exprs
        self.schema = schema
        self.invoker = invoker
        self.alias = alias
        self.composition_cost = composition_cost
        self.charge = charge
        # DETERMINISTIC-function optimization (extension, cf. the
        # paper's [10]): repeated invocations with equal arguments are
        # served from this cache for the lifetime of the plan — the
        # declaration's contract is that results never change per args.
        self._result_cache: dict[tuple, list[tuple]] = {}
        self.invocations = 0
        self.cache_hits = 0

    def rows_for(self, left_row: tuple, ctx: EvalContext) -> Iterable[tuple]:
        """Rows of the right side for one left row."""
        if self.composition_cost and self.charge is not None:
            self.charge(self.composition_cost)
        args = [expr(left_row, ctx) for expr in self.arg_exprs]
        if self.function.deterministic:
            try:
                key = tuple(args)
                cached = self._result_cache.get(key)
            except TypeError:  # unhashable argument value
                key = None
                cached = None
            if cached is not None:
                self.cache_hits += 1
                return cached
            self.invocations += 1
            rows = self.invoker(self.function, args, ctx)
            if key is not None:
                self._result_cache[key] = rows
            return rows
        self.invocations += 1
        return self.invoker(self.function, args, ctx)


class NestedLoopJoinPlan(Plan):
    """INNER / LEFT OUTER / CROSS join with an optional ON predicate."""

    def __init__(
        self,
        left: Plan,
        right: Plan,
        kind: str,
        predicate: CompiledExpr | None,
    ):
        if kind not in ("INNER", "LEFT OUTER", "CROSS"):
            raise ExecutionError(f"unsupported join kind {kind!r}")
        self.left = left
        self.right = right
        self.kind = kind
        self.predicate = predicate
        self.schema = left.schema + right.schema

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Materialise the right side, then join it to each left chunk."""
        right_rows = self.right.rows(ctx, size)
        null_right = (None,) * len(self.right.schema)
        predicate = self.predicate
        left_outer = self.kind == "LEFT OUTER"
        for chunk in self.left.batches(ctx, size):
            out: list[tuple] = []
            for left_row in chunk:
                matched = False
                for right_row in right_rows:
                    combined = left_row + right_row
                    if predicate is None or truthy(predicate(combined, ctx)):
                        matched = True
                        out.append(combined)
                if not matched and left_outer:
                    out.append(left_row + null_right)
            if out:
                yield out

    def _describe(self) -> str:
        return f"NestedLoopJoin({self.kind}, join=nlj)"

    def _children(self) -> list[Plan]:
        return [self.left, self.right]


def _join_key_part(value: object) -> object:
    """Normalise one join-key value for hashing.

    Strings drop trailing blanks so CHAR-padded keys match exactly like
    the row-mode ``=`` comparison (see ``expr._align``); everything else
    hashes natively (Python guarantees ``hash(1) == hash(1.0)`` wherever
    ``1 == 1.0``).
    """
    return value.rstrip() if isinstance(value, str) else value


def _keyed_chunks(
    plan: Plan, key_fns: list[BatchFn], ctx: EvalContext, size: int
) -> Iterator[tuple[list[tuple], list[tuple | None]]]:
    """Yield ``(chunk, keys)`` pairs: one normalised key tuple per row,
    None where any key column is NULL (NULL keys never match)."""
    for chunk in plan.batches(ctx, size):
        columns = [fn(chunk, ctx) for fn in key_fns]
        keys: list[tuple | None] = []
        for values in zip(*columns):
            if None in values:
                keys.append(None)
            else:
                keys.append(tuple(_join_key_part(value) for value in values))
        yield chunk, keys


class HashJoinPlan(Plan):
    """INNER / LEFT OUTER equi-join through an in-memory hash table.

    The planner selects this operator when the ON clause (batch mode) or
    the cost-based optimizer (comma joins) supplies at least one
    hash-compatible equi-conjunct; remaining ON conjuncts become the
    ``residual`` predicate, evaluated against the combined row exactly
    as the nested-loop join would.  Output order matches the nested-loop
    join: left rows in input order, matching right rows in right-input
    order.
    """

    def __init__(
        self,
        left: Plan,
        right: Plan,
        kind: str,
        left_keys: list[BatchFn],
        right_keys: list[BatchFn],
        residual: CompiledExpr | None = None,
        key_names: list[str] | None = None,
    ):
        if kind not in ("INNER", "LEFT OUTER"):
            raise ExecutionError(f"unsupported hash-join kind {kind!r}")
        if not left_keys or len(left_keys) != len(right_keys):
            raise ExecutionError("hash join requires matching key lists")
        self.left = left
        self.right = right
        self.kind = kind
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.key_names = key_names or []
        self.schema = left.schema + right.schema

    def _build(self, ctx: EvalContext, size: int) -> dict[tuple, list[tuple]]:
        """Materialise the right side into key buckets (NULLs never match)."""
        table: dict[tuple, list[tuple]] = {}
        for chunk, keys in _keyed_chunks(self.right, self.right_keys, ctx, size):
            for right_row, key in zip(chunk, keys):
                if key is None:
                    continue
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [right_row]
                else:
                    bucket.append(right_row)
        return table

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Yield chunks by probing the hash table with left chunks."""
        table = self._build(ctx, size)
        null_right = (None,) * len(self.right.schema)
        residual = self.residual
        left_outer = self.kind == "LEFT OUTER"
        empty: tuple = ()
        for chunk, keys in _keyed_chunks(self.left, self.left_keys, ctx, size):
            out: list[tuple] = []
            for left_row, key in zip(chunk, keys):
                matched = False
                for right_row in table.get(key, empty):  # a None key misses
                    combined = left_row + right_row
                    if residual is None or truthy(residual(combined, ctx)):
                        matched = True
                        out.append(combined)
                if not matched and left_outer:
                    out.append(left_row + null_right)
            if out:
                yield out

    def _describe(self) -> str:
        keys = ", ".join(self.key_names) if self.key_names else f"{len(self.left_keys)} key(s)"
        suffix = ", residual" if self.residual is not None else ""
        return f"HashJoin({self.kind}, on {keys}{suffix}, join=hash)"

    def _children(self) -> list[Plan]:
        return [self.left, self.right]


class MergeJoinPlan(Plan):
    """Sort-merge INNER equi-join, chosen by the cost-based optimizer
    for comma joins whose inputs RUNSTATS saw in key order.

    The right side is materialised and checked for non-decreasing key
    order: a presorted input (insertion order, clustered key) skips the
    explicit sort the cost model priced in; otherwise a *stable* sort
    brings equal keys together while preserving their scan order.
    The probe walks left rows in input order, locating each key's run
    of equal keys with a forward-merging cursor while the left keys
    arrive in non-decreasing order and by bisection otherwise.  Output is
    therefore left-major with matches in right-scan order —
    bit-identical rows to the nested-loop and hash plans.  NULL keys
    never match; mutually unorderable key values degrade to hashed
    grouping (same rows, the sort saving is simply lost).
    """

    def __init__(
        self,
        left: Plan,
        right: Plan,
        left_key: BatchFn,
        right_key_index: int,
        key_name: str = "",
        normalise: bool = True,
        sorted_hint: bool = False,
    ):
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key_index = right_key_index
        self.key_name = key_name
        #: False for numeric keys, where ``_join_key_part`` is identity.
        self.normalise = normalise
        #: True when RUNSTATS saw the inner key column presorted (the
        #: cost model then charged no explicit sort).
        self.sorted_hint = sorted_hint
        self.schema = left.schema + right.schema
        self.sorts_applied = 0
        self.presorted_inputs = 0

    def _prepare(self, ctx: EvalContext, size: int) -> tuple[list, list[tuple], bool]:
        """Materialise the right side as parallel ``(keys, rows, ordered)``
        lists without NULL keys, stably sorted by key; ``ordered`` is
        False (scan order kept) when the keys defeat ordering."""
        index = self.right_key_index
        rows = [row for row in self.right.rows(ctx, size) if row[index] is not None]
        if self.normalise:
            keys = [_join_key_part(row[index]) for row in rows]
        else:
            keys = [row[index] for row in rows]
        try:
            if all(map(le, keys, islice(keys, 1, None))):
                self.presorted_inputs += 1
            else:
                # Stable: equal keys keep scan order.
                order = sorted(range(len(keys)), key=keys.__getitem__)
                keys = [keys[position] for position in order]
                rows = [rows[position] for position in order]
                self.sorts_applied += 1
        except TypeError:
            return keys, rows, False
        return keys, rows, True

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Yield chunks by merging left chunks against the sorted right."""
        keys, rows, ordered = self._prepare(ctx, size)
        left_key = self.left_key
        normalise = self.normalise
        if not ordered:
            buckets = _buckets(keys, rows)
            empty: tuple = ()
            for chunk in self.left.batches(ctx, size):
                out: list[tuple] = []
                for left_row, value in zip(chunk, left_key(chunk, ctx)):
                    if value is None:
                        continue
                    for right_row in buckets.get(_join_key_part(value), empty):
                        out.append(left_row + right_row)
                if out:
                    yield out
            return
        n = len(keys)
        cursor = 0
        previous: object = None
        first = True
        lookup: dict | None = None
        for chunk in self.left.batches(ctx, size):
            out = []
            append = out.append
            for left_row, key in zip(chunk, left_key(chunk, ctx)):
                if key is None:
                    continue
                if normalise:
                    key = _join_key_part(key)
                try:
                    if first or key >= previous:
                        while cursor < n and keys[cursor] < key:
                            cursor += 1
                    else:  # left order regressed: bisect instead of rewind
                        cursor = bisect_left(keys, key)
                    first = False
                    previous = key
                except TypeError:
                    # A left key unorderable against the sorted keys can
                    # still match by equality — probe a lazy dict view.
                    if lookup is None:
                        lookup = _buckets(keys, rows)
                    for right_row in lookup.get(key, ()):
                        append(left_row + right_row)
                    continue
                match = cursor
                while match < n and keys[match] == key:
                    append(left_row + rows[match])
                    match += 1
            if out:
                yield out

    def _describe(self) -> str:
        order = "presorted" if self.sorted_hint else "sort"
        return (
            f"MergeJoin(INNER, on {self.key_name}, join=merge, input={order})"
        )

    def _children(self) -> list[Plan]:
        return [self.left, self.right]


def _buckets(keys: list, rows: list[tuple]) -> dict[object, list[tuple]]:
    """Group rows by key, each bucket in input order."""
    buckets: dict[object, list[tuple]] = {}
    for key, row in zip(keys, rows):
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [row]
        else:
            bucket.append(row)
    return buckets


class IndexNestedLoopJoinPlan(Plan):
    """INNER equi-join probing the inner table's hash index per outer key.

    Instead of building a transient hash table from a full inner scan,
    each distinct outer key probes :meth:`Table.version_index_lookup` on
    the inner join column — the index is built once per table version
    and shared across statements, so the cost model amortises the build
    away for repeatedly-joined tables.  Lookups return matches in rid
    (scan) order, making the output left-major with inner matches in
    scan order — bit-identical to the nested-loop / hash / merge plans.
    Numeric key columns only (CHAR keys would need padding-normalised
    index entries), and the planner never attaches index probes or zone
    checks to the inner scan: this operator replaces its access path.
    """

    def __init__(
        self,
        left: Plan,
        scan: TableScanPlan,
        left_key: BatchFn,
        column: str,
        key_name: str = "",
    ):
        self.left = left
        self.scan = scan
        self.left_key = left_key
        self.column = column
        self.key_name = key_name
        self.schema = left.schema + scan.schema
        self.index_probes = 0

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Yield one chunk per left chunk, probing once per distinct key."""
        table = self.scan._table
        version = self.scan._version(ctx)
        lookup = table.version_index_lookup
        column = self.column
        left_key = self.left_key
        cache: dict[object, list[tuple]] = {}
        for chunk in self.left.batches(ctx, size):
            out: list[tuple] = []
            for left_row, value in zip(chunk, left_key(chunk, ctx)):
                if value is None:
                    continue
                key = _join_key_part(value)
                matches = cache.get(key)
                if matches is None:
                    matches = lookup(version, column, value)
                    cache[key] = matches
                    self.index_probes += 1
                for right_row in matches:
                    out.append(left_row + right_row)
            if out:
                yield out

    def _describe(self) -> str:
        return (
            f"IndexNestedLoopJoin({self.scan._name}.{self.column}, "
            f"on {self.key_name}, join=indexnlj)"
        )

    def _children(self) -> list[Plan]:
        return [self.left, self.scan]


#: Bind joins fall back to an unbound fetch beyond this many distinct
#: outer keys (an IN list that long would dwarf the transfer savings).
MAX_BIND_KEYS = 200


class RemoteBindJoinPlan(Plan):
    """Bind join into a remote nickname (parameterized semijoin pushdown).

    Chosen by the cost-based optimizer for an equi-conjunct
    ``outer.col = nickname.col``: the outer side is materialised first,
    its distinct join-key values are shipped as an ``IN`` (or ``=``)
    predicate in the remote statement's WHERE clause, and the narrowed
    remote result is hash-joined back.  Rows and their order are
    bit-identical to the syntactic plan (cross product + filter): output
    is outer-major with remote matches in remote-scan order, and the
    remote side filters during its own scan, preserving relative order.

    When the outer side produces more than ``max_keys`` distinct keys the
    fetch degrades gracefully to the unbound scan (same rows, no bind
    predicate); with zero non-NULL outer keys the fetch is skipped
    entirely — an inner equality cannot match.
    """

    def __init__(
        self,
        left: Plan,
        scan: RemoteScanPlan,
        left_key: BatchFn,
        bind_column: str,
        remote_key_index: int,
        max_keys: int = MAX_BIND_KEYS,
    ):
        self.left = left
        self.scan = scan
        self.left_key = left_key
        self.bind_column = bind_column
        self.remote_key_index = remote_key_index
        self.max_keys = max_keys
        self.schema = left.schema + scan.schema
        self.bound_fetches = 0
        self.unbound_fetches = 0

    def _bind_predicate(self, key_values: list[object]) -> str:
        column = ast.ColumnRef(None, self.bind_column)
        if len(key_values) == 1:
            return ast.BinaryOp("=", column, ast.Literal(key_values[0])).render()
        items: list[ast.Expression] = [ast.Literal(value) for value in key_values]
        return ast.InList(column, items).render()

    def _outer(self, ctx: EvalContext, size: int) -> tuple[list[tuple], list, list]:
        """The materialised outer rows, their key values, and the
        distinct non-NULL key values in first-occurrence order."""
        left_rows = self.left.rows(ctx, size)
        left_values = self.left_key(left_rows, ctx)
        key_values: list[object] = []
        seen: set = set()
        for value in left_values:
            if value is None:
                continue
            normalised = _join_key_part(value)
            if normalised not in seen:
                seen.add(normalised)
                key_values.append(value)
        return left_rows, left_values, key_values

    def _emit(
        self,
        left_rows: list[tuple],
        left_values: list,
        ctx: EvalContext,
        predicates: list[str],
    ) -> list[tuple]:
        """Fetch the (possibly bound) remote side and hash-join it back:
        outer-major, remote matches in remote-scan order."""
        buckets: dict[object, list[tuple]] = {}
        key_index = self.remote_key_index
        for remote_row in self.scan.fetcher.fetch(ctx, predicates):
            value = remote_row[key_index]
            if value is None:
                continue
            bucket = buckets.setdefault(_join_key_part(value), [])
            bucket.append(remote_row)
        out: list[tuple] = []
        for left_row, value in zip(left_rows, left_values):
            if value is None:
                continue
            for remote_row in buckets.get(_join_key_part(value), ()):
                out.append(left_row + remote_row)
        return out

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Materialise the outer side, ship its keys, yield the join."""
        left_rows, left_values, key_values = self._outer(ctx, size)
        if not key_values:
            return  # inner equality over all-NULL outer keys: no matches
        predicates = list(self.scan.pushed_predicates)
        layer = getattr(self.scan.fetcher, "layer", None)
        if len(key_values) <= self.max_keys:
            predicates.append(self._bind_predicate(key_values))
            self.bound_fetches += 1
            if layer is not None:
                layer.bind_join_count += 1
        else:
            # Runtime guard: the optimizer's gate is estimate-based, so
            # the *actual* distinct keys can exceed it (stale RUNSTATS
            # after DML).  Ship-all instead of an oversized IN list —
            # the hash probe below enforces the equi-conjunct either way.
            self.unbound_fetches += 1
            if layer is not None:
                layer.bind_join_fallbacks += 1
        yield from _chunked(self._emit(left_rows, left_values, ctx, predicates), size)

    def _describe(self) -> str:
        return f"BindJoin({self.scan._name}, bind: {self.bind_column})"

    def _children(self) -> list[Plan]:
        return [self.left, self.scan]


class AdaptiveRemoteJoinPlan(RemoteBindJoinPlan):
    """Ship-all remote join with a mid-query bind-join escape hatch.

    Emitted (only when the engine's adaptive blowup factor is set) where
    the cost model *rejected* a bind join — the estimated bound transfer
    did not beat shipping the whole remote side, or the estimated key
    count blew the IN-list cap.  Those estimates can be stale, so before
    paying the full transfer the operator ships one ``SELECT COUNT(*)``
    probe (a single roundtrip returning one row) against the same pushed
    predicates.  When the observed build side exceeds the estimate by
    the configured factor — and the actual distinct keys fit the cap —
    execution falls back to the bind join mid-query.  Both paths produce
    identical rows; only the transfer cost differs.
    """

    def __init__(
        self,
        left: Plan,
        scan: RemoteScanPlan,
        left_key: BatchFn,
        bind_column: str,
        remote_key_index: int,
        est_build: int,
        blowup_factor: float,
        max_keys: int = MAX_BIND_KEYS,
        note: Callable[[], None] | None = None,
    ):
        super().__init__(
            left, scan, left_key, bind_column, remote_key_index, max_keys
        )
        self.est_build = est_build
        self.blowup_factor = blowup_factor
        self.note = note
        self.midquery_fallbacks = 0
        #: Build-side cardinality the COUNT(*) probe observed last run.
        self.last_probed_build: int | None = None

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Materialise the outer side, probe the build side's size, then
        join ship-all or — past the blowup factor — bound."""
        left_rows, left_values, key_values = self._outer(ctx, size)
        if not key_values:
            return  # inner equality over all-NULL outer keys: no matches
        predicates = list(self.scan.pushed_predicates)
        actual_build = self.scan.fetcher.count(ctx, predicates)
        self.last_probed_build = actual_build
        if (
            actual_build > self.est_build * self.blowup_factor
            and len(key_values) <= self.max_keys
        ):
            predicates.append(self._bind_predicate(key_values))
            self.bound_fetches += 1
            self.midquery_fallbacks += 1
            layer = getattr(self.scan.fetcher, "layer", None)
            if layer is not None:
                layer.bind_join_count += 1
            if self.note is not None:
                self.note()
        else:
            self.unbound_fetches += 1
        yield from _chunked(self._emit(left_rows, left_values, ctx, predicates), size)

    def _describe(self) -> str:
        return (
            f"AdaptiveJoin({self.scan._name}, bind: {self.bind_column}, "
            f"blowup>{self.blowup_factor:g}x)"
        )


class BatchFunctionInvoker(Protocol):
    """Invokes a table function once per argument tuple, amortizing
    fixed per-call overheads where the runtime supports it."""

    def __call__(
        self,
        function: TableFunction,
        args_list: list[list[object]],
        ctx: EvalContext,
    ) -> list[list[tuple]]: ...


class UdtfBindJoinPlan(Plan):
    """Bind join into a lateral DETERMINISTIC table function.

    The outer side is materialised, the argument tuples it produces are
    deduplicated in first-occurrence order, and the function is invoked
    once per *distinct* tuple through a batch invoker — the fenced
    runtime amortizes prepare, RMI channel and finish overheads across
    the whole batch, mirroring the paper's input-container parameter
    passing.  Requires a DETERMINISTIC function: invocation count per
    distinct argument tuple matches the per-statement cache of the
    syntactic plan, so rows are bit-identical.
    """

    def __init__(self, left: Plan, right: TableFunctionRightSide, batch_invoker):
        self.left = left
        self.right = right
        self.batch_invoker = batch_invoker
        self.schema = left.schema + right.schema
        self.batched_invocations = 0

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Materialise the outer side, invoke the function once per
        distinct argument tuple, then yield the join."""
        left_rows = self.left.rows(ctx, size)
        arg_exprs = self.right.arg_exprs
        per_row_keys: list[tuple | None] = []
        distinct_args: list[list[object]] = []
        key_order: dict[tuple, int] = {}
        fallback: dict[int, list[object]] = {}
        for index, left_row in enumerate(left_rows):
            args = [expr(left_row, ctx) for expr in arg_exprs]
            try:
                key = tuple(args)
                hash(key)
            except TypeError:  # unhashable argument: invoke individually
                per_row_keys.append(None)
                fallback[index] = args
                continue
            if key not in key_order:
                key_order[key] = len(distinct_args)
                distinct_args.append(args)
            per_row_keys.append(key)
        results: list[list[tuple]] = []
        if distinct_args:
            results = self.batch_invoker(self.right.function, distinct_args, ctx)
            self.batched_invocations += 1
            self.right.invocations += len(distinct_args)
            self.right.cache_hits += sum(
                1 for key in per_row_keys if key is not None
            ) - len(distinct_args)
        out: list[tuple] = []
        for index, left_row in enumerate(left_rows):
            key = per_row_keys[index]
            if key is None:
                self.right.invocations += 1
                rows = self.right.invoker(self.right.function, fallback[index], ctx)
            else:
                rows = results[key_order[key]]
            for right_row in rows:
                out.append(left_row + right_row)
        yield from _chunked(out, size)

    def _describe(self) -> str:
        return f"BindJoin(TABLE({self.right.function.name}) {self.right.alias})"

    def _children(self) -> list[Plan]:
        return [self.left]


class FilterPlan(Plan):
    """WHERE / HAVING filter."""

    def __init__(self, input_plan: Plan, predicate: BatchFn, label: str = "Filter"):
        self.input = input_plan
        self.predicate = predicate
        self.schema = input_plan.schema
        self._label = label
        #: Rendered texts of the conjuncts this filter evaluates locally
        #: after predicate pushdown split some off (attached by the
        #: planner so EXPLAIN shows the residual set explicitly).
        self.residual_texts: list[str] | None = None

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Yield the rows of each chunk whose predicate value is TRUE."""
        predicate = self.predicate
        for chunk in self.input.batches(ctx, size):
            mask = predicate(chunk, ctx)
            out = [row for row, keep in zip(chunk, mask) if keep is True]
            if out:
                yield out

    def _describe(self) -> str:
        if self.residual_texts:
            residual = " AND ".join(self.residual_texts)
            return f"{self._label} [residual: {residual}]"
        return self._label

    def _children(self) -> list[Plan]:
        return [self.input]


class ProjectPlan(Plan):
    """Computes the select list (plus hidden sort keys, if any)."""

    def __init__(
        self,
        input_plan: Plan,
        exprs: list[BatchFn],
        schema: list[ColumnSlot],
    ):
        self.input = input_plan
        self.exprs = exprs
        self.schema = schema

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Yield chunks projected column-wise."""
        exprs = self.exprs
        for chunk in self.input.batches(ctx, size):
            if not exprs:
                yield [()] * len(chunk)
                continue
            yield list(zip(*[fn(chunk, ctx) for fn in exprs]))

    def _describe(self) -> str:
        return f"Project({', '.join(s.name for s in self.schema)})"

    def _children(self) -> list[Plan]:
        return [self.input]


class AggregateSpec:
    """One aggregate computation: function name and input expression.

    ``fold_chunks`` lets SUM/MIN/MAX fold a whole chunk with the C-level
    builtins; without it values fold one at a time, so float sums
    accumulate in row order.
    """

    def __init__(
        self,
        name: str,
        arg: BatchFn | None,
        distinct: bool = False,
        fold_chunks: bool = False,
    ):
        self.name = name.upper()
        self.arg = arg  # None means COUNT(*)
        self.distinct = distinct
        self.fold_chunks = fold_chunks

    def new_state(self) -> "_AggState":
        """Fresh running state for one group."""
        return _AggState(self)


class _AggState:
    """Running state of one aggregate within one group."""

    def __init__(self, spec: AggregateSpec):
        self.spec = spec
        self.count = 0
        self.total: object = None
        self.best: object = None
        self.seen: set | None = set() if spec.distinct else None

    def update_value(self, value: object) -> None:
        """Fold one already-evaluated argument value into the state."""
        if self.spec.arg is None:  # COUNT(*): every row counts
            self.count += 1
            return
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        name = self.spec.name
        if name in ("SUM", "AVG"):
            self.total = value if self.total is None else self.total + value
        elif name == "MIN":
            self.best = value if self.best is None or value < self.best else self.best
        elif name == "MAX":
            self.best = value if self.best is None or value > self.best else self.best

    def update_chunk(self, values: list | None, count: int) -> None:
        """Fold a whole chunk of argument values at once.

        ``values`` is None for COUNT(*) (``count`` rows, no argument).
        With ``fold_chunks`` set, SUM/MIN/MAX over plain numeric chunks
        use the C-level builtins; anything they cannot fold (mixed or
        exotic operand types) falls back to the exact per-value path.
        """
        if self.spec.arg is None:
            self.count += count
            return
        assert values is not None
        # DISTINCT must see every value in order; so must a value-wise fold.
        if self.seen is not None or not self.spec.fold_chunks:
            for value in values:
                self.update_value(value)
            return
        live = [value for value in values if value is not None]
        if not live:
            return
        name = self.spec.name
        try:
            if name in ("SUM", "AVG"):
                folded = sum(live)
            elif name == "MIN":
                folded = min(live)
            elif name == "MAX":
                folded = max(live)
            else:  # COUNT(expr)
                self.count += len(live)
                return
        except TypeError:
            for value in live:
                self.update_value(value)
            return
        self.count += len(live)
        if name in ("SUM", "AVG"):
            self.total = folded if self.total is None else self.total + folded
        elif name == "MIN":
            self.best = folded if self.best is None or folded < self.best else self.best
        elif name == "MAX":
            self.best = folded if self.best is None or folded > self.best else self.best

    def result(self) -> object:
        name = self.spec.name
        if name == "COUNT":
            return self.count
        if name == "SUM":
            return self.total
        if name == "AVG":
            if self.count == 0:
                return None
            # Always a float: unlike DB2, AVG over integers does not
            # truncate to an integer.
            return self.total / self.count  # type: ignore[operator]
        if name in ("MIN", "MAX"):
            return self.best
        raise ExecutionError(f"unknown aggregate {name}")  # pragma: no cover


class AggregatePlan(Plan):
    """Hash aggregation over optional group keys.

    Output rows are ``group_values + aggregate_results`` matching the
    synthetic post-aggregate layout the planner compiles select items
    against.
    """

    def __init__(
        self,
        input_plan: Plan,
        group_exprs: list[BatchFn],
        aggregates: list[AggregateSpec],
        schema: list[ColumnSlot],
    ):
        self.input = input_plan
        self.group_exprs = group_exprs
        self.aggregates = aggregates
        self.schema = schema

    def _argument_columns(self, chunk: list[tuple], ctx: EvalContext) -> list[list | None]:
        """One evaluated value column per aggregate (None for COUNT(*))."""
        return [
            None if spec.arg is None else spec.arg(chunk, ctx)
            for spec in self.aggregates
        ]

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Yield chunks of aggregated rows, folding input chunk-wise."""
        if not self.group_exprs:
            states = [spec.new_state() for spec in self.aggregates]
            for chunk in self.input.batches(ctx, size):
                columns = self._argument_columns(chunk, ctx)
                for state, column in zip(states, columns):
                    state.update_chunk(column, len(chunk))
            yield [tuple(state.result() for state in states)]
            return
        groups: dict[tuple, list[_AggState]] = {}
        order: list[tuple] = []
        group_exprs = self.group_exprs
        for chunk in self.input.batches(ctx, size):
            keys = list(zip(*[fn(chunk, ctx) for fn in group_exprs]))
            columns = self._argument_columns(chunk, ctx)
            for index, key in enumerate(keys):
                states = groups.get(key)
                if states is None:
                    states = [spec.new_state() for spec in self.aggregates]
                    groups[key] = states
                    order.append(key)
                for state, column in zip(states, columns):
                    state.update_value(column[index] if column is not None else None)
        out = [key + tuple(state.result() for state in groups[key]) for key in order]
        yield from _chunked(out, size)

    def _describe(self) -> str:
        return f"Aggregate(groups={len(self.group_exprs)}, aggs={len(self.aggregates)})"

    def _children(self) -> list[Plan]:
        return [self.input]


class SortPlan(Plan):
    """Sorts on key extractors over the input rows.

    Keys are either integer positions or chunk closures (ORDER BY
    expressions compiled against the output schema), each evaluated once
    over the materialised input.
    """

    def __init__(
        self,
        input_plan: Plan,
        keys: list[tuple[int | BatchFn, bool]],
    ):
        self.input = input_plan
        self.keys = keys  # (position or extractor, ascending)
        self.schema = input_plan.schema

    def _sorted(self, materialised: list[tuple], ctx: EvalContext) -> list[tuple]:
        # Stable multi-key sort of row positions: apply keys right-to-left.
        order = list(range(len(materialised)))
        for key, ascending in reversed(self.keys):
            if isinstance(key, int):
                wrapped = [_SortKey(row[key]) for row in materialised]
            else:
                wrapped = [_SortKey(value) for value in key(materialised, ctx)]
            order.sort(key=wrapped.__getitem__, reverse=not ascending)
        return [materialised[index] for index in order]

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Materialise input chunks, sort once, re-chunk the output."""
        materialised: list[tuple] = []
        for chunk in self.input.batches(ctx, size):
            materialised.extend(chunk)
        yield from _chunked(self._sorted(materialised, ctx), size)

    def _describe(self) -> str:
        return "Sort"

    def _children(self) -> list[Plan]:
        return [self.input]


class _SortKey:
    """Ordering wrapper: NULLs sort last ascending, comparable values
    compare naturally."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None:
            return False
        if b is None:
            return True
        return a < b  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.value == other.value


class CutPlan(Plan):
    """Trims hidden trailing sort-key columns after sorting."""

    def __init__(self, input_plan: Plan, width: int, schema: list[ColumnSlot]):
        self.input = input_plan
        self.width = width
        self.schema = schema

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Yield chunks with hidden sort-key columns trimmed."""
        width = self.width
        for chunk in self.input.batches(ctx, size):
            yield [row[:width] for row in chunk]

    def _describe(self) -> str:
        return f"Cut({self.width})"

    def _children(self) -> list[Plan]:
        return [self.input]


class DistinctPlan(Plan):
    """Removes duplicate rows, preserving first occurrence."""

    def __init__(self, input_plan: Plan):
        self.input = input_plan
        self.schema = input_plan.schema

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Yield chunks with duplicates removed (first occurrence wins)."""
        seen: set[tuple] = set()
        add = seen.add
        for chunk in self.input.batches(ctx, size):
            out = []
            for row in chunk:
                if row not in seen:
                    add(row)
                    out.append(row)
            if out:
                yield out

    def _describe(self) -> str:
        return "Distinct"

    def _children(self) -> list[Plan]:
        return [self.input]


class LimitPlan(Plan):
    """FETCH FIRST n ROWS ONLY."""

    def __init__(self, input_plan: Plan, limit: int):
        self.input = input_plan
        self.limit = limit
        self.schema = input_plan.schema

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Yield chunks until the row budget is spent."""
        remaining = self.limit
        if remaining <= 0:
            return
        for chunk in self.input.batches(ctx, size):
            if len(chunk) >= remaining:
                yield chunk[:remaining]
                return
            remaining -= len(chunk)
            yield chunk

    def _describe(self) -> str:
        return f"Limit({self.limit})"

    def _children(self) -> list[Plan]:
        return [self.input]


class UnionPlan(Plan):
    """UNION / UNION ALL of equally wide branches."""

    def __init__(self, branches: Sequence[Plan], all_: bool):
        if not branches:
            raise ExecutionError("UNION requires at least one branch")
        widths = {len(b.schema) for b in branches}
        if len(widths) != 1:
            raise ExecutionError("UNION branches must have the same column count")
        self.branches = list(branches)
        self.all = all_
        self.schema = self.branches[0].schema

    def batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator[list[tuple]]:
        """Yield each branch's chunks in turn (deduplicated unless ALL)."""
        if self.all:
            for branch in self.branches:
                yield from branch.batches(ctx, size)
            return
        seen: set[tuple] = set()
        add = seen.add
        for branch in self.branches:
            for chunk in branch.batches(ctx, size):
                out = []
                for row in chunk:
                    if row not in seen:
                        add(row)
                        out.append(row)
                if out:
                    yield out

    def _describe(self) -> str:
        return f"Union(all={self.all})"

    def _children(self) -> list[Plan]:
        return self.branches
