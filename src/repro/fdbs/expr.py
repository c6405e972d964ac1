"""Expression compilation and evaluation with SQL NULL semantics.

Expressions are compiled once per statement into Python closures over a
*row layout* (the flat tuple the executor threads through the plan) and
an :class:`EvalContext` (statement parameters plus a subquery runner).
Three-valued logic is represented with Python ``None`` as SQL NULL.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable

from repro.errors import ExecutionError, PlanError, TypeError_
from repro.fdbs import ast
from repro.fdbs.types import (
    BIGINT,
    BOOLEAN,
    DOUBLE,
    INTEGER,
    SqlType,
    VARCHAR,
    cast_value,
    common_supertype,
    explicitly_castable,
    infer_type,
    is_character,
    is_numeric,
    parse_type,
)

AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

#: Type keywords usable as cast-style scalar functions, e.g. ``BIGINT(x)``
#: from the paper's simple case.
CAST_FUNCTION_NAMES = frozenset(
    {"SMALLINT", "INT", "INTEGER", "BIGINT", "DOUBLE", "FLOAT", "CHAR", "VARCHAR", "DECIMAL"}
)


@dataclass(frozen=True)
class ColumnSlot:
    """One column of the executor's flat row layout."""

    alias: str | None
    name: str
    type: SqlType | None


class RowLayout:
    """Resolves qualified / unqualified names to row positions."""

    def __init__(self, slots: list[ColumnSlot]):
        self.slots = slots

    def extend(self, more: list[ColumnSlot]) -> "RowLayout":
        """A new layout with extra trailing slots."""
        return RowLayout(self.slots + more)

    def resolve(self, qualifier: str | None, name: str) -> tuple[int, ColumnSlot] | None:
        """Find the unique slot for a reference; None if not found.

        Raises :class:`~repro.errors.PlanError` on ambiguity.
        """
        target = name.upper()
        qual = qualifier.upper() if qualifier else None
        matches = [
            (index, slot)
            for index, slot in enumerate(self.slots)
            if slot.name.upper() == target
            and (qual is None or (slot.alias or "").upper() == qual)
        ]
        if not matches:
            return None
        if len(matches) > 1:
            shown = qualifier + "." + name if qualifier else name
            raise PlanError(f"ambiguous column reference {shown!r}")
        return matches[0]

    def aliases(self) -> set[str]:
        """Upper-cased correlation names present in the layout."""
        return {(s.alias or "").upper() for s in self.slots if s.alias}

    def __len__(self) -> int:
        return len(self.slots)


@dataclass
class ParamScope:
    """Named parameters visible to an expression.

    In an I-UDTF body, parameters are referenced qualified with the
    *function name* (``BuySuppComp.SupplierNo``) or unqualified; both
    resolve here.  ``qualifier`` is the function name, or None for
    top-level statements (which only see positional ``?`` markers).
    """

    qualifier: str | None = None
    names: dict[str, tuple[int, SqlType | None]] = field(default_factory=dict)

    def resolve(self, qualifier: str | None, name: str) -> tuple[int, SqlType | None] | None:
        """(index, type) of a visible parameter, or None."""
        if qualifier is not None:
            if self.qualifier is None or qualifier.upper() != self.qualifier.upper():
                return None
        return self.names.get(name.upper())


class EvalContext:
    """Runtime context for compiled expressions."""

    def __init__(
        self,
        params: list[object] | None = None,
        subquery_runner: Callable[[ast.Select], list[tuple]] | None = None,
        trace: object | None = None,
        snapshot: object | None = None,
    ):
        self.params = params or []
        self.subquery_runner = subquery_runner
        #: Optional TraceRecorder threaded through to function invocations.
        self.trace = trace
        #: The MVCC snapshot this statement pinned (a storage.Snapshot);
        #: table scans resolve their TableVersion through it so every
        #: read of the statement sees one consistent database state.
        self.snapshot = snapshot

    def run_subquery(self, select: ast.Select) -> list[tuple]:
        """Execute an uncorrelated subquery via the runner hook."""
        if self.subquery_runner is None:
            raise ExecutionError("subqueries are not available in this context")
        return self.subquery_runner(select)


EvalFn = Callable[[tuple, EvalContext], object]


@dataclass
class CompiledExpr:
    """A compiled expression: an eval closure plus its inferred type."""

    fn: EvalFn
    type: SqlType | None
    source: ast.Expression

    def __call__(self, row: tuple, ctx: EvalContext) -> object:
        return self.fn(row, ctx)


# ---------------------------------------------------------------------------
# Scalar builtins
# ---------------------------------------------------------------------------


def _builtin_upper(v):
    return None if v is None else str(v).upper()


def _builtin_lower(v):
    return None if v is None else str(v).lower()


def _builtin_length(v):
    return None if v is None else len(str(v))


def _builtin_abs(v):
    return None if v is None else abs(v)


def _builtin_mod(a, b):
    if a is None or b is None:
        return None
    if b == 0:
        raise ExecutionError("division by zero in MOD")
    return a % b

def _builtin_substr(s, start, length=None):
    if s is None or start is None:
        return None
    begin = max(int(start) - 1, 0)
    if length is None:
        return str(s)[begin:]
    return str(s)[begin : begin + int(length)]


def _builtin_trim(s):
    return None if s is None else str(s).strip()


def _builtin_round(v, digits=0):
    if v is None:
        return None
    return round(v, int(digits or 0))


def _builtin_floor(v):
    import math

    return None if v is None else math.floor(v)


def _builtin_ceil(v):
    import math

    return None if v is None else math.ceil(v)


def _builtin_coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


def _builtin_nullif(a, b):
    if a is None:
        return None
    return None if a == b else a


def _builtin_concat(a, b):
    if a is None or b is None:
        return None
    return str(a) + str(b)


_BUILTINS: dict[str, tuple[Callable[..., object], tuple[int, int], SqlType | None]] = {
    # name -> (callable, (min_args, max_args), result type or None=dynamic)
    "UPPER": (_builtin_upper, (1, 1), None),
    "UCASE": (_builtin_upper, (1, 1), None),
    "LOWER": (_builtin_lower, (1, 1), None),
    "LCASE": (_builtin_lower, (1, 1), None),
    "LENGTH": (_builtin_length, (1, 1), INTEGER),
    "ABS": (_builtin_abs, (1, 1), None),
    "MOD": (_builtin_mod, (2, 2), None),
    "SUBSTR": (_builtin_substr, (2, 3), None),
    "TRIM": (_builtin_trim, (1, 1), None),
    "ROUND": (_builtin_round, (1, 2), None),
    "FLOOR": (_builtin_floor, (1, 1), BIGINT),
    "CEIL": (_builtin_ceil, (1, 1), BIGINT),
    "CEILING": (_builtin_ceil, (1, 1), BIGINT),
    "COALESCE": (_builtin_coalesce, (1, 99), None),
    "VALUE": (_builtin_coalesce, (1, 99), None),
    "NULLIF": (_builtin_nullif, (2, 2), None),
    "CONCAT": (_builtin_concat, (2, 2), None),
}


def is_aggregate_call(expr: ast.Expression) -> bool:
    """True for COUNT/SUM/AVG/MIN/MAX calls."""
    return isinstance(expr, ast.FunctionCall) and expr.name.upper() in AGGREGATE_NAMES


def contains_aggregate(expr: ast.Expression) -> bool:
    """True if any node below ``expr`` is an aggregate call."""
    if is_aggregate_call(expr):
        return True
    for child in _children(expr):
        if contains_aggregate(child):
            return True
    return False


def _children(expr: ast.Expression) -> list[ast.Expression]:
    if isinstance(expr, ast.BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, ast.UnaryOp):
        return [expr.operand]
    if isinstance(expr, ast.FunctionCall):
        return list(expr.args)
    if isinstance(expr, ast.Cast):
        return [expr.operand]
    if isinstance(expr, ast.IsNull):
        return [expr.operand]
    if isinstance(expr, ast.InList):
        return [expr.operand, *expr.items]
    if isinstance(expr, (ast.InSubquery,)):
        return [expr.operand]
    if isinstance(expr, ast.Like):
        return [expr.operand, expr.pattern]
    if isinstance(expr, ast.Between):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, ast.Case):
        children = [] if expr.operand is None else [expr.operand]
        for when in expr.whens:
            children.extend([when.condition, when.result])
        if expr.else_result is not None:
            children.append(expr.else_result)
        return children
    return []


def like_to_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern to an anchored regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


class ExpressionCompiler:
    """Compiles AST expressions against a layout and parameter scope."""

    def __init__(
        self,
        layout: RowLayout,
        params: ParamScope | None = None,
        subquery_compiler: Callable[[ast.Select], Callable[[EvalContext], list[tuple]]] | None = None,
        table_function_names: Callable[[str], bool] | None = None,
    ):
        self.layout = layout
        self.params = params or ParamScope()
        self.subquery_compiler = subquery_compiler
        self.table_function_names = table_function_names

    def compile(self, expr: ast.Expression) -> CompiledExpr:
        """Compile one expression tree."""
        method = getattr(self, "_compile_" + type(expr).__name__.lower(), None)
        if method is None:
            raise PlanError(f"unsupported expression: {expr.render()}")
        return method(expr)

    # -- leaves -----------------------------------------------------------------

    def _compile_literal(self, expr: ast.Literal) -> CompiledExpr:
        value = expr.value
        inferred = None if value is None else infer_type(value)
        return CompiledExpr(lambda row, ctx: value, inferred, expr)

    def _compile_columnref(self, expr: ast.ColumnRef) -> CompiledExpr:
        resolved = self.layout.resolve(expr.qualifier, expr.name)
        if resolved is not None:
            index, slot = resolved
            return CompiledExpr(lambda row, ctx: row[index], slot.type, expr)
        param = self.params.resolve(expr.qualifier, expr.name)
        if param is not None:
            pindex, ptype = param
            return CompiledExpr(lambda row, ctx: ctx.params[pindex], ptype, expr)
        shown = expr.render()
        if expr.qualifier and expr.qualifier.upper() in self.layout.aliases():
            raise PlanError(f"unknown column {shown!r}")
        raise PlanError(f"cannot resolve reference {shown!r}")

    def _compile_parameter(self, expr: ast.Parameter) -> CompiledExpr:
        index = expr.index

        def fetch(row: tuple, ctx: EvalContext) -> object:
            if index >= len(ctx.params):
                raise ExecutionError(
                    f"statement parameter ?{index + 1} was not bound"
                )
            return ctx.params[index]

        return CompiledExpr(fetch, None, expr)

    def _compile_star(self, expr: ast.Star) -> CompiledExpr:
        raise PlanError("'*' is only valid in a select list or COUNT(*)")

    # -- operators ------------------------------------------------------------------

    def _compile_binaryop(self, expr: ast.BinaryOp) -> CompiledExpr:
        op = expr.op.upper()
        if op in ("AND", "OR"):
            return self._compile_logical(expr, op)
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return self._compile_comparison(expr, op, left, right)
        if op == "||":
            def concat(row, ctx):
                a = left(row, ctx)
                b = right(row, ctx)
                if a is None or b is None:
                    return None
                return str(a) + str(b)

            return CompiledExpr(concat, VARCHAR(), expr)
        if op in ("+", "-", "*", "/"):
            result_type = self._numeric_result(left.type, right.type)

            def arith(row, ctx, _op=op):
                a = left(row, ctx)
                b = right(row, ctx)
                if a is None or b is None:
                    return None
                _check_number(a, expr.left)
                _check_number(b, expr.right)
                if _op == "+":
                    return a + b
                if _op == "-":
                    return a - b
                if _op == "*":
                    return a * b
                if b == 0:
                    raise ExecutionError("division by zero")
                if isinstance(a, int) and isinstance(b, int):
                    # SQL integer division truncates toward zero.
                    quotient = abs(a) // abs(b)
                    return quotient if (a >= 0) == (b >= 0) else -quotient
                return a / b

            return CompiledExpr(arith, result_type, expr)
        raise PlanError(f"unsupported operator {expr.op!r}")

    def _numeric_result(self, a: SqlType | None, b: SqlType | None) -> SqlType | None:
        if a is None or b is None:
            return None
        try:
            return common_supertype(a, b)
        except TypeError_:
            raise PlanError(
                f"operands of arithmetic must be numeric, got {a} and {b}"
            ) from None

    def _compile_logical(self, expr: ast.BinaryOp, op: str) -> CompiledExpr:
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if op == "AND":

            def and_(row, ctx):
                a = _as_bool(left(row, ctx))
                if a is False:
                    return False
                b = _as_bool(right(row, ctx))
                if b is False:
                    return False
                if a is None or b is None:
                    return None
                return True

            return CompiledExpr(and_, BOOLEAN, expr)

        def or_(row, ctx):
            a = _as_bool(left(row, ctx))
            if a is True:
                return True
            b = _as_bool(right(row, ctx))
            if b is True:
                return True
            if a is None or b is None:
                return None
            return False

        return CompiledExpr(or_, BOOLEAN, expr)

    def _compile_comparison(
        self, expr: ast.BinaryOp, op: str, left: CompiledExpr, right: CompiledExpr
    ) -> CompiledExpr:
        def compare(row, ctx):
            a = left(row, ctx)
            b = right(row, ctx)
            if a is None or b is None:
                return None
            a, b = _align(a, b, expr)
            if op == "=":
                return a == b
            if op == "<>":
                return a != b
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            return a >= b

        return CompiledExpr(compare, BOOLEAN, expr)

    def _compile_unaryop(self, expr: ast.UnaryOp) -> CompiledExpr:
        operand = self.compile(expr.operand)
        if expr.op.upper() == "NOT":

            def not_(row, ctx):
                value = _as_bool(operand(row, ctx))
                return None if value is None else not value

            return CompiledExpr(not_, BOOLEAN, expr)

        def negate(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            _check_number(value, expr.operand)
            return -value

        return CompiledExpr(negate, operand.type, expr)

    # -- predicates ------------------------------------------------------------------

    def _compile_isnull(self, expr: ast.IsNull) -> CompiledExpr:
        operand = self.compile(expr.operand)
        negated = expr.negated

        def isnull(row, ctx):
            value = operand(row, ctx)
            return (value is not None) if negated else (value is None)

        return CompiledExpr(isnull, BOOLEAN, expr)

    def _compile_inlist(self, expr: ast.InList) -> CompiledExpr:
        operand = self.compile(expr.operand)
        items = [self.compile(i) for i in expr.items]
        negated = expr.negated

        def in_list(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row, ctx)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return not negated
            if saw_null:
                return None
            return negated

        return CompiledExpr(in_list, BOOLEAN, expr)

    def _compile_insubquery(self, expr: ast.InSubquery) -> CompiledExpr:
        operand = self.compile(expr.operand)
        runner = self._compile_subquery(expr.subquery)
        negated = expr.negated

        def in_subquery(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            rows = runner(ctx)
            saw_null = False
            for candidate in rows:
                if len(candidate) != 1:
                    raise ExecutionError("IN subquery must return one column")
                if candidate[0] is None:
                    saw_null = True
                elif candidate[0] == value:
                    return not negated
            if saw_null:
                return None
            return negated

        return CompiledExpr(in_subquery, BOOLEAN, expr)

    def _compile_exists(self, expr: ast.Exists) -> CompiledExpr:
        runner = self._compile_subquery(expr.subquery)
        negated = expr.negated

        def exists(row, ctx):
            result = bool(runner(ctx))
            return not result if negated else result

        return CompiledExpr(exists, BOOLEAN, expr)

    def _compile_scalarsubquery(self, expr: ast.ScalarSubquery) -> CompiledExpr:
        runner = self._compile_subquery(expr.subquery)

        def scalar(row, ctx):
            rows = runner(ctx)
            if not rows:
                return None
            if len(rows) > 1:
                raise ExecutionError("scalar subquery returned more than one row")
            if len(rows[0]) != 1:
                raise ExecutionError("scalar subquery must return one column")
            return rows[0][0]

        return CompiledExpr(scalar, None, expr)

    def _compile_subquery(self, select: ast.Select) -> Callable[[EvalContext], list[tuple]]:
        if self.subquery_compiler is not None:
            return self.subquery_compiler(select)

        def runtime(ctx: EvalContext) -> list[tuple]:
            return ctx.run_subquery(select)

        return runtime

    def _compile_like(self, expr: ast.Like) -> CompiledExpr:
        operand = self.compile(expr.operand)
        pattern = self.compile(expr.pattern)
        negated = expr.negated
        static: re.Pattern | None = None
        if isinstance(expr.pattern, ast.Literal) and isinstance(expr.pattern.value, str):
            static = like_to_regex(expr.pattern.value)

        def like(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            if static is not None:
                regex = static
            else:
                pat = pattern(row, ctx)
                if pat is None:
                    return None
                regex = like_to_regex(str(pat))
            matched = regex.match(str(value)) is not None
            return not matched if negated else matched

        return CompiledExpr(like, BOOLEAN, expr)

    def _compile_between(self, expr: ast.Between) -> CompiledExpr:
        operand = self.compile(expr.operand)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        negated = expr.negated

        def between(row, ctx):
            value = operand(row, ctx)
            lo = low(row, ctx)
            hi = high(row, ctx)
            if value is None or lo is None or hi is None:
                return None
            result = lo <= value <= hi
            return not result if negated else result

        return CompiledExpr(between, BOOLEAN, expr)

    def _compile_case(self, expr: ast.Case) -> CompiledExpr:
        operand = self.compile(expr.operand) if expr.operand is not None else None
        whens = [
            (self.compile(w.condition), self.compile(w.result)) for w in expr.whens
        ]
        else_result = (
            self.compile(expr.else_result) if expr.else_result is not None else None
        )
        result_type: SqlType | None = None
        for _, result in whens:
            if result.type is not None:
                result_type = result.type
                break

        def case(row, ctx):
            if operand is not None:
                needle = operand(row, ctx)
                for condition, result in whens:
                    if needle is not None and condition(row, ctx) == needle:
                        return result(row, ctx)
            else:
                for condition, result in whens:
                    if _as_bool(condition(row, ctx)) is True:
                        return result(row, ctx)
            return None if else_result is None else else_result(row, ctx)

        return CompiledExpr(case, result_type, expr)

    # -- casts and calls -----------------------------------------------------------------

    def _compile_cast(self, expr: ast.Cast) -> CompiledExpr:
        operand = self.compile(expr.operand)
        target = expr.target
        if operand.type is not None and not explicitly_castable(operand.type, target):
            raise PlanError(f"cannot cast {operand.type} to {target}")

        def cast(row, ctx):
            value = operand(row, ctx)
            source = operand.type if operand.type is not None else (
                infer_type(value) if value is not None else target
            )
            return cast_value(value, source, target)

        return CompiledExpr(cast, target, expr)

    def _compile_functioncall(self, expr: ast.FunctionCall) -> CompiledExpr:
        name = expr.name.upper()
        if name in AGGREGATE_NAMES:
            raise PlanError(
                f"aggregate function {expr.name} is not allowed in this context"
            )
        if self.table_function_names is not None and self.table_function_names(expr.name):
            from repro.errors import NestedTableFunctionError

            raise NestedTableFunctionError(
                f"table function {expr.name!r} cannot be used as a scalar "
                "expression; nesting of functions is not supported — reference "
                "it in the FROM clause instead"
            )
        if name in CAST_FUNCTION_NAMES:
            # DB2-style cast functions: BIGINT(x), INTEGER(x), VARCHAR(x)...
            if len(expr.args) != 1:
                raise PlanError(f"cast function {expr.name} takes one argument")
            cast = ast.Cast(expr.args[0], parse_type(name))
            return self._compile_cast(cast)
        if name not in _BUILTINS:
            raise PlanError(f"unknown scalar function {expr.name!r}")
        fn, (min_args, max_args), result_type = _BUILTINS[name]
        if not (min_args <= len(expr.args) <= max_args):
            raise PlanError(
                f"function {expr.name} expects {min_args}..{max_args} arguments, "
                f"got {len(expr.args)}"
            )
        args = [self.compile(a) for a in expr.args]

        def call(row, ctx):
            return fn(*[a(row, ctx) for a in args])

        return CompiledExpr(call, result_type, expr)


# ---------------------------------------------------------------------------
# Batch (chunk-at-a-time) compilation
# ---------------------------------------------------------------------------

#: A batch-compiled expression: evaluates a whole chunk of rows with one
#: Python-level call, returning one value per input row.
BatchFn = Callable[[list, EvalContext], list]


def map_rows(fn: EvalFn) -> BatchFn:
    """Lift a per-row closure to a chunk closure (one call per row)."""
    return lambda chunk, ctx: [fn(row, ctx) for row in chunk]

#: Integer ladders of the exact (non-DECIMAL) numeric types; DOUBLE sits
#: above them.  Used for hash-join key compatibility checks.
_INT_LADDERS = frozenset({1, 2, 3})


class BatchCompiler:
    """Compiles AST expressions into chunk-at-a-time closures.

    The row compiler produces one closure call *per row per node*; for
    hot predicates and projections that dispatch dominates wall-clock
    time.  This compiler emits closures that evaluate an entire chunk
    per Python-level call (a list comprehension over the chunk), falling
    back to per-row evaluation of the row-compiled closure for node
    types without a vectorized form.

    Fast paths are *guarded*: if a vectorized evaluation raises, the
    chunk is transparently re-evaluated row-at-a-time, so error
    behaviour (e.g. ``AND`` short-circuiting past a division by zero)
    matches row mode exactly.
    """

    def __init__(self, row_compiler: "ExpressionCompiler"):
        self.row = row_compiler

    def compile(self, expr: ast.Expression, compiled: CompiledExpr) -> BatchFn:
        """Compile one expression into a guarded chunk closure.

        ``compiled`` is the row compilation of ``expr`` (the caller has
        already validated the expression through it); its closure is the
        fallback wherever the fast path cannot evaluate a chunk.
        """
        row_fn = compiled.fn
        fast, _ = self._compile(expr)
        if fast is None:
            return map_rows(row_fn)

        def guarded(chunk: list, ctx: EvalContext) -> list:
            try:
                return fast(chunk, ctx)
            except Exception:
                # Re-run row-at-a-time: reproduces row-mode results for
                # short-circuit cases, or re-raises the row-mode error.
                return [row_fn(row, ctx) for row in chunk]

        return guarded

    # -- dispatch ---------------------------------------------------------------

    def _compile(self, expr: ast.Expression) -> tuple[BatchFn | None, bool]:
        """(fast chunk closure or None, closure is known boolean/NULL)."""
        method = getattr(self, "_batch_" + type(expr).__name__.lower(), None)
        if method is None:
            return None, False
        return method(expr)

    def _value(self, expr: ast.Expression) -> BatchFn:
        """A chunk closure for a value column, vectorized or fallback."""
        fast, _ = self._compile(expr)
        if fast is not None:
            return fast
        return map_rows(self.row.compile(expr).fn)

    def _type_of(self, expr: ast.Expression) -> SqlType | None:
        try:
            return self.row.compile(expr).type
        except (PlanError, TypeError_):  # pragma: no cover - defensive
            return None

    # -- leaves -----------------------------------------------------------------

    def _batch_literal(self, expr: ast.Literal) -> tuple[BatchFn | None, bool]:
        value = expr.value
        return (
            lambda chunk, ctx: [value] * len(chunk),
            isinstance(value, bool) or value is None,
        )

    def _batch_columnref(self, expr: ast.ColumnRef) -> tuple[BatchFn | None, bool]:
        resolved = self.row.layout.resolve(expr.qualifier, expr.name)
        if resolved is not None:
            index, slot = resolved
            boolean = slot.type is not None and slot.type.name == "BOOLEAN"
            return lambda chunk, ctx: [row[index] for row in chunk], boolean
        param = self.row.params.resolve(expr.qualifier, expr.name)
        if param is not None:
            pindex, _ = param
            return lambda chunk, ctx: [ctx.params[pindex]] * len(chunk), False
        return None, False

    def _batch_parameter(self, expr: ast.Parameter) -> tuple[BatchFn | None, bool]:
        index = expr.index

        def fetch(chunk: list, ctx: EvalContext) -> list:
            if index >= len(ctx.params):
                raise ExecutionError(f"statement parameter ?{index + 1} was not bound")
            return [ctx.params[index]] * len(chunk)

        return fetch, False

    # -- operators --------------------------------------------------------------

    def _batch_binaryop(self, expr: ast.BinaryOp) -> tuple[BatchFn | None, bool]:
        op = expr.op.upper()
        if op in ("AND", "OR"):
            return self._batch_logical(expr, op)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return self._batch_comparison(expr, op)
        if op == "||":
            left = self._value(expr.left)
            right = self._value(expr.right)
            return (
                lambda chunk, ctx: [
                    None if a is None or b is None else str(a) + str(b)
                    for a, b in zip(left(chunk, ctx), right(chunk, ctx))
                ],
                False,
            )
        if op in ("+", "-", "*", "/"):
            if not (
                _plain_numeric(self._type_of(expr.left))
                and _plain_numeric(self._type_of(expr.right))
            ):
                return None, False
            left = self._value(expr.left)
            right = self._value(expr.right)
            if op == "+":
                fn = lambda chunk, ctx: [
                    None if a is None or b is None else a + b
                    for a, b in zip(left(chunk, ctx), right(chunk, ctx))
                ]
            elif op == "-":
                fn = lambda chunk, ctx: [
                    None if a is None or b is None else a - b
                    for a, b in zip(left(chunk, ctx), right(chunk, ctx))
                ]
            elif op == "*":
                fn = lambda chunk, ctx: [
                    None if a is None or b is None else a * b
                    for a, b in zip(left(chunk, ctx), right(chunk, ctx))
                ]
            else:
                fn = lambda chunk, ctx: [
                    None if a is None or b is None else _sql_div(a, b)
                    for a, b in zip(left(chunk, ctx), right(chunk, ctx))
                ]
            return fn, False
        return None, False

    def _batch_logical(self, expr: ast.BinaryOp, op: str) -> tuple[BatchFn | None, bool]:
        left, left_bool = self._compile(expr.left)
        right, right_bool = self._compile(expr.right)
        # Only fuse children that provably yield three-valued booleans;
        # anything else must go through _as_bool's row-mode type error.
        if left is None or right is None or not (left_bool and right_bool):
            return None, False
        if op == "AND":
            return (
                lambda chunk, ctx: [
                    False
                    if (a is False or b is False)
                    else (None if (a is None or b is None) else True)
                    for a, b in zip(left(chunk, ctx), right(chunk, ctx))
                ],
                True,
            )
        return (
            lambda chunk, ctx: [
                True
                if (a is True or b is True)
                else (None if (a is None or b is None) else False)
                for a, b in zip(left(chunk, ctx), right(chunk, ctx))
            ],
            True,
        )

    def _batch_comparison(self, expr: ast.BinaryOp, op: str) -> tuple[BatchFn | None, bool]:
        left_type = self._type_of(expr.left)
        right_type = self._type_of(expr.right)
        if _plain_numeric(left_type) and _plain_numeric(right_type):
            normalize = None
        elif (
            left_type is not None
            and right_type is not None
            and is_character(left_type)
            and is_character(right_type)
        ):
            normalize = "strip"  # CHAR padding is ignored in comparisons
        else:
            return None, False
        left = self._value(expr.left)
        right = self._value(expr.right)
        if normalize == "strip":
            pairs = lambda chunk, ctx: (
                (
                    None if a is None else a.rstrip(),
                    None if b is None else b.rstrip(),
                )
                for a, b in zip(left(chunk, ctx), right(chunk, ctx))
            )
        else:
            pairs = lambda chunk, ctx: zip(left(chunk, ctx), right(chunk, ctx))
        if op == "=":
            fn = lambda chunk, ctx: [
                None if a is None or b is None else a == b for a, b in pairs(chunk, ctx)
            ]
        elif op == "<>":
            fn = lambda chunk, ctx: [
                None if a is None or b is None else a != b for a, b in pairs(chunk, ctx)
            ]
        elif op == "<":
            fn = lambda chunk, ctx: [
                None if a is None or b is None else a < b for a, b in pairs(chunk, ctx)
            ]
        elif op == "<=":
            fn = lambda chunk, ctx: [
                None if a is None or b is None else a <= b for a, b in pairs(chunk, ctx)
            ]
        elif op == ">":
            fn = lambda chunk, ctx: [
                None if a is None or b is None else a > b for a, b in pairs(chunk, ctx)
            ]
        else:
            fn = lambda chunk, ctx: [
                None if a is None or b is None else a >= b for a, b in pairs(chunk, ctx)
            ]
        return fn, True

    def _batch_unaryop(self, expr: ast.UnaryOp) -> tuple[BatchFn | None, bool]:
        if expr.op.upper() == "NOT":
            operand, operand_bool = self._compile(expr.operand)
            if operand is None or not operand_bool:
                return None, False
            return (
                lambda chunk, ctx: [
                    None if v is None else not v for v in operand(chunk, ctx)
                ],
                True,
            )
        if not _plain_numeric(self._type_of(expr.operand)):
            return None, False
        operand = self._value(expr.operand)
        return (
            lambda chunk, ctx: [None if v is None else -v for v in operand(chunk, ctx)],
            False,
        )

    # -- predicates -------------------------------------------------------------

    def _batch_isnull(self, expr: ast.IsNull) -> tuple[BatchFn | None, bool]:
        operand = self._value(expr.operand)
        if expr.negated:
            return (
                lambda chunk, ctx: [v is not None for v in operand(chunk, ctx)],
                True,
            )
        return lambda chunk, ctx: [v is None for v in operand(chunk, ctx)], True

    def _batch_between(self, expr: ast.Between) -> tuple[BatchFn | None, bool]:
        if not all(
            _plain_numeric(self._type_of(e)) for e in (expr.operand, expr.low, expr.high)
        ):
            return None, False
        operand = self._value(expr.operand)
        low = self._value(expr.low)
        high = self._value(expr.high)
        if expr.negated:
            fn = lambda chunk, ctx: [
                None if v is None or lo is None or hi is None else not (lo <= v <= hi)
                for v, lo, hi in zip(
                    operand(chunk, ctx), low(chunk, ctx), high(chunk, ctx)
                )
            ]
        else:
            fn = lambda chunk, ctx: [
                None if v is None or lo is None or hi is None else lo <= v <= hi
                for v, lo, hi in zip(
                    operand(chunk, ctx), low(chunk, ctx), high(chunk, ctx)
                )
            ]
        return fn, True

    def _batch_like(self, expr: ast.Like) -> tuple[BatchFn | None, bool]:
        if not (
            isinstance(expr.pattern, ast.Literal) and isinstance(expr.pattern.value, str)
        ):
            return None, False
        regex = like_to_regex(expr.pattern.value)
        match = regex.match
        operand = self._value(expr.operand)
        if expr.negated:
            fn = lambda chunk, ctx: [
                None if v is None else match(str(v)) is None
                for v in operand(chunk, ctx)
            ]
        else:
            fn = lambda chunk, ctx: [
                None if v is None else match(str(v)) is not None
                for v in operand(chunk, ctx)
            ]
        return fn, True

    def _batch_inlist(self, expr: ast.InList) -> tuple[BatchFn | None, bool]:
        if not all(isinstance(item, ast.Literal) for item in expr.items):
            return None, False
        values = [item.value for item in expr.items]  # type: ignore[union-attr]
        has_null = any(v is None for v in values)
        members = frozenset(v for v in values if v is not None)
        miss = None if has_null else False
        hit_miss = (False, None if has_null else True) if expr.negated else (True, miss)
        hit, miss = hit_miss
        operand = self._value(expr.operand)
        return (
            lambda chunk, ctx: [
                None if v is None else (hit if v in members else miss)
                for v in operand(chunk, ctx)
            ],
            True,
        )

    # -- calls ------------------------------------------------------------------

    def _batch_functioncall(self, expr: ast.FunctionCall) -> tuple[BatchFn | None, bool]:
        name = expr.name.upper()
        if name not in _BUILTINS:
            return None, False
        fn, (min_args, max_args), _ = _BUILTINS[name]
        if not (min_args <= len(expr.args) <= max_args):
            return None, False
        args = [self._value(a) for a in expr.args]
        if len(args) == 1:
            single = args[0]
            return lambda chunk, ctx: [fn(v) for v in single(chunk, ctx)], False
        return (
            lambda chunk, ctx: [
                fn(*vals) for vals in zip(*[arg(chunk, ctx) for arg in args])
            ],
            False,
        )


def _plain_numeric(t: SqlType | None) -> bool:
    """Numeric and safe for raw Python arithmetic/comparison (no
    DECIMAL: row mode aligns mixed DECIMAL operands via ``Decimal(str(x))``,
    which raw operators would not reproduce)."""
    return t is not None and is_numeric(t) and t.name != "DECIMAL"


def _sql_div(a, b):
    """SQL division: errors on zero, truncates integer quotients toward
    zero (mirrors the row compiler's arithmetic closure)."""
    if b == 0:
        raise ExecutionError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        quotient = abs(a) // abs(b)
        return quotient if (a >= 0) == (b >= 0) else -quotient
    return a / b


def hash_join_compatible(a: SqlType | None, b: SqlType | None) -> bool:
    """True when two equi-join key types can be matched through a plain
    Python hash table with the same semantics as the row-mode ``=``
    comparison (see :func:`_align`).

    CHAR padding is handled by the join's key normalisation; DECIMAL
    keys only pair with exact (integer) types because row mode aligns
    ``DECIMAL = DOUBLE`` through ``Decimal(str(x))``, which changes
    which values compare equal.
    """
    if a is None or b is None:
        return False
    if is_character(a) and is_character(b):
        return True
    if a.name == "BOOLEAN" and b.name == "BOOLEAN":
        return True
    if is_numeric(a) and is_numeric(b):
        a_decimal = a.name == "DECIMAL"
        b_decimal = b.name == "DECIMAL"
        if a_decimal and b_decimal:
            return True
        if a_decimal:
            return b.ladder in _INT_LADDERS
        if b_decimal:
            return a.ladder in _INT_LADDERS
        return True
    return False


def order_join_compatible(a: SqlType | None, b: SqlType | None) -> bool:
    """True when two equi-join key types can additionally be *ordered*
    for a sort-merge join with the row-mode comparison semantics.

    A superset check on :func:`hash_join_compatible`: the merge join
    sorts and bisects normalised key values, so beyond hashability the
    keys must compare with ``<`` exactly as ``=`` aligns them.  BOOLEAN
    keys are excluded — they hash fine but carry no useful sort order,
    and keeping them on the hash path avoids pricing a two-value sort.
    """
    if not hash_join_compatible(a, b):
        return False
    if a is not None and a.name == "BOOLEAN":
        return False
    return True


# ---------------------------------------------------------------------------
# Runtime helpers
# ---------------------------------------------------------------------------


def _as_bool(value: object) -> bool | None:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    raise ExecutionError(f"expected a boolean condition, got {value!r}")


def _check_number(value: object, node: ast.Expression) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float, Decimal)):
        raise ExecutionError(
            f"expected a numeric value from {node.render()}, got {value!r}"
        )


def _align(a: object, b: object, node: ast.Expression) -> tuple[object, object]:
    """Make two comparison operands comparable or raise."""
    if isinstance(a, bool) or isinstance(b, bool):
        if isinstance(a, bool) and isinstance(b, bool):
            return a, b
        raise ExecutionError(f"cannot compare boolean with non-boolean in {node.render()}")
    numeric_a = isinstance(a, (int, float, Decimal))
    numeric_b = isinstance(b, (int, float, Decimal))
    if numeric_a and numeric_b:
        if isinstance(a, Decimal) or isinstance(b, Decimal):
            return Decimal(str(a)), Decimal(str(b))
        return a, b
    if isinstance(a, str) and isinstance(b, str):
        # CHAR padding is ignored in comparisons, DB2-style.
        return a.rstrip(), b.rstrip()
    if type(a) is type(b):
        return a, b
    raise ExecutionError(
        f"cannot compare {type(a).__name__} with {type(b).__name__} in {node.render()}"
    )


def truthy(value: object) -> bool:
    """WHERE-clause semantics: NULL and FALSE filter the row out."""
    return value is True
