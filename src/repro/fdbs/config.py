"""One frozen, validated bundle of every FDBS engine switch.

:class:`EngineConfig` is built once and handed down unchanged: the
:class:`~repro.fdbs.engine.Database` holds it, the
:class:`~repro.fdbs.planner.Planner` reads it, and the integration
server, scenario builder and both serving layers take one ``config``
instead of threading each switch through their own keyword lists.
Invalid values raise :class:`~repro.errors.ExecutionError` at
construction, so a bad switch fails where it is written rather than
when a session first plans a query.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExecutionError
from repro.fdbs.storage import DEFAULT_CHUNK_SIZE

#: How the planner compiles expressions: per-row or vectorized closures.
EXECUTION_MODES = ("row", "batch")

#: Planning modes: FROM order as written, or RUNSTATS-fed reordering.
OPTIMIZERS = ("syntactic", "cost")

#: Local join strategies the cost model prices against each other.
JOIN_STRATEGIES = ("auto", "hash", "merge", "indexnlj", "nlj")

#: Upper bound of the rows-per-chunk knob.
MAX_CHUNK_SIZE = 1_048_576


def _choice(name: str, value: object, allowed: tuple[str, ...]) -> None:
    if value not in allowed:
        names = [repr(option) for option in allowed]
        expected = (
            " or ".join(names) if len(names) == 2 else "one of " + ", ".join(names)
        )
        raise ExecutionError(f"unknown {name} {value!r}; expected {expected}")


@dataclass(frozen=True)
class EngineConfig:
    """Engine switches; see the README's Configuration table.

    Every field's default is the paper's measured configuration, so
    ``EngineConfig()`` reproduces the calibrated timings exactly.
    """

    execution_mode: str = "row"
    """How the planner builds each operator's chunk closures: ``"row"``
    (the per-row closure mapped over the chunk, nested-loop explicit
    joins) or ``"batch"`` (vectorized closures, hash joins for explicit
    equi-joins).  Operators see one closure shape and one chunk protocol
    either way."""
    optimizer: str = "syntactic"
    """``"syntactic"`` (FROM order as written) or ``"cost"``."""
    join_strategy: str = "auto"
    """Cost-mode local join pick: ``"auto"`` prices the repertoire, a
    named strategy forces it wherever the key types permit."""
    adaptive_factor: float | None = None
    """Build-side blowup past which a cost-rejected remote join falls
    back to a bind join mid-query; ``None`` disables the probe."""
    chunk_size: int = DEFAULT_CHUNK_SIZE
    """Rows per storage chunk (zone-map granularity) and per batch."""
    zone_maps: bool = True
    """Zone-map chunk pruning on local scans (every mode)."""
    pushdown: bool = True
    """Predicate pushdown to remote SQL sources."""
    index_selection: bool = True
    """Index lookups for equality conjuncts on base tables."""
    pooling: bool = False
    """Warm runtime pool plus persistent RMI channels (needs a machine)."""
    result_cache: bool = False
    """Memoizing result cache for deterministic functions (needs a machine)."""

    def __post_init__(self):
        _choice("execution mode", self.execution_mode, EXECUTION_MODES)
        _choice("optimizer mode", self.optimizer, OPTIMIZERS)
        _choice("join strategy", self.join_strategy, JOIN_STRATEGIES)
        factor = self.adaptive_factor
        if factor is not None and (
            isinstance(factor, bool)
            or not isinstance(factor, (int, float))
            or factor <= 1.0
        ):
            raise ExecutionError(
                "adaptive join factor must exceed 1.0 (or be None to disable)"
            )
        size = self.chunk_size
        if isinstance(size, bool) or not isinstance(size, int):
            raise ExecutionError("chunk size must be an integer")
        if not 1 <= size <= MAX_CHUNK_SIZE:
            raise ExecutionError(
                f"chunk size {size} out of range (1..{MAX_CHUNK_SIZE})"
            )
        for name in ("zone_maps", "pushdown", "index_selection", "pooling", "result_cache"):
            if not isinstance(getattr(self, name), bool):
                raise ExecutionError(f"{name} must be True or False")


__all__ = [
    "EXECUTION_MODES",
    "EngineConfig",
    "JOIN_STRATEGIES",
    "MAX_CHUNK_SIZE",
    "OPTIMIZERS",
]
