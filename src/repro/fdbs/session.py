"""Query results and the statement (plan) cache.

The statement cache is what makes *repeated* federated-function calls
the fastest in the paper's boot/other/repeated comparison: a cache miss
pays :attr:`~repro.simtime.costs.CostModel.plan_compile`, a hit pays
nothing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ExecutionError


@dataclass
class Result:
    """Outcome of one statement execution."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0
    out_params: dict[str, object] = field(default_factory=dict)
    statement_type: str = "SELECT"

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> object:
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs exactly one row and column, got "
                f"{len(self.rows)} row(s) x {len(self.columns)} column(s)"
            )
        return self.rows[0][0]

    def first(self) -> tuple | None:
        """First row, or None."""
        return self.rows[0] if self.rows else None

    def to_dicts(self) -> list[dict[str, object]]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> list[object]:
        """All values of one named column."""
        target = name.upper()
        for index, column in enumerate(self.columns):
            if column.upper() == target:
                return [row[index] for row in self.rows]
        raise ExecutionError(f"result has no column {name!r}")


class StatementCache:
    """Caches parsed statements by statement text.

    Eviction is LRU with a configurable capacity; any DDL invalidates
    the whole cache (catalog objects may have changed shape).  Entries
    may be *namespaced* (the engine namespaces by the catalog's DDL and
    stats epochs, so an entry never outlives the schema or statistics
    it was validated against); hit, miss and eviction counters are
    exposed through :meth:`stats`.

    Lookups, stores and the hit/miss/eviction counters are guarded by an
    internal lock: concurrent sessions sharing one FDBS must neither
    lose counter updates nor race the LRU pop/reinsert (which would
    raise ``KeyError`` or corrupt the recency order).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: dict[str, object] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def normalize(sql: str) -> str:
        """Cache key: whitespace-insensitive statement text."""
        return " ".join(sql.split())

    def _key(self, sql: str, namespace: str | None) -> str:
        normalized = self.normalize(sql)
        if namespace is None:
            return normalized
        return f"{namespace}\x00{normalized}"

    def get(self, sql: str, namespace: str | None = None) -> object | None:
        """Cached entry for the statement text, or None (LRU refresh)."""
        key = self._key(sql, namespace)
        with self._lock:
            if key in self._entries:
                self.hits += 1
                value = self._entries.pop(key)
                self._entries[key] = value  # move to MRU position
                return value
            self.misses += 1
            return None

    def put(self, sql: str, value: object, namespace: str | None = None) -> None:
        """Cache an entry, evicting the least recently used if full."""
        key = self._key(sql, namespace)
        with self._lock:
            if key in self._entries:
                self._entries.pop(key)
            elif len(self._entries) >= self.capacity:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self.evictions += 1
            self._entries[key] = value

    def invalidate(self) -> None:
        """Drop every cached entry (DDL happened)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current size and capacity."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
            }

    def __contains__(self, sql: str) -> bool:
        return self.normalize(sql) in self._entries

    def __len__(self) -> int:
        return len(self._entries)
