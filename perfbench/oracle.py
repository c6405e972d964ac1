"""An independent oracle: the same data and queries in stdlib sqlite3.

Rows are compared value by value: numbers within a relative tolerance
(the engine and sqlite may sum floats in another order, and the engine
keeps DECIMAL where sqlite has REAL), everything else exactly.  Oracle
SQL spells out DB2's NULL ordering — NULLs sort high, so they come last
ascending and first descending — which sqlite does not default to.
"""

from __future__ import annotations

import math
import sqlite3
from decimal import Decimal

REL_TOL = 1e-9
ABS_TOL = 1e-9


def connect() -> sqlite3.Connection:
    """A private in-memory database."""
    return sqlite3.connect(":memory:")


def to_sqlite(value):
    """Engine value as sqlite stores it."""
    if isinstance(value, Decimal):
        return float(value)
    return value


def load(conn: sqlite3.Connection, table: str, columns: str, rows) -> None:
    """Create ``table`` with ``columns`` (DDL text) and insert ``rows``."""
    conn.execute(f"CREATE TABLE {table} ({columns})")
    width = columns.count(",") + 1
    marks = ", ".join("?" for _ in range(width))
    conn.executemany(
        f"INSERT INTO {table} VALUES ({marks})",
        ([to_sqlite(v) for v in row] for row in rows),
    )


def values_equal(left, right) -> bool:
    """Engine value against oracle value."""
    if left is None or right is None:
        return left is None and right is None
    numeric = (int, float, Decimal)
    if isinstance(left, numeric) and isinstance(right, numeric):
        if isinstance(left, bool) or isinstance(right, bool):
            return left == right
        return math.isclose(float(left), float(right), rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return left == right


def rows_equal(engine_rows, oracle_rows) -> bool:
    """Ordered row lists agree value by value."""
    if len(engine_rows) != len(oracle_rows):
        return False
    for left, right in zip(engine_rows, oracle_rows):
        if len(left) != len(right):
            return False
        if not all(values_equal(a, b) for a, b in zip(left, right)):
            return False
    return True
