"""``write_mix``: keyed point reads and writes on one 10k-row table.

One client in the default row mode.  Each round is a seeded shuffle of
the exact mix in :data:`ROUND` — 50% primary-key reads, 20% PK
``UPDATE``, 15% ``INSERT``, 5% PK ``DELETE`` and 10% short ``id
BETWEEN`` counts with inline bounds.  The stream tracks the live keys,
so every generated statement is valid when the ops run in order.
"""

from __future__ import annotations

import gc
import random

from perfbench import oracle
from perfbench.workloads import SingleClient, fdbs_counters
from repro.fdbs.engine import Database

TABLE_ROWS = 10_000
RANGE_WIDTH = 40
ROUND = {"read": 10, "update": 4, "insert": 3, "delete": 1, "range_count": 2}
WRITES = ("update", "insert", "delete")
TAGS = ("alpha", "beta", "gamma", "delta", None)

READ = "SELECT id, k, v, tag FROM kv WHERE id = ?"
UPDATE = "UPDATE kv SET v = v + ?, k = ? WHERE id = ?"
INSERT = "INSERT INTO kv (id, k, v, tag) VALUES (?, ?, ?, ?)"
DELETE = "DELETE FROM kv WHERE id = ?"
RANGE = "SELECT COUNT(*), SUM(k) FROM kv WHERE id BETWEEN {lo} AND {hi}"
STATE = "SELECT id, k, v, tag FROM kv ORDER BY id"


def initial_rows(seed: int, count: int) -> list[tuple]:
    """The table's seeded starting contents."""
    rng = random.Random(seed)
    return [
        (i, rng.randrange(1000), rng.randrange(100_000) / 8, rng.choice(TAGS))
        for i in range(count)
    ]


class OpStream:
    """Seeded rounds of (kind, sql, params) ops over the live keys."""

    def __init__(self, seed: int, rows: int):
        self.rng = random.Random(seed ^ 0x5EED)
        self.live = list(range(rows))
        self.next_id = rows

    def _pick(self) -> int:
        return self.live[self.rng.randrange(len(self.live))]

    def op(self, kind: str) -> tuple:
        """One op of ``kind``; inserts and deletes update the live keys."""
        rng = self.rng
        if kind == "read":
            return (kind, READ, (self._pick(),))
        if kind == "update":
            return (kind, UPDATE, (rng.randrange(800) / 8, rng.randrange(1000), self._pick()))
        if kind == "insert":
            key = self.next_id
            self.next_id += 1
            self.live.append(key)
            params = (key, rng.randrange(1000), rng.randrange(100_000) / 8, rng.choice(TAGS))
            return (kind, INSERT, params)
        if kind == "delete":
            index = rng.randrange(len(self.live))
            key = self.live[index]
            self.live[index] = self.live[-1]
            self.live.pop()
            return (kind, DELETE, (key,))
        if kind == "range_count":
            lo = rng.randrange(self.next_id)
            return (kind, RANGE.format(lo=lo, hi=lo + RANGE_WIDTH - 1), ())
        raise KeyError(kind)

    def next_round(self) -> list:
        """The exact mix, shuffled."""
        kinds = [kind for kind, count in ROUND.items() for _ in range(count)]
        self.rng.shuffle(kinds)
        return [self.op(kind) for kind in kinds]


class WriteMix(SingleClient):
    """The write workload (see the module docstring)."""

    name = "write_mix"
    setup_repeats = 5
    execution_mode = "row"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        self.seed = seed
        self.rows = initial_rows(seed, 500 if tiny else TABLE_ROWS)
        self.db: Database | None = None

    def setup(self) -> None:
        """Create and load the table, then run one round."""
        self.db = None
        gc.collect()
        db = Database("writes")
        db.execute("CREATE TABLE kv (id INT PRIMARY KEY, k INT, v DOUBLE, tag VARCHAR(12))")
        storage = db.catalog.get_table("kv").storage
        for row in self.rows:
            storage.insert(row)
        self.db = db
        self.stream = OpStream(self.seed, len(self.rows))
        self.outputs = []
        self.run_round(self.stream.next_round())

    def next_round(self) -> list:
        """The next seeded round."""
        return self.stream.next_round()

    def perform(self, op):
        """One statement: rows for reads, the row count for writes."""
        result = self.db.execute(op[1], params=list(op[2]))
        return result.rowcount if op[0] in WRITES else result.rows

    def label(self, op) -> str:
        """The op's kind."""
        return op[0]

    def is_write(self, op) -> bool:
        """UPDATE, INSERT and DELETE are writes."""
        return op[0] in WRITES

    def counters(self) -> dict:
        """Counters of the table's database."""
        return fdbs_counters([self.db])

    def check(self) -> tuple[list[str], dict]:
        """Replay every completed op on a sqlite mirror: each result and
        the final table state must agree."""
        conn = oracle.connect()
        failures: list[str] = []
        try:
            oracle.load(conn, "kv", "id INTEGER PRIMARY KEY, k INTEGER, v REAL, tag TEXT",
                        self.rows)
            for op, out in self.outputs:
                kind, sql, params = op
                cursor = conn.execute(sql, params)
                if kind in WRITES:
                    if out != cursor.rowcount:
                        failures.append(f"{kind} {params!r}: rowcount {out} != {cursor.rowcount}")
                elif not oracle.rows_equal(out, cursor.fetchall()):
                    failures.append(f"{kind} {sql!r} {params!r}: rows differ")
                if len(failures) >= 5:
                    break
            final = self.db.execute(STATE).rows
            if not oracle.rows_equal(final, conn.execute(STATE).fetchall()):
                failures.append("final table state differs from the sqlite mirror")
        finally:
            conn.close()
        return failures, {"final_rows": len(final)}
