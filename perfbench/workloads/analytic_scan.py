"""``analytic_scan``: read-only SQL over a star schema and nicknames.

A 100k-row fact table and a 64-row dimension table in batch execution
with the cost optimizer after RUNSTATS, plus the three heterogeneous
sources as nicknames.  Each round is a seeded shuffle of a fixed class
mix (see :data:`ROUND`), so every measured phase holds the exact mix:

* a star join with a ``?`` threshold;
* ``id BETWEEN ? AND ?`` aggregates, parameterized the way the
  integration server issues SQL (the markers defeat zone-map pruning);
* the same aggregate with inline literals that change on every op, so
  distinct texts far outnumber the 256-entry statement cache;
* a top-k ``ORDER BY ... FETCH FIRST``;
* nickname aggregates and local x nickname joins.
"""

from __future__ import annotations

import gc
import random

from perfbench import oracle
from perfbench.workloads import SingleClient, fdbs_counters
from repro.appsys.datagen import generate_enterprise_data
from repro.core.scenario import HETEROGENEOUS_SOURCES, attach_heterogeneous_sources
from repro.fdbs.engine import Database

FACT_ROWS = 100_000
DIM_ROWS = 64
RANGE_WIDTH = 200
REGIONS = 8

STAR = (
    "SELECT d.region, COUNT(*), SUM(f.amount) FROM fact AS f "
    "JOIN dim AS d ON f.dim_id = d.dim_id WHERE f.qty > ? "
    "GROUP BY d.region ORDER BY d.region"
)
RANGE = "SELECT COUNT(*), SUM(f.amount) FROM fact AS f WHERE f.id BETWEEN {lo} AND {hi}"
TOPK = (
    "SELECT f.id, f.amount FROM fact AS f WHERE f.dim_id = ? "
    "ORDER BY f.amount DESC, f.id FETCH FIRST 10 ROWS ONLY"
)
TOPK_ORACLE = (
    "SELECT f.id, f.amount FROM fact AS f WHERE f.dim_id = ? "
    "ORDER BY f.amount DESC NULLS FIRST, f.id NULLS LAST LIMIT 10"
)
NICK_POINT = "SELECT COUNT(*), AVG(r.score) FROM api_ratings AS r WHERE r.supplier_no = ?"
NICK_GROUP = (
    "SELECT r.reviewer, COUNT(*), AVG(r.score) FROM api_ratings AS r "
    "GROUP BY r.reviewer ORDER BY r.reviewer"
)
NICK_ARCHIVE = (
    "SELECT o.supplier_no, COUNT(*), SUM(o.qty) FROM arch_orders AS o "
    "WHERE o.qty > ? GROUP BY o.supplier_no ORDER BY o.supplier_no"
)
JOIN_ARCHIVE = (
    "SELECT d.region, COUNT(*), SUM(o.qty) FROM dim AS d "
    "JOIN arch_orders AS o ON d.supplier_no = o.supplier_no "
    "GROUP BY d.region ORDER BY d.region"
)
JOIN_CATALOG = (
    "SELECT d.dim_id, c.name, c.weight FROM dim AS d "
    "JOIN cat_components AS c ON d.comp_no = c.comp_no "
    "WHERE d.region = ? ORDER BY d.dim_id"
)
JOIN_RATINGS = (
    "SELECT d.region, COUNT(*), AVG(r.score) FROM dim AS d "
    "JOIN api_ratings AS r ON d.supplier_no = r.supplier_no "
    "GROUP BY d.region ORDER BY d.region"
)

#: Ops per class in one round (20 ops).  The cheap classes hold the
#: median well inside them and the unprunable range class the 90th
#: percentile, so neither sits on a class boundary.
ROUND = {
    "star_join": 1,
    "range_param": 3,
    "range_literal": 8,
    "topk": 2,
    "nick_point": 1,
    "nick_group": 1,
    "nick_archive": 1,
    "join_archive": 1,
    "join_catalog": 1,
    "join_ratings": 1,
}


def nulls_last(sql: str) -> str:
    """Oracle form of an ascending single-key ORDER BY (DB2: NULLs high)."""
    head, sep, key = sql.rpartition(" ORDER BY ")
    return f"{head}{sep}{key} NULLS LAST" if sep else sql


class OpStream:
    """Seeded rounds of (class, sql, params, oracle sql) ops."""

    def __init__(self, seed: int, fact_rows: int, supplier_nos: list[int]):
        self.rng = random.Random(seed)
        self.fact_rows = fact_rows
        self.supplier_nos = supplier_nos

    def op(self, kind: str) -> tuple:
        """One op of class ``kind`` with seeded parameters."""
        rng = self.rng
        if kind == "star_join":
            return (kind, STAR, (rng.randrange(40, 60),), nulls_last(STAR))
        if kind in ("range_param", "range_literal"):
            lo = rng.randrange(max(1, self.fact_rows - RANGE_WIDTH))
            hi = lo + RANGE_WIDTH - 1
            if kind == "range_param":
                sql = RANGE.format(lo="?", hi="?")
                return (kind, sql, (lo, hi), sql)
            sql = RANGE.format(lo=lo, hi=hi)
            return (kind, sql, (), sql)
        if kind == "topk":
            return (kind, TOPK, (rng.randrange(DIM_ROWS),), TOPK_ORACLE)
        if kind == "nick_point":
            return (kind, NICK_POINT, (rng.choice(self.supplier_nos),), NICK_POINT)
        if kind == "nick_group":
            return (kind, NICK_GROUP, (), nulls_last(NICK_GROUP))
        if kind == "nick_archive":
            return (kind, NICK_ARCHIVE, (rng.randrange(500),), nulls_last(NICK_ARCHIVE))
        if kind == "join_archive":
            return (kind, JOIN_ARCHIVE, (), nulls_last(JOIN_ARCHIVE))
        if kind == "join_catalog":
            return (kind, JOIN_CATALOG, (rng.randrange(REGIONS),), nulls_last(JOIN_CATALOG))
        if kind == "join_ratings":
            return (kind, JOIN_RATINGS, (), nulls_last(JOIN_RATINGS))
        raise KeyError(kind)

    def warmup(self) -> list:
        """One op of every class."""
        return [self.op(kind) for kind in ROUND]

    def next_round(self) -> list:
        """The exact class mix, shuffled, with fresh parameters."""
        kinds = [kind for kind, count in ROUND.items() for _ in range(count)]
        self.rng.shuffle(kinds)
        return [self.op(kind) for kind in kinds]


class AnalyticScan(SingleClient):
    """The analytic workload (see the module docstring)."""

    name = "analytic_scan"
    setup_repeats = 5
    execution_mode = "batch"
    #: Ops run for tens to hundreds of ms, longer than the machine holds
    #: one speed, so the speed factor is measured around every op.
    calibration_ops = 1

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        self.seed = seed
        self.fact_rows = 2_000 if tiny else FACT_ROWS
        rng = random.Random(seed)
        self.data = generate_enterprise_data()
        self.supplier_nos = [s.supplier_no for s in self.data.suppliers]
        comp_nos = [c.comp_no for c in self.data.components]
        self.fact = [
            (i, rng.randrange(DIM_ROWS), rng.randrange(100), rng.randrange(100_000) / 100)
            for i in range(self.fact_rows)
        ]
        self.dim = [
            (i, i % REGIONS, rng.choice(self.supplier_nos), rng.choice(comp_nos))
            for i in range(DIM_ROWS)
        ]
        self.db: Database | None = None
        self.remotes: dict = {}

    def setup(self) -> None:
        """Load, RUNSTATS, attach the sources and run one op per class."""
        self.db = None
        gc.collect()
        db = Database("analytic", execution_mode=self.execution_mode, optimizer="cost")
        db.execute("CREATE TABLE fact (id INT PRIMARY KEY, dim_id INT, qty INT, amount DOUBLE)")
        db.execute(
            "CREATE TABLE dim (dim_id INT PRIMARY KEY, region INT, supplier_no INT, comp_no INT)"
        )
        fact = db.catalog.get_table("fact").storage
        for row in self.fact:
            fact.insert(row)
        dim = db.catalog.get_table("dim").storage
        for row in self.dim:
            dim.insert(row)
        db.execute("RUNSTATS fact")
        db.execute("RUNSTATS dim")
        self.remotes = attach_heterogeneous_sources(db, data=self.data, seed=self.seed)
        self.db = db
        self.stream = OpStream(self.seed, self.fact_rows, self.supplier_nos)
        self.outputs = []
        self.run_round(self.stream.warmup())

    def next_round(self) -> list:
        """The next seeded round."""
        return self.stream.next_round()

    def perform(self, op):
        """One query; its rows."""
        return self.db.execute(op[1], params=list(op[2])).rows

    def label(self, op) -> str:
        """The op's query class."""
        return op[0]

    def counters(self) -> dict:
        """Counters of the analytic FDBS."""
        return fdbs_counters([self.db])

    def _mirror(self):
        conn = oracle.connect()
        oracle.load(conn, "fact", "id INTEGER, dim_id INTEGER, qty INTEGER, amount REAL",
                    self.fact)
        oracle.load(conn, "dim", "dim_id INTEGER, region INTEGER, supplier_no INTEGER, "
                    "comp_no INTEGER", self.dim)
        columns = {
            "api_ratings": "supplier_no INTEGER, score REAL, reviewer TEXT, note TEXT",
            "arch_orders": "order_no INTEGER, supplier_no INTEGER, comp_no INTEGER, "
                           "qty INTEGER, price REAL",
            "cat_components": "comp_no INTEGER, name TEXT, weight REAL",
        }
        for server, (_, nickname, remote_table) in HETEROGENEOUS_SOURCES.items():
            rows = self.remotes[server].table_rows(remote_table)
            oracle.load(conn, nickname, columns[nickname], rows)
        return conn

    def check(self) -> tuple[list[str], dict]:
        """Every distinct query's rows against the sqlite mirror."""
        conn = self._mirror()
        failures: list[str] = []
        expected: dict = {}
        try:
            for op, rows in self.outputs:
                kind, sql, params, oracle_sql = op
                key = (sql, params)
                if key not in expected:
                    expected[key] = conn.execute(oracle_sql, params).fetchall()
                if not oracle.rows_equal(rows, expected[key]):
                    failures.append(
                        f"{kind} {sql!r} {params!r}: engine {rows[:3]!r} != "
                        f"sqlite {expected[key][:3]!r}"
                    )
                    if len(failures) >= 5:
                        break
        finally:
            conn.close()
        return failures, {"distinct_queries": len(expected)}
