"""Row-mode vs batch-mode parity across the SQL corpus.

Every query runs against two identically-loaded databases — one in
``"row"`` mode (Volcano + nested-loop joins), one in ``"batch"`` mode
(vectorized chunks + hash equi-joins) — and must produce identical rows:
same order where the query orders, same multiset otherwise.  Lateral
TABLE() correlation and DETERMINISTIC UDTF caching are included because
their fenced/cost semantics are exactly what the batch mode must not
disturb.
"""

from decimal import Decimal

import pytest

from repro.fdbs.engine import Database
from repro.fdbs.functions import make_external_function
from repro.fdbs.types import INTEGER

SETUP = [
    "CREATE TABLE emp (id INT PRIMARY KEY, dept INT, name CHAR(10), "
    "salary DECIMAL(8, 2), bonus DOUBLE)",
    "CREATE TABLE dept (dept INT PRIMARY KEY, dname CHAR(12), region INT)",
    "CREATE TABLE sparse (k INT, v INT)",
]

EMP_ROWS = [
    (1, 10, "ada", Decimal("1000.50"), 1.5),
    (2, 10, "bob", Decimal("2000.00"), None),
    (3, 20, "cyd", Decimal("1500.25"), 0.5),
    (4, 20, "dan", None, 2.5),
    (5, 30, "eve", Decimal("900.75"), 1.0),
    (6, None, "fay", Decimal("1200.00"), None),
    (7, 10, "gus", Decimal("2000.00"), 3.0),
    (8, 40, "hal", Decimal("800.10"), 0.0),
]

DEPT_ROWS = [
    (10, "sales", 1),
    (20, "dev", 1),
    (30, "ops", 2),
    (50, "legal", 3),
]

SPARSE_ROWS = [(1, 10), (1, 20), (2, None), (None, 30), (3, 10)]

ORDERED_QUERIES = [
    "SELECT id, name FROM emp ORDER BY id",
    "SELECT id, salary FROM emp WHERE salary > 1000 ORDER BY salary DESC, id",
    "SELECT name, bonus FROM emp WHERE bonus IS NOT NULL ORDER BY 2, 1",
    "SELECT id FROM emp WHERE name LIKE '%a%' ORDER BY id",
    "SELECT id FROM emp WHERE dept IN (10, 30) ORDER BY id",
    "SELECT id FROM emp WHERE salary BETWEEN 900 AND 1600 ORDER BY id",
    "SELECT id, salary * 2 + 1 FROM emp ORDER BY id",
    "SELECT e.name, d.dname FROM emp AS e JOIN dept AS d "
    "ON e.dept = d.dept ORDER BY e.id",
    "SELECT e.name, d.dname FROM emp AS e LEFT OUTER JOIN dept AS d "
    "ON e.dept = d.dept ORDER BY e.id",
    "SELECT e.name, d.dname FROM emp AS e JOIN dept AS d "
    "ON e.dept = d.dept AND d.region = 1 ORDER BY e.id",
    "SELECT e.id, d.dept FROM emp AS e JOIN dept AS d "
    "ON e.dept < d.dept ORDER BY e.id, d.dept",
    "SELECT e.id, d.dept FROM emp AS e LEFT OUTER JOIN dept AS d "
    "ON e.dept = d.dept AND e.salary > 1000 ORDER BY e.id, d.dept",
    "SELECT dept, COUNT(*), SUM(salary), AVG(bonus), MIN(name), MAX(salary) "
    "FROM emp GROUP BY dept ORDER BY dept",
    "SELECT dept, COUNT(DISTINCT salary) FROM emp GROUP BY dept "
    "HAVING COUNT(*) > 1 ORDER BY dept",
    "SELECT region, COUNT(*) FROM emp AS e JOIN dept AS d "
    "ON e.dept = d.dept GROUP BY region ORDER BY region",
    "SELECT name FROM emp ORDER BY salary DESC, id",
    "SELECT id FROM emp ORDER BY id FETCH FIRST 3 ROWS ONLY",
    "SELECT dept FROM emp WHERE dept IS NOT NULL "
    "UNION SELECT dept FROM dept ORDER BY 1",
    "SELECT id FROM emp WHERE dept IN (SELECT dept FROM dept "
    "WHERE region = 1) ORDER BY id",
    "SELECT id, CASE WHEN salary > 1500 THEN 'high' ELSE 'low' END "
    "FROM emp ORDER BY id",
    "SELECT k, SUM(v) FROM sparse GROUP BY k ORDER BY k",
    "SELECT s.k, e.id FROM sparse AS s JOIN emp AS e ON s.k = e.id "
    "ORDER BY e.id, s.v",
    # NULL and duplicate keys on the build side of an outer self-join.
    "SELECT a.k, a.v, b.v FROM sparse AS a LEFT OUTER JOIN sparse AS b "
    "ON a.k = b.k ORDER BY a.k, a.v, b.v",
    "SELECT a.k, a.v, b.v FROM sparse AS a JOIN sparse AS b "
    "ON a.k = b.k AND a.v = b.v ORDER BY a.k, a.v",
]

UNORDERED_QUERIES = [
    "SELECT DISTINCT dept FROM emp",
    "SELECT name FROM emp WHERE bonus IS NULL",
    "SELECT COUNT(*), SUM(bonus) FROM emp",
    "SELECT e.name FROM emp AS e, dept AS d WHERE e.dept = d.dept",
    "SELECT dept FROM emp UNION ALL SELECT dept FROM dept",
    "SELECT d.dname FROM dept AS d LEFT OUTER JOIN emp AS e "
    "ON d.dept = e.dept AND e.bonus > 1",
]


def load(db: Database) -> None:
    """Create and fill the shared parity schema."""
    for ddl in SETUP:
        db.execute(ddl)
    for row in EMP_ROWS:
        db.execute("INSERT INTO emp VALUES (?, ?, ?, ?, ?)", list(row))
    for row in DEPT_ROWS:
        db.execute("INSERT INTO dept VALUES (?, ?, ?)", list(row))
    for row in SPARSE_ROWS:
        db.execute("INSERT INTO sparse VALUES (?, ?)", list(row))


@pytest.fixture(scope="module")
def twins():
    row_db = Database("row_twin", execution_mode="row")
    batch_db = Database("batch_twin", execution_mode="batch")
    load(row_db)
    load(batch_db)
    return row_db, batch_db


@pytest.mark.parametrize("sql", ORDERED_QUERIES)
def test_ordered_parity(twins, sql):
    row_db, batch_db = twins
    assert row_db.execute(sql).rows == batch_db.execute(sql).rows


@pytest.mark.parametrize("sql", UNORDERED_QUERIES)
def test_unordered_parity(twins, sql):
    row_db, batch_db = twins
    row_result = row_db.execute(sql).rows
    batch_result = batch_db.execute(sql).rows
    assert sorted(map(repr, row_result)) == sorted(map(repr, batch_result))


def _udtf_db(mode: str, deterministic: bool):
    db = Database(f"udtf_{mode}", execution_mode=mode)
    calls = {"n": 0}

    def impl(x):
        calls["n"] += 1
        return x * 2

    db.register_external_function(
        make_external_function(
            "F", [("x", INTEGER)], [("y", INTEGER)], impl,
            deterministic=deterministic,
        )
    )
    db.execute("CREATE TABLE seeds (s INT)")
    db.execute("INSERT INTO seeds VALUES (1), (1), (3), (2), (3)")
    return db, calls


@pytest.mark.parametrize("deterministic", [False, True])
def test_lateral_udtf_parity_and_invocation_counts(deterministic):
    row_db, row_calls = _udtf_db("row", deterministic)
    batch_db, batch_calls = _udtf_db("batch", deterministic)
    sql = "SELECT s, r.y FROM seeds, TABLE (F(s)) AS r"
    assert row_db.execute(sql).rows == batch_db.execute(sql).rows
    # The lateral fold stays row-at-a-time in batch mode, so the UDTF is
    # invoked (and its DETERMINISTIC cache hit) exactly as often.
    assert row_calls["n"] == batch_calls["n"]
    expected = 3 if deterministic else 5
    assert batch_calls["n"] == expected


def test_sql_udtf_lateral_correlation_parity():
    results = []
    for mode in ("row", "batch"):
        db = Database(f"sqludtf_{mode}", execution_mode=mode)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.execute(
            "CREATE FUNCTION double_it (x INT) RETURNS TABLE (y INT) "
            "LANGUAGE SQL RETURN SELECT double_it.x * 2 AS y"
        )
        results.append(
            db.execute(
                "SELECT t.a, r.y FROM t, TABLE (double_it(t.a)) AS r "
                "ORDER BY t.a"
            ).rows
        )
    assert results[0] == results[1]


def test_simulated_costs_identical_across_modes():
    from repro.sysmodel.machine import Machine

    elapsed = []
    for mode in ("row", "batch"):
        machine = Machine()
        db = Database(f"cost_{mode}", machine=machine, execution_mode=mode)
        load(db)
        sql = (
            "SELECT e.name, d.dname FROM emp AS e JOIN dept AS d "
            "ON e.dept = d.dept ORDER BY e.id"
        )
        db.execute(sql)
        start = machine.clock.now
        db.execute(sql)
        elapsed.append(machine.clock.now - start)
    assert elapsed[0] == elapsed[1]
