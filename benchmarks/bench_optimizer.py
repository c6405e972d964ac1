"""Cost-based optimizer benchmark — bind joins, measured.

Two skewed federated workloads, each run hot (statement cache warm,
RUNSTATS collected) under both planning modes:

* **remote bind join** — a small local ``watch`` table joined to a
  large remote ``orders`` nickname on a low-cardinality key: the
  syntactic plan ships every remote row; the cost-based plan ships the
  distinct outer keys as an ``IN`` predicate and transfers only the
  matching fraction;
* **UDTF bind join** — a local table joined laterally into a
  DETERMINISTIC fenced A-UDTF: the syntactic plan pays per-row
  invocation bookkeeping; the cost-based plan deduplicates the argument
  tuples and amortizes one prepare / RMI round trip / finish across the
  whole batch.

Two further tiers cover the join-strategy work:

* **merge join** (wall clock) — two presorted 100k-row tables joined on
  their clustered key: the sort-merge operator exploits the stored
  order (no hash build, no explicit sort, direct-position key access)
  and must beat the forced hash join by >= 3x wall time;
* **adaptive feedback** (simulated time) — RUNSTATS sees a 6000-row
  ``watch`` table whose distinct join keys blow the bind-join IN-list
  cap, then the table shrinks 100x: the stale plan ships the whole
  20000-row remote side; one EXPLAIN ANALYZE records the q-error-100
  cardinality drift as a stats-epoch-bumping feedback override, and the
  re-run must recover >= 5x by switching to the bind join.

Asserts the acceptance criteria of the optimizer work: rows stay
bit-identical in every configuration, and the combined skewed workload
runs at least **3x** faster in simulated time under the cost-based mode.

Results are written to ``BENCH_optimizer.json`` in the repository root.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_optimizer.py

or through pytest (deselected by default via the ``perf`` marker)::

    PYTHONPATH=src python -m pytest benchmarks/bench_optimizer.py -m perf -s
"""

import argparse
import json
import time
from pathlib import Path

import pytest

from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.fdbs.config import EngineConfig
from repro.fdbs.engine import Database
from repro.fdbs.federation import DatabaseEndpoint
from repro.sysmodel.machine import Machine

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_optimizer.json"

REMOTE_SQL = (
    "SELECT w.pk, o.order_no, o.qty FROM watch AS w, n AS o "
    "WHERE w.comp_no = o.comp_no ORDER BY w.pk, o.order_no"
)
UDTF_SQL = (
    "SELECT w.pk, w.supplier_no, q.Qual "
    "FROM watch AS w, TABLE (GetQuality(w.supplier_no)) AS q "
    "ORDER BY w.pk"
)

#: Skewed supplier pool for the UDTF workload (few distinct keys).
SUPPLIER_POOL = [1234, 5001, 5002, 5003, 5004]


def build_remote_workload(optimizer: str, n_remote: int, n_watch: int):
    """Local FDBS + remote nickname, stats collected, statement hot."""
    machine = Machine()
    remote = Database("remote")
    remote.execute(
        "CREATE TABLE orders (order_no INT PRIMARY KEY, comp_no INT, qty INT)"
    )
    for index in range(n_remote):
        remote.execute(
            "INSERT INTO orders VALUES (?, ?, ?)",
            params=[index, index % 50, index * 3],
        )
    local = Database("local", machine=machine, optimizer=optimizer)
    local.execute("CREATE WRAPPER w")
    local.execute("CREATE SERVER s WRAPPER w")
    local.attach_endpoint("s", DatabaseEndpoint(remote))
    local.execute("CREATE NICKNAME n FOR s.orders")
    local.execute("CREATE TABLE watch (pk INT PRIMARY KEY, comp_no INT)")
    for index in range(n_watch):
        local.execute(
            "INSERT INTO watch VALUES (?, ?)", params=[index, index % 12]
        )
    local.execute("RUNSTATS watch")
    local.execute("RUNSTATS n")
    local.execute(REMOTE_SQL)  # warm the statement cache
    return local, machine


def build_udtf_workload(optimizer: str, n_watch: int):
    """Scenario FDBS (fenced runtime) + skewed watch table, hot."""
    scenario = build_scenario(
        Architecture.WFMS, config=EngineConfig(optimizer=optimizer)
    )
    fdbs = scenario.server.fdbs
    fdbs.execute("CREATE TABLE watch (pk INT PRIMARY KEY, supplier_no INT)")
    for index in range(n_watch):
        fdbs.execute(
            "INSERT INTO watch VALUES (?, ?)",
            params=[index, SUPPLIER_POOL[index % len(SUPPLIER_POOL)]],
        )
    fdbs.execute("RUNSTATS watch")
    fdbs.execute(UDTF_SQL)  # warm processes and the statement cache
    return fdbs, scenario.server.machine


def measure(database, machine, sql: str) -> tuple[list[tuple], float]:
    """One hot execution: (rows, simulated elapsed time)."""
    start = machine.clock.now
    rows = database.execute(sql).rows
    return rows, machine.clock.now - start


MERGE_COUNT_SQL = "SELECT COUNT(*) FROM dim AS d, fact AS f WHERE d.k = f.k"
MERGE_SAMPLE_SQL = (
    "SELECT d.k, d.w, f.v FROM dim AS d, fact AS f "
    "WHERE d.k = f.k ORDER BY d.k"
)


def build_merge_workload(optimizer: str, n_rows: int):
    """Two base tables bulk-loaded in ascending key order (presorted)."""
    db = Database("merge", execution_mode="batch", optimizer=optimizer)
    db.execute("CREATE TABLE fact (k INTEGER, v INTEGER)")
    db.execute("CREATE TABLE dim (k INTEGER, w INTEGER)")
    fact = db.catalog.get_table("fact").storage
    dim = db.catalog.get_table("dim").storage
    for index in range(n_rows):
        fact.insert((index, index % 97))
        dim.insert((index, index % 13))
    if optimizer == "cost":
        db.execute("RUNSTATS fact")
        db.execute("RUNSTATS dim")
    return db


def run_merge_join(n_rows: int = 100_000, repeats: int = 3) -> dict:
    """Forced hash vs merge on presorted inputs: wall-clock best-of-N."""
    db = build_merge_workload("cost", n_rows)
    walls = {}
    for strategy in ("hash", "merge"):
        db.reconfigure(join_strategy=strategy)
        db.execute(MERGE_COUNT_SQL)  # warm the statement cache + plan
        best = None
        for _ in range(repeats):
            start = time.perf_counter()
            count = db.execute(MERGE_COUNT_SQL).scalar()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        walls[strategy] = best
    presorted = "input=presorted" in db.explain(MERGE_COUNT_SQL)
    # Row parity sweeps the full join output on a smaller instance (the
    # syntactic baseline is a cross-product fold; 100k^2 is out of reach).
    sample_rows = n_rows // 50 if n_rows >= 5000 else n_rows
    baseline = build_merge_workload("syntactic", sample_rows).execute(
        MERGE_SAMPLE_SQL
    ).rows
    sample_db = build_merge_workload("cost", sample_rows)
    rows_identical = True
    for strategy in ("hash", "merge", "indexnlj", "nlj"):
        sample_db.reconfigure(join_strategy=strategy)
        if sample_db.execute(MERGE_SAMPLE_SQL).rows != baseline:
            rows_identical = False
    return {
        "rows_per_table": n_rows,
        "join_count": count,
        "presorted_input": presorted,
        "hash_wall_seconds": round(walls["hash"], 6),
        "merge_wall_seconds": round(walls["merge"], 6),
        "speedup_wall": round(walls["hash"] / walls["merge"], 2),
        "parity_rows_per_table": sample_rows,
        "rows_identical": rows_identical,
    }


ADAPTIVE_SQL = (
    "SELECT w.pk, o.order_no FROM watch AS w, n AS o "
    "WHERE w.comp_no = o.comp_no ORDER BY w.pk, o.order_no"
)


def build_adaptive_workload(
    optimizer: str, n_remote: int, n_watch: int, n_after: int
):
    """Remote nickname + local watch table that shrinks after RUNSTATS.

    ``watch`` has one distinct ``comp_no`` per row, so at RUNSTATS time
    its estimated key count blows the bind join's IN-list cap and the
    cost plan ships the whole remote side.  The shrink to ``n_after``
    rows makes that estimate wrong by ``n_watch / n_after``.
    """
    machine = Machine()
    remote = Database("remote")
    remote.execute(
        "CREATE TABLE orders (order_no INTEGER, comp_no INTEGER, qty INTEGER)"
    )
    orders = remote.catalog.get_table("orders").storage
    for index in range(n_remote):
        orders.insert((index, index % n_watch, index * 3))
    local = Database("local", machine=machine, optimizer=optimizer)
    local.execute("CREATE WRAPPER w")
    local.execute("CREATE SERVER s WRAPPER w")
    local.attach_endpoint("s", DatabaseEndpoint(remote))
    local.execute("CREATE NICKNAME n FOR s.orders")
    local.execute("CREATE TABLE watch (pk INTEGER, comp_no INTEGER)")
    watch = local.catalog.get_table("watch").storage
    for index in range(n_watch):
        watch.insert((index, index))
    if optimizer == "cost":
        local.execute("RUNSTATS watch")
        local.execute("RUNSTATS n")
    local.execute(f"DELETE FROM watch WHERE pk >= {n_after}")
    return local, machine


def run_adaptive_feedback(
    n_remote: int = 20_000, n_watch: int = 6_000, n_after: int = 60
) -> dict:
    """Stale run, EXPLAIN ANALYZE feedback, corrected re-run."""
    local, machine = build_adaptive_workload(
        "cost", n_remote, n_watch, n_after
    )
    local.execute(ADAPTIVE_SQL)  # warm the statement cache
    stale_rows, stale_su = measure(local, machine, ADAPTIVE_SQL)
    local.execute("EXPLAIN ANALYZE " + ADAPTIVE_SQL)
    feedback = local.catalog.feedback_for("watch")
    corrected_plan = local.explain(ADAPTIVE_SQL)
    local.execute(ADAPTIVE_SQL)  # warm the replanned statement
    fixed_rows, fixed_su = measure(local, machine, ADAPTIVE_SQL)
    baseline_db, _ = build_adaptive_workload(
        "syntactic", n_remote, n_watch, n_after
    )
    baseline = baseline_db.execute(ADAPTIVE_SQL).rows
    stats = local.join_stats()
    return {
        "remote_rows": n_remote,
        "watch_rows_at_runstats": n_watch,
        "watch_rows_now": n_after,
        "observed_q_error": feedback.q_error if feedback is not None else None,
        "plans_invalidated": stats["plans_invalidated"],
        "stats_epoch": stats["stats_epoch"],
        "bind_join_after_feedback": "BindJoin(n" in corrected_plan,
        "stale_su": round(stale_su, 2),
        "corrected_su": round(fixed_su, 2),
        "recovery": round(stale_su / fixed_su, 2),
        "rows_identical": stale_rows == fixed_rows == baseline,
    }


def run(n_remote: int = 20000, n_outer: int = 60, n_udtf_outer: int = 300) -> dict:
    """Run both workloads under both planning modes and summarize."""
    wall_start = time.perf_counter()
    workloads = {}

    rows_by_mode = {}
    times = {}
    for optimizer in ("syntactic", "cost"):
        local, machine = build_remote_workload(optimizer, n_remote, n_outer)
        rows_by_mode[optimizer], times[optimizer] = measure(
            local, machine, REMOTE_SQL
        )
    workloads["remote_bind_join"] = {
        "outer_rows": n_outer,
        "remote_rows": n_remote,
        "result_rows": len(rows_by_mode["cost"]),
        "syntactic_su": round(times["syntactic"], 2),
        "cost_su": round(times["cost"], 2),
        "speedup": round(times["syntactic"] / times["cost"], 2),
        "rows_identical": rows_by_mode["cost"] == rows_by_mode["syntactic"],
    }

    rows_by_mode = {}
    times = {}
    for optimizer in ("syntactic", "cost"):
        fdbs, machine = build_udtf_workload(optimizer, n_udtf_outer)
        rows_by_mode[optimizer], times[optimizer] = measure(
            fdbs, machine, UDTF_SQL
        )
    workloads["udtf_bind_join"] = {
        "outer_rows": n_udtf_outer,
        "distinct_keys": len(SUPPLIER_POOL),
        "result_rows": len(rows_by_mode["cost"]),
        "syntactic_su": round(times["syntactic"], 2),
        "cost_su": round(times["cost"], 2),
        "speedup": round(times["syntactic"] / times["cost"], 2),
        "rows_identical": rows_by_mode["cost"] == rows_by_mode["syntactic"],
    }

    merge_join = run_merge_join()
    adaptive_feedback = run_adaptive_feedback()

    total_syntactic = sum(w["syntactic_su"] for w in workloads.values())
    total_cost = sum(w["cost_su"] for w in workloads.values())
    return {
        "benchmark": "optimizer",
        "wall_seconds": round(time.perf_counter() - wall_start, 6),
        "workloads": workloads,
        "merge_join": merge_join,
        "adaptive_feedback": adaptive_feedback,
        "total_syntactic_su": round(total_syntactic, 2),
        "total_cost_su": round(total_cost, 2),
        "speedup": round(total_syntactic / total_cost, 2),
        "rows_identical": all(w["rows_identical"] for w in workloads.values())
        and merge_join["rows_identical"]
        and adaptive_feedback["rows_identical"],
    }


def write_report(summary: dict, path: Path = REPORT_PATH) -> None:
    """Persist the benchmark summary as JSON."""
    path.write_text(json.dumps(summary, indent=2) + "\n")


@pytest.mark.perf
def test_optimizer_speedup():
    """Cost-based mode is >= 3x faster on the skewed federated workload."""
    summary = run()
    write_report(summary)
    print()
    print(json.dumps(summary, indent=2))
    assert summary["rows_identical"], (
        "the cost-based plan changed the answer — bind joins must be "
        "bit-identical to the syntactic plan"
    )
    assert summary["speedup"] >= 3.0, (
        f"expected >= 3x simulated-time reduction, got "
        f"{summary['speedup']}x"
    )
    for name, workload in summary["workloads"].items():
        assert workload["speedup"] > 1.0, f"{name} got slower"


@pytest.mark.perf
def test_merge_join_speedup():
    """Sort-merge beats the hash join >= 3x wall time on presorted
    100k inputs, with bit-identical rows across every strategy."""
    section = run_merge_join()
    print()
    print(json.dumps(section, indent=2))
    assert section["rows_identical"], (
        "a join strategy changed the answer — all strategies must be "
        "bit-identical"
    )
    assert section["presorted_input"], (
        "the merge join failed to recognise the clustered key order"
    )
    assert section["speedup_wall"] >= 3.0, (
        f"expected >= 3x wall-clock reduction over the hash join, got "
        f"{section['speedup_wall']}x"
    )


@pytest.mark.perf
def test_adaptive_feedback_recovery():
    """A 100x-stale cardinality is corrected by one EXPLAIN ANALYZE:
    the re-run recovers >= 5x simulated time via the bind join."""
    section = run_adaptive_feedback()
    print()
    print(json.dumps(section, indent=2))
    assert section["rows_identical"], (
        "the replanned statement changed the answer"
    )
    assert section["observed_q_error"] == pytest.approx(100.0), (
        f"expected a q-error of 100, got {section['observed_q_error']}"
    )
    assert section["bind_join_after_feedback"], (
        "feedback failed to unlock the bind join"
    )
    assert section["recovery"] >= 5.0, (
        f"expected >= 5x simulated-time recovery after feedback, got "
        f"{section['recovery']}x"
    )


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: workload sizes and ``--out PATH``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--remote-rows", type=int, default=20000)
    parser.add_argument("--outer-rows", type=int, default=60)
    parser.add_argument("--udtf-outer-rows", type=int, default=300)
    parser.add_argument("--out", type=Path, default=REPORT_PATH)
    args = parser.parse_args(argv)
    summary = run(args.remote_rows, args.outer_rows, args.udtf_outer_rows)
    write_report(summary, args.out)
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
