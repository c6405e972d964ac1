"""Wall-clock microbenchmark — row vs batch execution, zone maps on/off.

Unlike the E4–E8 / X1–X4 benchmarks, which reproduce the paper's
*virtual-time* figures, this bench measures **real elapsed seconds** of
the FDBS executor on two workloads over a synthetic star schema:

* the original scan → filter → join → aggregate query (100k-row fact
  table by default), timed in both execution modes, and
* a selective scan-aggregate over a 1M-row fact table (``id BETWEEN``
  on the monotonically increasing key), run in batch mode with zone
  maps off and on.  Zone-map chunk pruning skips almost every chunk; a
  selectivity sweep shows how the pruning win shrinks as the range
  widens.

Row mode runs the Volcano engine with a nested-loop join; batch mode
the vectorized operators with a hash equi-join.  Zone-map pruning is a
storage and scan feature that both modes share.  Results are written to
``BENCH_executor.json`` in the repository root.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_wallclock_executor.py --rows 100000

or through pytest (deselected by default via the ``perf`` marker)::

    PYTHONPATH=src python -m pytest benchmarks/bench_wallclock_executor.py -m perf -s
"""

import argparse
import json
import time
from pathlib import Path

import pytest

from repro.fdbs.engine import Database

DEFAULT_FACT_ROWS = 100_000
DEFAULT_PRUNE_ROWS = 1_000_000
DIM_ROWS = 64
MODES = ("row", "batch")
QUERY = (
    "SELECT d.region, COUNT(*), SUM(f.amount) "
    "FROM fact AS f JOIN dim AS d ON f.dim_id = d.dim_id "
    "WHERE f.amount > 25.0 "
    "GROUP BY d.region "
    "ORDER BY d.region"
)
#: Selective scan-aggregate: ``id`` is monotonically increasing, so the
#: BETWEEN range maps to a handful of chunks and zone maps prune the rest.
PRUNE_QUERY = (
    "SELECT COUNT(*), SUM(f.amount) FROM fact AS f "
    "WHERE f.id BETWEEN {lo} AND {hi}"
)
#: Fractions of the fact table selected by the pruning sweep.
SWEEP_SELECTIVITIES = (0.001, 0.01, 0.1, 0.5)
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_executor.json"


def build(mode: str, fact_rows: int) -> Database:
    """One database with a fact and a dimension table, rows preloaded."""
    db = Database("bench", execution_mode=mode)
    db.execute(
        "CREATE TABLE fact (id INT PRIMARY KEY, dim_id INT, amount DOUBLE)"
    )
    db.execute("CREATE TABLE dim (dim_id INT PRIMARY KEY, region INT)")
    fact = db.catalog.get_table("fact").storage
    dim = db.catalog.get_table("dim").storage
    assert fact is not None and dim is not None
    for index in range(fact_rows):
        fact.insert((index, index % DIM_ROWS, float(index % 101)))
    for index in range(DIM_ROWS):
        dim.insert((index, index % 8))
    return db


def time_query(db: Database, query: str) -> tuple[float, list[tuple]]:
    """Elapsed seconds and result rows for one warmed execution."""
    db.execute(query)  # warm the statement cache / plan path
    start = time.perf_counter()
    result = db.execute(query)
    return time.perf_counter() - start, result.rows


def run_join(fact_rows: int) -> dict:
    """Time the join query in both modes and summarize."""
    seconds: dict[str, float] = {}
    rows: dict[str, list[tuple]] = {}
    for mode in MODES:
        seconds[mode], rows[mode] = time_query(build(mode, fact_rows), QUERY)
    return {
        "benchmark": "wallclock_executor",
        "query": QUERY,
        "fact_rows": fact_rows,
        "dim_rows": DIM_ROWS,
        "row_seconds": round(seconds["row"], 6),
        "batch_seconds": round(seconds["batch"], 6),
        "speedup": round(seconds["row"] / seconds["batch"], 3),
        "parity": rows["row"] == rows["batch"],
        "result_groups": len(rows["row"]),
    }


def time_zone_maps(db: Database, query: str) -> dict:
    """Time one query with zone maps off, then on.

    Chunk counters are the delta around the single timed execution with
    zone maps on, so they describe exactly one query.
    """
    db.reconfigure(zone_maps=False)
    off_seconds, off_rows = time_query(db, query)
    db.reconfigure(zone_maps=True)
    db.execute(query)  # warm the sealed-chunk cache
    before = db.columnar_stats()
    start = time.perf_counter()
    on_rows = db.execute(query).rows
    on_seconds = time.perf_counter() - start
    after = db.columnar_stats()
    return {
        "off_seconds": off_seconds,
        "on_seconds": on_seconds,
        "parity": off_rows == on_rows,
        "chunks_scanned": after["chunks_scanned"] - before["chunks_scanned"],
        "chunks_pruned": after["chunks_pruned"] - before["chunks_pruned"],
    }


def run_pruning(fact_rows: int) -> dict:
    """Selective scan-aggregate in batch mode: zone maps off vs on,
    plus the selectivity sweep."""
    lo = fact_rows // 2
    hi = lo + max(1, fact_rows // 1000) - 1
    query = PRUNE_QUERY.format(lo=lo, hi=hi)
    db = build("batch", fact_rows)
    headline = time_zone_maps(db, query)

    sweep = []
    for selectivity in SWEEP_SELECTIVITIES:
        span = max(1, int(fact_rows * selectivity))
        point = time_zone_maps(db, PRUNE_QUERY.format(lo=0, hi=span - 1))
        sweep.append(
            {
                "selectivity": selectivity,
                "no_zone_maps_seconds": round(point["off_seconds"], 6),
                "zone_maps_seconds": round(point["on_seconds"], 6),
                "speedup": round(point["off_seconds"] / point["on_seconds"], 3),
                "chunks_scanned": point["chunks_scanned"],
                "chunks_pruned": point["chunks_pruned"],
                "parity": point["parity"],
            }
        )

    return {
        "benchmark": "wallclock_pruning",
        "query": query,
        "fact_rows": fact_rows,
        "execution_mode": "batch",
        "no_zone_maps_seconds": round(headline["off_seconds"], 6),
        "zone_maps_seconds": round(headline["on_seconds"], 6),
        "pruning_speedup": round(headline["off_seconds"] / headline["on_seconds"], 3),
        "parity": headline["parity"],
        "chunks_scanned": headline["chunks_scanned"],
        "chunks_pruned": headline["chunks_pruned"],
        "selectivity_sweep": sweep,
    }


def run(fact_rows: int, prune_rows: int) -> dict:
    """Both workloads; legacy join-bench keys stay at the top level."""
    summary = run_join(fact_rows)
    summary["pruning"] = run_pruning(prune_rows)
    return summary


def write_report(summary: dict, path: Path = REPORT_PATH) -> None:
    """Persist the benchmark summary as JSON."""
    path.write_text(json.dumps(summary, indent=2) + "\n")


@pytest.mark.perf
def test_wallclock_executor_speedup():
    """Batch is >= 3x over row on the join; zone maps make the
    selective 1M-row batch scan-aggregate >= 5x faster."""
    summary = run(DEFAULT_FACT_ROWS, DEFAULT_PRUNE_ROWS)
    write_report(summary)
    print()
    print(json.dumps(summary, indent=2))
    assert summary["parity"], "execution modes disagree on result rows"
    assert summary["speedup"] >= 3.0, (
        f"batch speedup {summary['speedup']}x below the 3x acceptance bar"
    )
    pruning = summary["pruning"]
    assert pruning["parity"], "pruning workload modes disagree on result rows"
    assert pruning["pruning_speedup"] >= 5.0, (
        f"zone-map pruning speedup {pruning['pruning_speedup']}x below "
        "the 5x acceptance bar"
    )
    assert pruning["chunks_pruned"] > 0, "zone maps pruned no chunks"


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: ``--rows N``, ``--prune-rows N`` and ``--out PATH``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=DEFAULT_FACT_ROWS)
    parser.add_argument("--prune-rows", type=int, default=DEFAULT_PRUNE_ROWS)
    parser.add_argument("--out", type=Path, default=REPORT_PATH)
    args = parser.parse_args(argv)
    summary = run(args.rows, args.prune_rows)
    write_report(summary, args.out)
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
