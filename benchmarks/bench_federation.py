"""Heterogeneous-federation benchmark — per-source-profile planning.

The same 12-row watch-list join runs against each of the three
heterogeneous source profiles (web API, archive, cache-fronted) under
both planning modes, each measurement on a fresh scenario so response
caches and rate-limit windows start identically:

* ``api_ratings`` (web API): paged, rate-limited, expensive per
  request — the cost-based plan ships the outer keys as a bind join;
* ``arch_orders`` (archive): bulk scans nearly free, predicated
  lookups surcharged — the cost-based plan ships the whole table;
* ``cat_components`` (cache-fronted): RUNSTATS warmed the response
  cache, so the full scan is a cache hit — again ship-all, priced at
  the cache-hit constant.

Asserts the acceptance criteria of the heterogeneous-federation work:
rows stay bit-identical under both planners for every profile, and the
cost-mode plan choice *differs across profiles on the same query
shape* (bind join for the web API, ship-all for the other two).

Results are written to ``BENCH_federation.json`` in the repository root.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_federation.py

or through pytest (deselected by default via the ``perf`` marker)::

    PYTHONPATH=src python -m pytest benchmarks/bench_federation.py -m perf -s
"""

import argparse
import json
import time
from pathlib import Path

import pytest

from repro.appsys.datagen import generate_enterprise_data
from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.fdbs.config import EngineConfig

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_federation.json"

PROFILES = {
    "api_ratings": ("supplier_no", "source:ratings_api", "web_api"),
    "arch_orders": ("supplier_no", "source:order_archive", "archive"),
    "cat_components": ("comp_no", "source:comp_catalog", "cache_fronted"),
}


def shared_sql(nickname: str, column: str) -> str:
    """The one query shape every profile is measured on."""
    return (
        f"SELECT w.pk, r.{column} FROM hwatch AS w, {nickname} AS r "
        f"WHERE w.{column} = r.{column} ORDER BY w.pk, r.{column}"
    )


def build_workload(optimizer: str, data):
    """A fresh heterogeneous scenario with the watch table, stats hot."""
    scenario = build_scenario(
        Architecture.WFMS,
        data=data,
        config=EngineConfig(optimizer=optimizer),
        heterogeneous=True,
    )
    fdbs = scenario.server.fdbs
    fdbs.execute(
        "CREATE TABLE hwatch (pk INT PRIMARY KEY, supplier_no INT, comp_no INT)"
    )
    for pk in range(12):
        fdbs.execute(
            "INSERT INTO hwatch VALUES (?, ?, ?)",
            params=[pk, 1234 if pk % 3 == 0 else 5001 + pk % 4, 1 + pk],
        )
    fdbs.execute("RUNSTATS ON TABLE hwatch")
    for nickname in PROFILES:
        fdbs.execute(f"RUNSTATS ON TABLE {nickname}")
    return scenario


def measure(scenario, nickname: str, column: str, stats_key: str):
    """One hot execution against one profile: rows, su, source counters."""
    fdbs = scenario.server.fdbs
    sql = shared_sql(nickname, column)
    fdbs.execute(sql)  # warm the statement cache
    before = dict(scenario.server.source_stats()[stats_key])
    rows, elapsed = scenario.server.elapsed(fdbs.execute, sql)
    after = scenario.server.source_stats()[stats_key]
    deltas = {key: after[key] - before[key] for key in after}
    return rows.rows, elapsed, deltas


def run() -> dict:
    """Measure every profile under both planners and summarize."""
    wall_start = time.perf_counter()
    data = generate_enterprise_data()
    profiles = {}
    plan_choices = {}
    for nickname, (column, stats_key, profile_name) in PROFILES.items():
        entry = {"profile": profile_name, "shared_query": shared_sql(nickname, column)}
        rows_by_mode = {}
        for optimizer in ("syntactic", "cost"):
            scenario = build_workload(optimizer, data)
            fdbs = scenario.server.fdbs
            bind = "BindJoin" in fdbs.explain(shared_sql(nickname, column))
            rows, elapsed, deltas = measure(
                scenario, nickname, column, stats_key
            )
            rows_by_mode[optimizer] = rows
            entry[f"{optimizer}_su"] = round(elapsed, 2)
            entry[f"{optimizer}_plan"] = "bind-join" if bind else "ship-all"
            entry[f"{optimizer}_source_counters"] = deltas
        entry["rows_identical"] = (
            rows_by_mode["cost"] == rows_by_mode["syntactic"]
        )
        entry["result_rows"] = len(rows_by_mode["cost"])
        entry["speedup"] = round(
            entry["syntactic_su"] / entry["cost_su"], 2
        )
        profiles[nickname] = entry
        plan_choices[nickname] = entry["cost_plan"]
    return {
        "benchmark": "federation",
        "wall_seconds": round(time.perf_counter() - wall_start, 6),
        "profiles": profiles,
        "cost_plan_choices": plan_choices,
        "plans_diverge_across_profiles": len(set(plan_choices.values())) > 1,
        "rows_identical": all(
            entry["rows_identical"] for entry in profiles.values()
        ),
    }


def write_report(summary: dict, path: Path = REPORT_PATH) -> None:
    """Persist the benchmark summary as JSON."""
    path.write_text(json.dumps(summary, indent=2) + "\n")


@pytest.mark.perf
def test_federation_plans_diverge_per_profile():
    """Cost-mode plan choice differs across profiles on the same query."""
    summary = run()
    write_report(summary)
    print()
    print(json.dumps(summary, indent=2))
    assert summary["rows_identical"], (
        "a profile-aware plan changed the answer — bind joins must be "
        "bit-identical to ship-all"
    )
    assert summary["plans_diverge_across_profiles"], (
        "every profile picked the same cost-mode plan — profile costing "
        "is not reaching the optimizer"
    )
    assert summary["cost_plan_choices"]["api_ratings"] == "bind-join"
    assert summary["cost_plan_choices"]["arch_orders"] == "ship-all"
    assert summary["cost_plan_choices"]["cat_components"] == "ship-all"


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: ``--out PATH``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=REPORT_PATH)
    args = parser.parse_args(argv)
    summary = run()
    write_report(summary, args.out)
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
