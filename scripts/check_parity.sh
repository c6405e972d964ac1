#!/usr/bin/env bash
# Parity gate: one command proving that optimizations never change
# results or baseline timings.
#
#  1. row/batch compile-mode parity suite (same rows whether the
#     planner compiles per-row or vectorized closures),
#  2. pooling/caching ablation parity tests (flags off => simulated
#     timings bit-identical to the calibrated anchors; flags on =>
#     same result rows, paper's architecture ranking preserved),
#  3. fault-harness parity (every site armed at probability 0 with
#     retries + forward recovery on => bit-identical to flags-off;
#     exception-safety regressions in cache/pool/RMI/WfMS),
#  4. concurrency parity (same seeded multi-session workload under 1
#     worker vs K workers => bit-identical per-session rows and
#     simulated times; serving layer == bare single-caller stack;
#     thread-safety regression suite),
#  5. process-sharded parity (same workload at 1/2/4 OS worker
#     processes => bit-identical per-session rows and simulated times
#     to the bare stack and to thread-mode serving; worker-kill fault
#     battery; battery-through-serving differential slice; serving
#     teardown/accounting regressions; wire + hash-ring unit suite),
#  6. optimizer parity (cost-based mode => bit-identical rows across
#     architectures and execution modes; statistics absent =>
#     bit-identical rows AND simulated times; join strategies —
#     hash/merge/indexnlj/nlj — bit-identical rows and times, with the
#     merge-join and adaptive-feedback benchmark gates; EXPLAIN ANALYZE
#     parity — equal per-operator actual= counts in both compile modes —
#     and no cardinality feedback from a scan a LIMIT closed early),
#  7. chunk/zone-map parity (row vs batch compile modes over column
#     chunks => bit-identical rows AND simulated times; zone-map
#     pruning on/off => same rows; COW-rebuild, all-NULL and
#     pinned-snapshot edge cases; exact chunk counters in both modes),
#  8. calibration regression (the frozen Fig. 5/6 anchor numbers).
#
# Usage: scripts/check_parity.sh

set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== row/batch compile-mode parity suite =="
python -m pytest -q tests/test_fdbs_batch_parity.py

echo "== pooling/caching ablation parity =="
python -m pytest -q tests/test_coupling_ablation.py tests/test_result_cache.py

echo "== fault-harness parity + exception-safety regressions =="
python -m pytest -q tests/test_fault_parity.py tests/test_faults.py \
    tests/test_runtime_pool.py tests/test_wfms_engine.py

echo "== concurrency parity + thread-safety regressions =="
python -m pytest -q tests/test_concurrent_parity.py \
    tests/test_thread_safety_regressions.py

echo "== MVCC snapshot-isolation suite =="
python -m pytest -q tests/test_mvcc_snapshot_isolation.py

echo "== concurrency benchmark parity gate =="
python benchmarks/bench_concurrency.py > /dev/null

python - <<'EOF'
import json

summary = json.load(open("BENCH_concurrency.json"))
assert len(summary["runs"]) >= 3, "need >= 3 worker counts"
assert summary["single_session_parity"], (
    "1-worker serving run is not bit-identical to the single-session path"
)
assert summary["cross_worker_parity"], (
    "worker count changed per-session rows or simulated times"
)
tp = {r["workers"]: r["throughput_calls_per_s"] for r in summary["runs"]}
print(f"OK: single-session parity + cross-worker parity hold; "
      f"throughput by workers: {tp}")

# MVCC gates: with MVCC on, a single worker is bit-identical to the
# bare pre-serving stack (rows AND simulated times -- asserted above
# via single_session_parity), shared-mode rows are deterministic at
# every worker count, and lock-free snapshot readers actually scale.
scaling = summary["scaling"]
for profile, entry in scaling["profiles"].items():
    for r in entry["runs"]:
        assert r["rows_match_one_worker"], (
            f"{profile}: {r['workers']}-worker shared-mode run changed rows"
        )
speedup = {
    r["workers"]: r["speedup_vs_1_worker"]
    for r in scaling["profiles"]["read_heavy"]["runs"]
}
assert speedup[4] >= 2.0, (
    f"read-heavy speedup at 4 workers is {speedup[4]}x, below the 2x gate"
)
print(f"OK: MVCC scaling gate holds; read-heavy speedup by workers: {speedup}")

# Process-sharded gates: isolated shards keep the parity contract exact
# across the process boundary (rows AND simulated times match the bare
# stack and the 1-shard run at every shard count), and overlapping the
# injected RMI wall latency across OS processes actually scales.
process = summary["process_scaling"]
assert process["cross_shard_parity"], (
    "a shard count changed per-session rows or simulated times"
)
for r in process["runs"]:
    assert r["rows_match_single_server"] and r["sim_times_match_single_server"], (
        f"{r['shards']}-shard run is not bit-identical to the bare stack"
    )
proc_speedup = {r["shards"]: r["speedup_vs_1_shard"] for r in process["runs"]}
assert proc_speedup[4] >= 2.0, (
    f"read-heavy process speedup at 4 shards is {proc_speedup[4]}x, "
    "below the 2x gate"
)
print(f"OK: process scaling gate holds; speedup by shards: {proc_speedup}")
EOF

echo "== process-sharded parity + fault battery + serving regressions =="
python -m pytest -q tests/test_serving_wire.py tests/test_serving_shutdown.py
python -m pytest -q -m proc tests/test_process_parity.py \
    tests/test_process_faults.py tests/sql_battery/test_battery_serving.py

echo "== optimizer parity (cost-based vs syntactic) =="
python -m pytest -q tests/test_optimizer_parity.py tests/test_optimizer.py \
    tests/test_join_strategies.py \
    "tests/test_fdbs_batch_executor.py::TestExplainOutput::test_explain_analyze_labels_the_session_mode" \
    "tests/test_fdbs_batch_executor.py::TestExplainOutput::test_explain_analyze_early_limit_records_no_feedback"

echo "== optimizer benchmark gate (merge join + adaptive feedback) =="
python benchmarks/bench_optimizer.py > /dev/null

python - <<'EOF'
import json

summary = json.load(open("BENCH_optimizer.json"))
assert summary["rows_identical"], (
    "an optimizer workload changed the answer"
)
merge = summary["merge_join"]
assert merge["rows_identical"], "a join strategy changed the answer"
assert merge["presorted_input"], "merge join missed the clustered order"
assert merge["speedup_wall"] >= 3.0, (
    f"merge join wall speedup {merge['speedup_wall']}x below the 3x gate"
)
adaptive = summary["adaptive_feedback"]
assert adaptive["rows_identical"], "feedback replanning changed the answer"
assert adaptive["bind_join_after_feedback"], (
    "feedback failed to unlock the bind join"
)
assert adaptive["recovery"] >= 5.0, (
    f"adaptive recovery {adaptive['recovery']}x below the 5x gate"
)
print(f"OK: merge join {merge['speedup_wall']}x wall over hash; "
      f"feedback recovery {adaptive['recovery']}x "
      f"(q-error {adaptive['observed_q_error']})")
EOF

echo "== chunk/zone-map parity (row vs batch compile, zone maps on/off) =="
python -m pytest -q tests/test_columnar_parity.py

echo "== calibration regression =="
python -m pytest -q tests/test_calibration_regression.py

echo "parity checks passed"
