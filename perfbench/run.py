"""Run the benchmark: one workload, or all of them.

    python3 perfbench/run.py --workload paper_calls --seed 1 --seconds 10 --trace 0

Each run builds the system from ``src/`` of this checkout, times its
set-up several times (median reported), measures a closed loop for
``--seconds`` of wall time, then checks the outputs outside the timed
loop.  Timings are reported at a reference interpreter speed measured
in the same run (see :mod:`perfbench.harness`) and, as ``wall_*``,
unscaled.  ``--trace 0`` measures untraced and reports the end-to-end
metrics; ``--trace 1`` alternates untraced rounds with rounds that
record spans around every layer entry point, and reports the
per-layer metrics plus the tracing overhead.  Every metric is printed with its
unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and the gated ``metrics``.  A
result file (environment fingerprint, metric and workload catalogue,
every metric) and, for traced runs, a Chrome trace-event dump are
written under ``perfbench/results/``.  ``--workload all`` runs every
workload in its own process, one after the other.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"


def parse_args(argv=None) -> argparse.Namespace:
    """Command-line options."""
    from perfbench import spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: small inputs and one set-up, for the benchmark's own tests",
    )
    parser.add_argument("--results", type=Path, default=RESULTS)
    return parser.parse_args(argv)


def run_one(args) -> dict:
    """Run one workload; returns the final result object."""
    from perfbench import harness, spec
    from perfbench.tracing import SpanRecorder
    from perfbench.workloads import make

    tiny = args.size == "tiny"
    workload = make(args.workload, args.seed, tiny)
    try:
        setups = harness.timed_setups(workload, 1 if tiny else workload.setup_repeats)
        recorder = None
        if args.trace:
            recorder = SpanRecorder()
            untraced, traced = harness.measure(workload, args.seconds, recorder)
            phases = [untraced, traced]
        else:
            phases = [harness.measure(workload, args.seconds)]
        rss = harness.peak_rss_mb()
        failures, info = workload.check()
    finally:
        workload.close()

    metrics: dict = {}
    if args.trace:
        metrics.update(harness.layer_metrics(workload, traced, untraced, recorder))
        low, high = spec.RECONCILE_TOLERANCE
        if not low <= metrics["trace.reconciled_frac"] <= high:
            failures.append(
                f"trace.reconciled_frac {metrics['trace.reconciled_frac']:.4f} "
                f"outside [{low}, {high}]"
            )
    else:
        metrics.update(harness.end_to_end(phases[0], setups, rss))
        metrics.update(workload.phase_metrics(phases[0]))
        for name in list(info):
            if name in spec.METRICS:
                metrics[name] = info.pop(name)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors][:20]
    harness.print_metrics(args.workload, metrics)
    for name, value in info.items():
        print(f"{args.workload:>14}  check: {name} = {value}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    for error in errors:
        print(f"OP FAILED: {error}", file=sys.stderr)

    gate = spec.everywhere_per_layer() if args.trace else spec.gated_end_to_end()
    final = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
    }
    for metric in gate:
        value = metrics[metric.name]
        if value is None:
            raise RuntimeError(f"gated metric {metric.name} has no value")
        final["metrics"][metric.name] = {"value": value, "unit": metric.unit}

    args.results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if recorder is not None:
        trace_path = args.results / f"{stem}.chrome.json"
        trace_path.write_text(json.dumps(recorder.chrome_trace()))
    report = {
        "fingerprint": harness.fingerprint(args.seed),
        "workload": spec.workload(args.workload).__dict__,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_runs_wall_s": setups[0],
        "setup_runs_ref_s": setups[1],
        "phases": [
            {"wall_s": p.wall, "attempted": p.attempted, "completed": p.completed,
             "failed": p.failed, "writes": p.writes, "counters": p.counters}
            for p in phases
        ],
        "metrics": {
            name: {"value": value, **spec.METRICS[name].as_dict()}
            for name, value in metrics.items()
        },
        "info": info,
        "check_failures": failures,
        "op_errors": errors,
        "result": final,
    }
    (args.results / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    return final


def run_all(args) -> dict:
    """Every workload in its own process; metrics keyed by workload."""
    from perfbench import spec

    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec.WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size, "--results", str(args.results),
        ]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            final["metrics"][f"{name}.{metric}"] = value
    return final


def main(argv=None) -> int:
    """Entry point; exit status 0 only when a result was printed."""
    if not (SRC / "repro").is_dir():
        print(f"error: no system source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    args = parse_args(argv)
    final = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
