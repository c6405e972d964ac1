"""The repository's benchmark: seeded closed-loop workloads over the
integration server, with correctness oracles and a traced per-layer
breakdown.  Run ``python3 perfbench/run.py --help`` from the repository
root."""
