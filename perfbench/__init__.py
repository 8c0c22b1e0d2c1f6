"""Benchmark of budgex: seeded workloads, end-to-end timings and per-layer traces.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md.
"""
