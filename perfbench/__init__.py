"""End-to-end and per-layer benchmark for the precsched command line.

Run `python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>` from the repository root; README.md in this directory lists
the workloads and metrics.
"""
