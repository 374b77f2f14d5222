"""The simulator's benchmark: figure-shaped workloads, end-to-end host
metrics, and a separate traced run that attributes host time to layers.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
