"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python3 bench/run.py --help``; bench/README.md describes the
workloads, the metrics and how to read a trace.
"""
