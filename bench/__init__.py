"""Benchmark of the `coarsecert` CLI; see METRICS.md and run.py."""
