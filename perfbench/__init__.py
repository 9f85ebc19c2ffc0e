"""Benchmark of the whoosh_reloaded_ray engine; run perfbench/run.py."""
