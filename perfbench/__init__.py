"""Benchmark of the asphere CLI; run perfbench/run.py."""
