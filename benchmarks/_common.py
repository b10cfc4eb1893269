"""Shared helpers for the per-table benchmarks.

Each ``bench_tableN.py`` runs exactly the cells that produce that
paper table (distributed over the session SparkSession), times the
whole sweep once via ``benchmark.pedantic`` (cells are minutes-scale
sweeps — multi-round statistics would be wasteful and are not what the
table is about), and drops the raw frame + rendered paper-vs-ours
markdown under ``results/`` for EXPERIMENTS.md.
"""
from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
