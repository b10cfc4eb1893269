"""Shared SparkSession setup + CLI plumbing for the job entrypoints.

Jobs mirror the test fixture's configuration (local[*], Arrow on,
broadcast joins off) so ``spark-submit jobs/<name>.py`` reproduces the
same numbers the pytest benchmarks produce.
"""
from __future__ import annotations

import argparse
import pathlib

from pyspark.sql import SparkSession

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def get_spark(app: str) -> SparkSession:
    """A local SparkSession configured like the test fixture."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def table_arg_parser(desc: str) -> argparse.ArgumentParser:
    """Common CLI: --preset bench|small, --serial to skip Spark fan-out."""
    p = argparse.ArgumentParser(description=desc)
    p.add_argument(
        "--preset",
        choices=["bench", "small"],
        default="bench",
        help="parameter grid size (bench = paper-scale grids)",
    )
    p.add_argument(
        "--serial",
        action="store_true",
        help="run cells serially in-process instead of via Spark",
    )
    return p
