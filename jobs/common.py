"""Shared SparkSession setup for the job entrypoints.

Jobs mirror the test fixture's configuration (local[*], Arrow on,
broadcast joins off) so ``spark-submit jobs/<name>.py`` reproduces the
same numbers the pytest benchmarks produce.
"""
from __future__ import annotations

import pathlib

from pyspark.sql import SparkSession

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


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
