"""Distributed parameter-sweep harness — how every paper table is run.

A table is a grid of *cells* (dataset × algorithm × query parameters).
Each cell is an independent sequential run, so the natural Spark shape
is: build a DataFrame with one row per cell, group by cell id, and run
the cell inside ``applyInPandas`` on an executor core. Streams are
regenerated executor-side from their deterministic seed (cheap numpy)
instead of being shuffled around.

Timing caveat recorded in DESIGN.md §4: cells run concurrently on the
local machine, so absolute wall-times include scheduler contention;
each cell's time is measured with a process-local monotonic clock and
the tables compare ratios within one run.
"""
from __future__ import annotations

import json

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    DoubleType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from repro.core.metrics import METRIC_COLUMNS
from repro.core.query import TopKQuery
from repro.streams.datasets import gen_stream
from repro.streams.runner import run_stream

CELL_FIELDS = ("cell_id", "table", "dataset", "algo", "opts", "axis", "label")
PARAM_FIELDS = ("length", "seed", "n", "k", "s", "repeats")

CELL_SCHEMA = StructType(
    [StructField("cell_id", LongType())]
    + [StructField(f, StringType()) for f in CELL_FIELDS[1:]]
    + [StructField(f, LongType()) for f in PARAM_FIELDS]
)

RESULT_SCHEMA = StructType(
    list(CELL_SCHEMA.fields)
    + [StructField(c, DoubleType()) for c in METRIC_COLUMNS]
)


def make_cell(
    cell_id: int,
    table: str,
    dataset: str,
    algo: str,
    *,
    length: int,
    n: int,
    k: int,
    s: int,
    seed: int = 0,
    opts: dict | None = None,
    axis: str = "",
    label: str = "",
    repeats: int = 1,
) -> dict:
    """One sweep cell as a plain row dict.

    ``repeats``: run the cell this many times and keep the run with the
    lowest wall time — min-of-N is robust to scheduler contention when
    many cells share the local machine.
    """
    return {
        "cell_id": cell_id,
        "table": table,
        "dataset": dataset,
        "algo": algo,
        "opts": json.dumps(opts or {}),
        "axis": axis,
        "label": label,
        "length": length,
        "seed": seed,
        "n": n,
        "k": k,
        "s": s,
        "repeats": repeats,
    }


def run_cell(cell: dict) -> dict:
    """Execute one cell locally (also used executor-side)."""
    q = TopKQuery(n=int(cell["n"]), k=int(cell["k"]), s=int(cell["s"]))
    scores = gen_stream(cell["dataset"], int(cell["length"]), int(cell["seed"]))
    opts = json.loads(cell["opts"]) if cell["opts"] else {}
    best = None
    for _ in range(max(1, int(cell.get("repeats", 1)))):
        res = run_stream(cell["algo"], scores, q, **opts)
        if best is None or res.metrics.wall_time_s < best.metrics.wall_time_s:
            best = res
    row = {f: cell.get(f, 1) for f in CELL_FIELDS + PARAM_FIELDS}
    row.update(best.metrics.as_row())
    return row


def run_sweep(spark: SparkSession, cells: list[dict]) -> pd.DataFrame:
    """Fan all cells out across executors; one metrics row per cell."""
    if not cells:
        return pd.DataFrame(columns=[f.name for f in RESULT_SCHEMA.fields])
    cells_df = spark.createDataFrame(
        pd.DataFrame(cells), schema=CELL_SCHEMA
    ).repartition(len(cells), "cell_id")

    def worker(pdf: pd.DataFrame) -> pd.DataFrame:
        rows = [run_cell(rec) for rec in pdf.to_dict("records")]
        return pd.DataFrame(rows)[[f.name for f in RESULT_SCHEMA.fields]]

    out: DataFrame = cells_df.groupBy("cell_id").applyInPandas(
        worker, schema=RESULT_SCHEMA
    )
    return (
        out.toPandas().sort_values("cell_id").reset_index(drop=True)
    )
