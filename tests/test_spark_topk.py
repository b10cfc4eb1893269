"""Catalyst windowed top-k vs the DuckDB oracle (spark/topk_sql.py)."""
import os
import pathlib
import subprocess
import sys

import duckdb
import pandas as pd
import pytest
from pyspark.errors import SparkRuntimeException
from pyspark.sql import functions as F

from repro.core.query import TopKQuery
from repro.oracle import assert_equivalent
from repro.spark.topk_sql import continuous_topk_sql, windowed_topk_oracle_sql
from repro.streams.datasets import stream_pdf


@pytest.mark.parametrize(
    "ds,n,k,s",
    [
        ("TIMEU", 60, 5, 6),
        ("STOCK", 60, 5, 6),
        ("TIMER", 80, 10, 4),
        ("TRIP", 50, 3, 10),
        ("PLANET", 64, 8, 8),
    ],
)
def test_catalyst_matches_duckdb(spark, ds, n, k, s):
    q = TopKQuery(n=n, k=k, s=s)
    pdf = stream_pdf(ds, 4 * n, seed=11)
    out = continuous_topk_sql(spark.createDataFrame(pdf), q)
    assert_equivalent(out, windowed_topk_oracle_sql(q), stream=pdf)


def test_catalyst_multiple_streams(spark):
    q = TopKQuery(n=40, k=4, s=4)
    pdf = pd.concat(
        [
            stream_pdf("TIMEU", 120, seed=1, stream_id=0),
            stream_pdf("STOCK", 160, seed=2, stream_id=1),
            stream_pdf("TIMER", 80, seed=3, stream_id=2),
        ]
    )
    out = continuous_topk_sql(spark.createDataFrame(pdf), q)
    assert_equivalent(out, windowed_topk_oracle_sql(q), stream=pdf)


def test_catalyst_short_stream_emits_nothing(spark):
    q = TopKQuery(n=100, k=5, s=10)
    pdf = stream_pdf("TIMEU", 50, seed=1)
    out = continuous_topk_sql(spark.createDataFrame(pdf), q)
    assert out.count() == 0


def test_catalyst_row_count(spark):
    q = TopKQuery(n=40, k=4, s=8)
    pdf = stream_pdf("TRIP", 120, seed=5)
    out = continuous_topk_sql(spark.createDataFrame(pdf), q)
    assert out.count() == q.num_windows(120) * q.k


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_catalyst_rejects_non_finite_scores(spark, bad):
    q = TopKQuery(n=40, k=4, s=4)
    df = spark.createDataFrame(stream_pdf("TIMEU", 123, seed=1))
    # t = 10 lies in windows; t = 121 only in the tail after the last one
    for pos in (10, 121):
        score = F.when(F.col("t") == pos, F.lit(bad)).otherwise(F.col("score"))
        out = continuous_topk_sql(df.withColumn("score", score), q)  # lazy
        with pytest.raises(SparkRuntimeException, match="scores must be finite"):
            out.collect()


def test_catalyst_rejects_pandas_nan(spark):
    # Arrow turns a pandas NaN into a null score
    q = TopKQuery(n=40, k=4, s=4)
    pdf = stream_pdf("TIMEU", 120, seed=1)
    pdf.loc[10, "score"] = float("nan")
    out = continuous_topk_sql(spark.createDataFrame(pdf), q)
    with pytest.raises(SparkRuntimeException, match="scores must be finite"):
        out.collect()


@pytest.mark.parametrize("bad", ["'nan'", "'inf'", "'-inf'", "NULL"])
def test_duckdb_oracle_rejects_non_finite_scores(bad):
    q = TopKQuery(n=40, k=4, s=4)
    # t = 10 lies in windows; t = 121 only in the tail after the last one
    for pos in (10, 121):
        con = duckdb.connect()
        con.register("raw", stream_pdf("TIMEU", 123, seed=1))
        con.execute(
            "CREATE VIEW stream AS SELECT stream_id, t, CASE WHEN t = "
            f"{pos} THEN {bad}::DOUBLE ELSE score END AS score FROM raw"
        )
        with pytest.raises(duckdb.InvalidInputException, match="scores must be finite"):
            con.execute(windowed_topk_oracle_sql(q)).fetchall()
        con.close()


def test_importing_the_oracle_and_operators_leaves_duckdb_unloaded():
    # perfbench imports these in every timed set-up; DuckDB loads only
    # when assert_equivalent runs
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import repro.oracle, repro.spark.operator, repro.spark.streaming_op\n"
        "print('duckdb' in sys.modules)"
    )
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False"]


@pytest.mark.parametrize("pos", [10, 121])
def test_oracle_rejects_na_in_a_nullable_score_column(spark, pos):
    # DuckDB reads a pd.NA set into a Float64 column as the score it
    # replaced; registered as numpy float64 it is NaN and is rejected
    q = TopKQuery(n=40, k=4, s=4)
    pdf = stream_pdf("TIMEU", 123, seed=1)
    out = continuous_topk_sql(spark.createDataFrame(pdf), q)  # lazy
    pdf["score"] = pdf["score"].astype("Float64")
    pdf.loc[pdf.t == pos, "score"] = pd.NA
    with pytest.raises(duckdb.InvalidInputException, match="scores must be finite"):
        assert_equivalent(out, windowed_topk_oracle_sql(q), stream=pdf)


def test_oracle_keeps_nullable_columns_without_na(spark):
    q = TopKQuery(n=40, k=4, s=4)
    pdf = stream_pdf("TIMEU", 123, seed=1)
    out = continuous_topk_sql(spark.createDataFrame(pdf), q)
    nullable = pdf.astype({"t": "Int64", "score": "Float64"})
    assert_equivalent(out, windowed_topk_oracle_sql(q), stream=nullable)
