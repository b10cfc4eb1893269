"""Structured Streaming stateful operator vs the DuckDB oracle."""
import os
import time

import pandas as pd
import pytest
from pyspark.errors import StreamingQueryException
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.core.query import TopKQuery
from repro.oracle import assert_equivalent
from repro.spark.streaming_op import (
    EMPTY_STAGE,
    continuous_topk_streaming,
    stage_rows,
)
from repro.spark.topk_sql import windowed_topk_oracle_sql
from repro.streams.datasets import stream_pdf
from tests.test_operator import NON_FINITE, tied_stream_pdf

SCHEMA = StructType(
    [
        StructField("stream_id", LongType()),
        StructField("t", LongType()),
        StructField("score", DoubleType()),
    ]
)


@pytest.fixture(scope="module")
def spark(spark):
    """The session, with one shuffle partition per core while this module runs.

    Every micro-batch of a stateful query runs one task per shuffle
    partition, and these tests stream one key: at 64 partitions
    the task overhead, not the operator, sets their run time. The
    session's value comes back afterwards.
    """
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set(
        "spark.sql.shuffle.partitions", spark.sparkContext.defaultParallelism
    )
    yield spark
    spark.conf.set("spark.sql.shuffle.partitions", old)


def _run_streaming(spark, tmp_path, pdf, q, n_chunks, name):
    chunk_len = (len(pdf) + n_chunks - 1) // n_chunks
    chunks = [
        pdf.iloc[i * chunk_len : (i + 1) * chunk_len] for i in range(n_chunks)
    ]
    return _run_chunks(spark, tmp_path, chunks, q, name)


def _stage(src, chunks, first=0):
    """Write one parquet file per chunk, in order, numbered from ``first``."""
    src.mkdir(exist_ok=True)
    for i, chunk in enumerate(chunks, first):
        if len(chunk):
            chunk.to_parquet(src / f"chunk-{i:04d}.parquet")
            time.sleep(0.02)  # distinct mtimes keep file-source order


def _source(spark, src):
    """The staged files as a stream, one file per micro-batch."""
    return (
        spark.readStream.schema(SCHEMA)
        .option("maxFilesPerTrigger", 1)
        .parquet(str(src))
    )


def _run_chunks(spark, tmp_path, chunks, q, name):
    """Stream one parquet file per chunk, in order, one per micro-batch."""
    _stage(tmp_path / "in", chunks)
    out = continuous_topk_streaming(
        _source(spark, tmp_path / "in"), q, algo="sap-enhanced"
    )
    query = (
        out.writeStream.format("memory")
        .queryName(name)
        .outputMode("append")
        .option("checkpointLocation", str(tmp_path / "ckpt"))
        .trigger(availableNow=True)
        .start()
    )
    query.awaitTermination(180)
    return spark.table(name)


def test_streaming_operator_matches_duckdb(spark, tmp_path):
    q = TopKQuery(n=60, k=5, s=6)
    pdf = stream_pdf("TIMEU", 240, seed=3)
    res = _run_streaming(spark, tmp_path, pdf, q, n_chunks=4, name="res_a")
    assert res.count() == q.num_windows(240) * q.k
    assert_equivalent(res, windowed_topk_oracle_sql(q), stream=pdf)


def test_streaming_operator_many_microbatches(spark, tmp_path):
    # micro-batch boundaries unaligned with the slide size
    q = TopKQuery(n=40, k=4, s=4)
    pdf = stream_pdf("STOCK", 120, seed=8)
    res = _run_streaming(spark, tmp_path, pdf, q, n_chunks=7, name="res_b")
    assert_equivalent(res, windowed_topk_oracle_sql(q), stream=pdf)


def test_streaming_operator_drops_late_and_duplicate_rows(spark, tmp_path):
    q = TopKQuery(n=40, k=4, s=4)
    pdf = stream_pdf("STOCK", 120, seed=8)
    gap = pdf.iloc[100:110]  # arrives early and waits behind t = 90..99
    bogus = pdf.iloc[:60].assign(score=1e9)  # t = 0..59 replayed: late
    repeat = gap.assign(score=-1e9)  # t = 100..109 again: duplicate
    chunks = [
        pdf.iloc[:50],
        pd.concat([gap, pdf.iloc[50:90]]),
        pd.concat([bogus, repeat, pdf.iloc[90:100], pdf.iloc[110:]]),
    ]
    res = _run_chunks(spark, tmp_path, chunks, q, name="res_c")
    assert_equivalent(res, windowed_topk_oracle_sql(q), stream=pdf)


def test_streaming_operator_matches_duckdb_on_tied_scores(spark, tmp_path):
    q = TopKQuery(n=40, k=4, s=4)
    pdf = tied_stream_pdf()
    res = _run_streaming(spark, tmp_path, pdf, q, n_chunks=4, name="res_tied")
    assert_equivalent(res, windowed_topk_oracle_sql(q), stream=pdf)


@NON_FINITE
def test_streaming_operator_rejects_non_finite_scores(spark, tmp_path, bad):
    q = TopKQuery(n=40, k=4, s=4)
    pdf = stream_pdf("STOCK", 120, seed=8)
    _stage(tmp_path / "in", [pdf.iloc[:60], pdf.iloc[60:]])
    # t = 70 comes in the second micro-batch, to a stream with state
    score = F.when(F.col("t") == 70, F.lit(bad).cast("double"))
    sdf = _source(spark, tmp_path / "in")
    out = continuous_topk_streaming(
        sdf.withColumn("score", score.otherwise(F.col("score"))), q
    )
    query = (
        out.writeStream.format("noop")
        .option("checkpointLocation", str(tmp_path / "ckpt"))
        .trigger(availableNow=True)
        .start()
    )
    with pytest.raises(StreamingQueryException, match="scores must be finite"):
        query.awaitTermination(180)


def test_streaming_operator_restarts_from_its_checkpoint(spark, tmp_path):
    q = TopKQuery(n=40, k=4, s=4)
    pdf = stream_pdf("STOCK", 120, seed=8)
    chunks = [pdf.iloc[i : i + 15] for i in range(0, 120, 15)]
    src, sink = tmp_path / "in", tmp_path / "out"

    def run():
        """Drain the staged files into the parquet sink, then read it."""
        query = (
            continuous_topk_streaming(_source(spark, src), q)
            .writeStream.format("parquet")
            .option("path", str(sink))
            .option("checkpointLocation", str(tmp_path / "ckpt"))
            .trigger(availableNow=True)
            .start()
        )
        query.awaitTermination(180)
        return spark.read.parquet(str(sink))

    _stage(src, chunks[:4])
    assert run().count() == q.num_windows(60) * q.k
    # the restart reads only the new files; its stream state (the
    # pickled driver) comes back from the checkpoint
    _stage(src, chunks[4:], first=4)
    res = run()
    assert res.count() == q.num_windows(120) * q.k
    assert_equivalent(res, windowed_topk_oracle_sql(q), stream=pdf)


def test_stage_rows_drops_late_and_duplicate_rows():
    chunk, stage = stage_rows(
        EMPTY_STAGE, [(1, 1.0), (0, 0.0), (3, 3.0), (3, 9.0)], 10, 0
    )
    assert chunk == [0.0, 1.0]
    assert stage == {"pending": {3: 3.0}, "next_t": 2, "late": 0, "duplicate": 1}
    # t = 0, 1 were fed (late); t = 3 keeps its first score
    chunk, after = stage_rows(
        stage, [(0, 5.0), (1, 5.0), (3, 7.0), (2, 2.0), (4, 4.0)], 10, 0
    )
    assert chunk == [2.0, 3.0, 4.0]
    assert after == {"pending": {}, "next_t": 5, "late": 2, "duplicate": 2}
    assert stage["pending"] == {3: 3.0}
    assert EMPTY_STAGE == {"pending": {}, "next_t": 0, "late": 0, "duplicate": 0}


def test_stage_rows_bounds_rows_waiting_behind_a_gap():
    # t = 3 never arrives: up to n rows may wait behind it, not n + 1
    n = 5
    chunk, stage = stage_rows(EMPTY_STAGE, [(t, 0.0) for t in range(3)], n, 7)
    assert chunk == [0.0, 0.0, 0.0]
    _, stage = stage_rows(stage, [(t, 0.0) for t in range(4, 4 + n)], n, 7)
    assert len(stage["pending"]) == n
    with pytest.raises(ValueError, match=r"stream 7: .* missing t = 3"):
        stage_rows(stage, [(4 + n, 0.0)], n, 7)
