"""SAP micro-batch operator vs the DuckDB oracle (spark/operator.py)."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from pyspark.errors import PythonException
from pyspark.sql import functions as F

from repro.core.query import TopKQuery
from repro.oracle import assert_equivalent
from repro.spark.operator import continuous_topk_operator
from repro.spark.topk_sql import continuous_topk_sql, windowed_topk_oracle_sql
from repro.streams.datasets import stream_pdf
from repro.streams.runner import ALGORITHMS

#: the hostile scores each operator rejects; Arrow hands a null to
#: pandas as NaN
NON_FINITE = pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), None],
    ids=["nan", "inf", "-inf", "null"],
)


def tied_stream_pdf():
    """STOCK seed 8 scaled to its max and rounded to one decimal: 120
    arrivals with only 9 distinct scores, so most windows break ties."""
    pdf = stream_pdf("STOCK", 120, seed=8)
    pdf["score"] = (pdf["score"] / pdf["score"].max()).round(1)
    return pdf


@pytest.mark.parametrize(
    "algo", ["sap-enhanced", "sap-dynamic", "sap-equal", "mintopk"]
)
def test_operator_matches_duckdb(spark, algo):
    q = TopKQuery(n=60, k=5, s=6)
    pdf = stream_pdf("STOCK", 240, seed=4)
    out = continuous_topk_operator(spark.createDataFrame(pdf), q, algo=algo)
    assert_equivalent(out, windowed_topk_oracle_sql(q), stream=pdf)


def test_operator_multi_stream_parallel_groups(spark):
    q = TopKQuery(n=40, k=4, s=4)
    pdf = pd.concat(
        [
            stream_pdf(ds, 160, seed=i, stream_id=i)
            for i, ds in enumerate(["TIMEU", "TIMER", "STOCK", "TRIP"])
        ]
    )
    out = continuous_topk_operator(spark.createDataFrame(pdf), q)
    assert_equivalent(out, windowed_topk_oracle_sql(q), stream=pdf)


def test_operator_agrees_with_catalyst(spark):
    """The incremental operator and the Catalyst re-evaluation pipeline
    are two implementations of the same query — cross-check them."""
    q = TopKQuery(n=48, k=6, s=8)
    pdf = stream_pdf("PLANET", 192, seed=9)
    sdf = spark.createDataFrame(pdf)
    a = continuous_topk_operator(sdf, q).toPandas()
    b = continuous_topk_sql(sdf, q).toPandas()
    key = ["stream_id", "window_id", "rank"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True),
        check_dtype=False,
    )


def test_operator_short_stream(spark):
    q = TopKQuery(n=100, k=5, s=10)
    pdf = stream_pdf("TIMEU", 50, seed=1)
    out = continuous_topk_operator(spark.createDataFrame(pdf), q)
    assert out.count() == 0


@pytest.mark.parametrize(
    "t",
    [
        np.r_[0:30, 31:61],  # a gap at 30
        np.r_[0:30, 29:59],  # 29 twice
        np.arange(5, 65),  # starts at 5
    ],
    ids=["gap", "duplicate", "offset"],
)
def test_operator_rejects_t_other_than_0_to_len(spark, t):
    q = TopKQuery(n=20, k=3, s=4)
    pdf = stream_pdf("STOCK", 60, seed=4, stream_id=7)
    pdf["t"] = t
    out = continuous_topk_operator(spark.createDataFrame(pdf), q)
    with pytest.raises(Exception, match="stream 7: t must be exactly 0..59"):
        out.collect()


def test_operator_rejects_unknown_option(spark):
    pdf = stream_pdf("STOCK", 60, seed=4)
    with pytest.raises(TypeError):
        continuous_topk_operator(
            spark.createDataFrame(pdf), TopKQuery(n=20, k=3, s=4),
            algo="kskyband", delay=False,
        )


@NON_FINITE
def test_operator_rejects_non_finite_scores(spark, bad):
    q = TopKQuery(n=40, k=4, s=4)
    df = spark.createDataFrame(stream_pdf("TIMEU", 123, seed=1))
    # t = 10 lies in windows; t = 121 only in the tail after the last one
    for pos in (10, 121):
        score = F.when(F.col("t") == pos, F.lit(bad).cast("double"))
        out = continuous_topk_operator(
            df.withColumn("score", score.otherwise(F.col("score"))), q
        )
        with pytest.raises(PythonException, match="scores must be finite"):
            out.collect()


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_operator_matches_duckdb_on_tied_scores(spark, algo):
    q = TopKQuery(n=40, k=4, s=4)
    pdf = tied_stream_pdf()
    out = continuous_topk_operator(spark.createDataFrame(pdf), q, algo=algo)
    assert_equivalent(out, windowed_topk_oracle_sql(q), stream=pdf)


@st.composite
def tied_streams(draw):
    """A few streams on at most three distinct scores; maybe one non-finite."""
    s = draw(st.integers(min_value=1, max_value=4))
    n = s * draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=min(n, 4)))
    levels = draw(st.integers(min_value=1, max_value=3))
    frames = []
    for sid in range(draw(st.integers(min_value=1, max_value=3))):
        scores = draw(st.lists(
            st.integers(min_value=0, max_value=levels - 1),
            min_size=n, max_size=3 * n,
        ))
        frames.append(pd.DataFrame({
            "stream_id": np.full(len(scores), sid, dtype=np.int64),
            "t": np.arange(len(scores), dtype=np.int64),
            "score": np.asarray(scores, dtype=np.float64),
        }))
    pdf = pd.concat(frames, ignore_index=True)
    bad = draw(st.sampled_from([None, float("nan"), float("inf"), float("-inf")]))
    if bad is not None:
        pdf.loc[draw(st.integers(0, len(pdf) - 1)), "score"] = bad
    return TopKQuery(n=n, k=k, s=s), pdf, bad is not None


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=tied_streams(), algo=st.sampled_from(sorted(ALGORITHMS)))
def test_operator_matches_duckdb_on_drawn_tied_streams(spark, case, algo):
    q, pdf, hostile = case
    out = continuous_topk_operator(spark.createDataFrame(pdf), q, algo=algo)
    if hostile:
        with pytest.raises(PythonException, match="scores must be finite"):
            out.collect()
    else:
        assert_equivalent(out, windowed_topk_oracle_sql(q), stream=pdf)
