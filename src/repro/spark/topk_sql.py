"""Catalyst reference: continuous top-k as a pure DataFrame pipeline.

This is the Spark-native (distributed, batch) formulation of the query
every streaming algorithm answers incrementally: explode each object
into the sliding windows that contain it (``sequence`` + ``explode``,
all Catalyst expressions) and rank within each window. It serves as

* the distributed batch reference that the DuckDB oracle checks
  (``tests/test_spark_topk.py``), and
* the "re-evaluate from scratch" cost yardstick that motivates
  incremental algorithms in the first place.

Window convention matches the sequential runner: window j covers
arrival indices [j·s, j·s + n), and only full windows are emitted
(j ≤ (L − n)/s, with L the per-stream length).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.core.query import TopKQuery


def continuous_topk_sql(stream_df: DataFrame, q: TopKQuery) -> DataFrame:
    """All windows' top-k via Catalyst (explode-membership + rank).

    Input: ``(stream_id, t, score)``. Output:
    ``(stream_id, window_id, rank, t, score)`` with rank 1 = best.
    A NaN, ±inf or null score (Arrow carries a pandas NaN as null) fails
    the query when it runs, with the message ``StreamTopK.attach``
    raises; the check stays a lazy Catalyst expression.
    """
    n, k, s = q.n, q.k, q.s
    score = F.col("score")
    non_finite = score.isNull() | F.isnan(score) | (F.abs(score) == float("inf"))
    reject = F.raise_error(F.lit("scores must be finite (no NaN or ±inf)"))
    stream_df = stream_df.withColumn(
        "score", F.when(non_finite, reject).otherwise(score)
    )
    bounds = stream_df.groupBy("stream_id").agg(
        F.floor((F.max("t") + 1 - F.lit(n)) / F.lit(s)).alias("jmax")
    )
    member = (
        stream_df.join(bounds, "stream_id")
        .where(F.col("jmax") >= 0)
        .withColumn(
            "j_lo",
            F.greatest(
                F.lit(0), F.floor((F.col("t") - F.lit(n)) / F.lit(s)) + 1
            ),
        )
        .withColumn(
            "j_hi", F.least(F.floor(F.col("t") / F.lit(s)), F.col("jmax"))
        )
        .where(F.col("j_lo") <= F.col("j_hi"))
        .withColumn("window_id", F.explode(F.sequence("j_lo", "j_hi")))
    )
    w = Window.partitionBy("stream_id", "window_id").orderBy(
        F.col("score").desc(), F.col("t").desc()
    )
    return (
        member.withColumn("rank", F.row_number().over(w))
        .where(F.col("rank") <= k)
        .select("stream_id", "window_id", "rank", "t", "score")
    )


def windowed_topk_oracle_sql(q: TopKQuery, table: str = "stream") -> str:
    """DuckDB SQL computing the same result from the raw stream table.

    Used with ``repro.oracle.assert_equivalent`` — identical aliases and
    tie-break as :func:`continuous_topk_sql` and the sequential runner.
    A NaN, ±inf or NULL score fails the query with the same message.
    """
    n, k, s = q.n, q.k, q.s
    return f"""
        WITH checked AS (
            SELECT stream_id, t,
                   CASE WHEN score IS NULL OR NOT isfinite(score)
                        THEN error('scores must be finite (no NaN or ±inf)')
                        ELSE score END AS score
            FROM {table}
        ),
        bounds AS (
            SELECT stream_id, CAST(FLOOR((MAX(t) + 1 - {n}) / {s}) AS BIGINT) AS jmax
            FROM checked GROUP BY stream_id
        ),
        wins AS (
            SELECT b.stream_id, gs.j AS window_id
            FROM bounds b, LATERAL (
                SELECT UNNEST(generate_series(0, b.jmax)) AS j
            ) gs
            WHERE b.jmax >= 0
        ),
        member AS (
            SELECT w.stream_id, w.window_id, st.t, st.score
            FROM wins w JOIN checked st
              ON st.stream_id = w.stream_id
             AND st.t >= w.window_id * {s}
             AND st.t <  w.window_id * {s} + {n}
        ),
        ranked AS (
            SELECT stream_id, window_id, t, score,
                   ROW_NUMBER() OVER (
                       PARTITION BY stream_id, window_id
                       ORDER BY score DESC, t DESC
                   ) AS rank
            FROM member
        )
        SELECT stream_id, window_id, rank, t, score
        FROM ranked WHERE rank <= {k}
    """
