"""SAP as a Spark DataFrame→DataFrame operator (``applyInPandas``).

The paper's contribution is a stateful per-stream operator, so the Spark
embedding keys the data by ``stream_id`` and runs the sequential SAP
core inside each group (DESIGN.md §6): one executor task owns one
stream's state, exactly Spark's keyed-state model. Each group's sorted
scores are fed once to the shared
:class:`~repro.streams.incremental.IncrementalDriver`, the code path the
Structured Streaming operator feeds chunk by chunk.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import (
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.core.query import TopKQuery
from repro.streams.incremental import IncrementalDriver
from repro.streams.runner import make_algorithm

#: ``stream_id``, then the fields of the driver's rows (``ROW_DTYPE``)
RESULT_SCHEMA = StructType(
    [
        StructField("stream_id", LongType()),
        StructField("window_id", LongType()),
        StructField("rank", LongType()),
        StructField("t", LongType()),
        StructField("score", DoubleType()),
    ]
)


def continuous_topk_operator(
    stream_df: DataFrame,
    q: TopKQuery,
    algo: str = "sap-enhanced",
    **opts,
) -> DataFrame:
    """All windows' top-k per stream, via the incremental SAP operator.

    Input ``(stream_id, t, score)``, where each stream's ``t`` is
    exactly ``0 … L-1`` in some order; output matches
    :func:`repro.spark.topk_sql.continuous_topk_sql` exactly, so the two
    are directly oracle-comparable. A stream whose ``t`` has a gap, a
    repeat or does not start at 0 raises ``ValueError`` when the query
    runs; an option ``algo`` does not take raises ``TypeError`` here.
    """
    make_algorithm(algo, q, **opts)

    def run_group(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("t")
        sid = int(pdf["stream_id"].iloc[0])
        if not np.array_equal(pdf["t"].to_numpy(), np.arange(len(pdf))):
            raise ValueError(
                f"stream {sid}: t must be exactly 0..{len(pdf) - 1} "
                "(no gap, no repeat, starting at 0)"
            )
        drv = IncrementalDriver(algo, q, **opts)
        out = pd.DataFrame(drv.feed(pdf["score"].to_numpy()))
        out.insert(0, "stream_id", sid)
        return out

    return stream_df.groupBy("stream_id").applyInPandas(
        run_group, schema=RESULT_SCHEMA
    )
