"""SAP as a Structured Streaming stateful operator.

This is the repro target named by the calibration hint: a Structured
Streaming windowed operator maintaining top-k candidates per
micro-batch. ``applyInPandasWithState`` keys the stream by
``stream_id``; the per-key GroupState holds a pickled
:class:`~repro.streams.incremental.IncrementalDriver` (SAP state: the
partitions, candidate set C, S-AVL stacks) plus a reorder buffer —
micro-batch boundaries are arbitrary and a file source may deliver rows
out of order, so each batch's rows are staged (:func:`stage_rows`) and
only the contiguous arrival-index prefix is fed to the algorithm. A
late row (its ``t`` already fed) and a repeated ``t`` (the first arrival
wins) are dropped and counted in the state. More than ``n`` rows waiting
behind a missing ``t`` fail the query, as a gap fails the batch
operator, so the buffer stays bounded by the window size.

Every completed window's top-k is emitted in the batch that completes
it: the driver's ``ROW_DTYPE`` rows, framed as they are, with the
``stream_id`` put in front — the same ``RESULT_SCHEMA`` rows as the
batch operator and the Catalyst reference, so all three are
oracle-comparable.
"""
from __future__ import annotations

import pickle
from collections.abc import Iterable, Iterator

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout
from pyspark.sql.types import BinaryType, StructField, StructType

from repro.core.query import TopKQuery
from repro.spark.operator import RESULT_SCHEMA
from repro.streams.incremental import IncrementalDriver

STATE_SCHEMA = StructType([StructField("blob", BinaryType())])


#: staging state of a stream no row has reached yet
EMPTY_STAGE = {"pending": {}, "next_t": 0, "late": 0, "duplicate": 0}


def stage_rows(
    stage: dict, rows: Iterable[tuple[int, float]], limit: int, sid: int
) -> tuple[list[float], dict]:
    """Stage one batch's ``(t, score)`` rows; return the run to feed.

    ``stage`` holds the rows waiting for a gap to fill (``pending``), the
    next arrival index to feed (``next_t``) and the running counts of
    dropped rows: ``late`` (``t < next_t``, already fed) and
    ``duplicate`` (``t`` already pending; the first arrival wins).
    Returns the scores of the contiguous run from ``next_t`` and the new
    stage; ``stage`` itself is not modified. Raises ``ValueError`` when
    more than ``limit`` rows of stream ``sid`` wait behind a missing ``t``.
    """
    pending = dict(stage["pending"])
    next_t, late, duplicate = stage["next_t"], stage["late"], stage["duplicate"]
    for t, sc in rows:
        if t < next_t:
            late += 1
        elif t in pending:
            duplicate += 1
        else:
            pending[t] = sc
    chunk: list[float] = []
    while next_t in pending:
        chunk.append(pending.pop(next_t))
        next_t += 1
    if len(pending) > limit:
        raise ValueError(
            f"stream {sid}: {len(pending)} rows wait behind the missing "
            f"t = {next_t}, more than the window's {limit}"
        )
    return chunk, {
        "pending": pending,
        "next_t": next_t,
        "late": late,
        "duplicate": duplicate,
    }


def _make_func(q: TopKQuery, algo: str, opts: dict):
    """Build the applyInPandasWithState function for the given query."""

    def update(
        key: tuple,
        pdfs: Iterator[pd.DataFrame],
        state: GroupState,
    ) -> Iterator[pd.DataFrame]:
        sid = int(key[0])
        if state.exists:
            (blob,) = state.get
            stage = pickle.loads(bytes(blob))
            drv = stage.pop("drv")
        else:
            drv = IncrementalDriver(algo, q, **opts)
            stage = EMPTY_STAGE
        chunk, stage = stage_rows(
            stage,
            (
                (int(t), float(sc))
                for pdf in pdfs
                for t, sc in zip(pdf["t"], pdf["score"])
            ),
            q.n,
            sid,
        )
        rows = drv.feed(chunk)
        state.update((pickle.dumps({"drv": drv, **stage}),))
        if len(rows):
            out = pd.DataFrame(rows)
            out.insert(0, "stream_id", sid)
            yield out

    return update


def continuous_topk_streaming(
    stream_df: DataFrame,
    q: TopKQuery,
    algo: str = "sap-enhanced",
    **opts,
) -> DataFrame:
    """Attach the SAP stateful operator to a streaming DataFrame.

    ``stream_df`` must be a *streaming* DataFrame with columns
    ``(stream_id, t, score)``. Returns the streaming result DataFrame;
    the caller starts the query (e.g. memory sink, availableNow).
    """
    return stream_df.groupBy("stream_id").applyInPandasWithState(
        _make_func(q, algo, opts),
        outputStructType=RESULT_SCHEMA,
        stateStructType=STATE_SCHEMA,
        outputMode="append",
        timeoutConf=GroupStateTimeout.NoTimeout,
    )
