"""Unit tests for the incremental driver (streams/incremental.py)."""
import pickle

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from pyspark.sql.types import DoubleType, LongType

from repro.core.naive import all_windows_topk
from repro.core.query import TopKQuery
from repro.spark.operator import RESULT_SCHEMA
from repro.streams.datasets import gen_stream
from repro.streams.incremental import ROW_DTYPE, IncrementalDriver
from repro.streams.runner import ALGORITHMS, run_stream


def feed_in_chunks(algo, q, scores, chunk):
    drv = IncrementalDriver(algo, q)
    rows = []
    for off in range(0, len(scores), chunk):
        rows.extend(drv.feed(scores[off : off + chunk]).tolist())
    return rows


def reference_rows(q, scores):
    return [
        (j, r + 1, int(t), float(scores[t]))
        for j, ids in enumerate(all_windows_topk(scores, q))
        for r, t in enumerate(ids)
    ]


@pytest.mark.parametrize("chunk", [1, 3, 7, 40, 200])
@pytest.mark.parametrize("algo", ["sap-enhanced", "mintopk"])
def test_chunking_invariant(chunk, algo):
    q = TopKQuery(n=40, k=4, s=4)
    scores = gen_stream("STOCK", 160, seed=1)
    assert feed_in_chunks(algo, q, scores, chunk) == reference_rows(q, scores)


def test_empty_feed_is_noop():
    q = TopKQuery(n=40, k=4, s=4)
    drv = IncrementalDriver("sap-equal", q)
    assert drv.feed(np.empty(0)).tolist() == []


def test_no_emission_before_first_window():
    q = TopKQuery(n=40, k=4, s=4)
    drv = IncrementalDriver("sap-equal", q)
    scores = gen_stream("TIMEU", 40, seed=0)
    assert drv.feed(scores[:39]).tolist() == []
    assert drv.feed(scores[39:]).tolist() == reference_rows(q, scores)  # window 0


def test_rows_are_the_result_schema_less_stream_id():
    assert RESULT_SCHEMA.fieldNames() == ["stream_id", *ROW_DTYPE.names]
    spark_type = {"i": LongType(), "f": DoubleType()}
    assert [f.dataType for f in RESULT_SCHEMA.fields] == [
        LongType(), *(spark_type[ROW_DTYPE[c].kind] for c in ROW_DTYPE.names)
    ]


def test_feed_completing_no_window_frames_typed_columns():
    drv = IncrementalDriver("sap-equal", TopKQuery(n=40, k=4, s=4))
    rows = drv.feed(gen_stream("TIMEU", 39, seed=0))
    assert rows.dtype == ROW_DTYPE and len(rows) == 0
    assert pd.DataFrame(rows).dtypes.to_dict() == {
        "window_id": np.int64, "rank": np.int64, "t": np.int64, "score": np.float64,
    }


def test_rows_unpack_into_four_values():
    # the traced perfbench pass reads them as ``for w, r, t, _ in out``
    q = TopKQuery(n=40, k=4, s=4)
    scores = gen_stream("STOCK", 120, seed=1)
    rows = IncrementalDriver("sap-enhanced", q).feed(scores)
    assert [
        (int(w), int(r), int(t), float(sc)) for w, r, t, sc in rows
    ] == reference_rows(q, scores)


def test_pickle_roundtrip_mid_stream():
    q = TopKQuery(n=40, k=4, s=4)
    scores = gen_stream("TRIP", 200, seed=2)
    drv = IncrementalDriver("sap-enhanced", q)
    rows = drv.feed(scores[:100]).tolist()
    blob = drv.dumps()
    drv2 = IncrementalDriver.loads(blob)
    rows += drv2.feed(scores[100:]).tolist()
    assert rows == reference_rows(q, scores)


def test_pickle_before_warmup():
    q = TopKQuery(n=40, k=4, s=4)
    scores = gen_stream("TRIP", 200, seed=3)
    drv = IncrementalDriver("sap-enhanced", q)
    assert drv.feed(scores[:10]).tolist() == []
    drv2 = IncrementalDriver.loads(drv.dumps())
    rows = drv2.feed(scores[10:]).tolist()
    assert rows == reference_rows(q, scores)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_non_finite_chunk_rejected(bad, warm):
    q = TopKQuery(n=40, k=4, s=4)
    scores = gen_stream("STOCK", 160, seed=3)
    drv = IncrementalDriver("sap-enhanced", q)
    split = 80 if warm else 20
    rows = drv.feed(scores[:split]).tolist()
    chunk = scores[split : split + 8].copy()
    chunk[5] = bad
    with pytest.raises(ValueError, match="finite"):
        drv.feed(chunk)
    # the rejected chunk left no trace: the clean stream still matches
    rows += drv.feed(scores[split:]).tolist()
    assert rows == reference_rows(q, scores)


@pytest.mark.parametrize("algo", ["sap-equal", "sap-dynamic", "sap-enhanced"])
def test_pickle_roundtrip_with_warm_report_cache(algo):
    q = TopKQuery(n=60, k=6, s=3)
    scores = gen_stream("TIMER", 600, seed=4)
    drv = IncrementalDriver(algo, q)
    rows = []
    for off in range(0, len(scores), 30):
        rows += drv.feed(scores[off : off + 30]).tolist()
        if off == 270:
            assert drv.algo._report is not None  # the cache is warm
            drv = IncrementalDriver.loads(drv.dumps())
    assert rows == reference_rows(q, scores)


@st.composite
def fed_stream(draw):
    """A query, a tie-heavy stream, its chunks (some empty) and, per
    chunk, whether the driver takes a dumps/loads round trip after it."""
    s = draw(st.integers(min_value=1, max_value=6))
    n = s * draw(st.integers(min_value=1, max_value=10))
    k = draw(st.integers(min_value=1, max_value=n))
    length = n + draw(st.integers(min_value=0, max_value=4 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.integers(0, draw(st.sampled_from([2, 5, 1000])), length)
    cuts = sorted(draw(st.lists(st.integers(0, length), max_size=8)))
    bounds = [0, *cuts, length]
    chunks = [scores[a:b].astype(np.float64) for a, b in zip(bounds, bounds[1:])]
    trips = draw(st.lists(st.booleans(), min_size=len(chunks), max_size=len(chunks)))
    return TopKQuery(n=n, k=k, s=s), scores.astype(np.float64), chunks, trips


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=fed_stream())
def test_any_chunking_and_roundtrips_match_run_stream(algo, case):
    q, scores, chunks, trips = case
    drv = IncrementalDriver(algo, q)
    rows = []
    for chunk, trip in zip(chunks, trips):
        rows += drv.feed(chunk).tolist()
        if trip:
            drv = IncrementalDriver.loads(drv.dumps())
    assert rows == reference_rows(q, scores)
    whole = run_stream(algo, scores, q).metrics.as_row()
    fed = drv.algo.metrics.as_row()
    del whole["wall_time_s"], fed["wall_time_s"]
    assert fed == whole


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_chunked_feed_reports_wall_time(algo):
    # windows() times every window's step, whoever drives it
    q = TopKQuery(n=40, k=4, s=4)
    scores = gen_stream("STOCK", 200, seed=0)
    drv = IncrementalDriver(algo, q)
    for off in range(0, len(scores), 7):
        drv.feed(scores[off : off + 7])
    fed, whole = drv.algo.metrics, run_stream(algo, scores, q).metrics
    assert fed.wall_time_s > 0 and whole.wall_time_s > 0
    assert fed.windows_sampled == whole.windows_sampled == q.num_windows(200)


def test_pickled_driver_does_not_grow_with_windows():
    """Apart from the score buffer, the pickled driver stays the same size
    however many windows it has emitted: ``Metrics`` keeps a running sum,
    count and maximum of the candidate counts, not one sample per window."""
    q = TopKQuery(n=240, k=10, s=4)
    scores = gen_stream("STOCK", 24_000, seed=1)
    drv = IncrementalDriver("sap-enhanced", q)
    sizes = []
    for off in range(0, len(scores), 480):
        drv.feed(scores[off : off + 480])
        state = len(drv.dumps()) - drv.algo.scores.nbytes
        m = drv.algo.metrics
        sizes.append((m.windows_sampled, state, len(pickle.dumps(m))))
    (w0, state0, metrics0), (w1, state1, metrics1) = sizes[0], sizes[-1]
    assert w1 - w0 > 5000
    # one sample per window grew the state by ~2 bytes a window
    assert state1 - state0 < (w1 - w0) / 10
    # the counters only widen as their values grow
    assert metrics1 - metrics0 <= 16
