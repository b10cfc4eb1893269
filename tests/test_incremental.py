"""Unit tests for the incremental driver (streams/incremental.py)."""
import numpy as np
import pytest

from repro.core.query import TopKQuery
from repro.streams.datasets import gen_stream
from repro.streams.incremental import IncrementalDriver
from repro.streams.runner import run_stream


def feed_in_chunks(algo, q, scores, chunk):
    drv = IncrementalDriver(algo, q)
    rows = []
    for off in range(0, len(scores), chunk):
        rows.extend(drv.feed(scores[off : off + chunk]))
    return rows


def reference_rows(q, scores):
    ref = run_stream("naive", scores, q)
    return [
        (j, r + 1, int(t), float(scores[t]))
        for j, ids in enumerate(ref.results)
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
    assert drv.feed(np.empty(0)) == []


def test_no_emission_before_first_window():
    q = TopKQuery(n=40, k=4, s=4)
    drv = IncrementalDriver("sap-equal", q)
    assert drv.feed(gen_stream("TIMEU", 39, seed=0)) == []
    assert drv.warmed is False


def test_pickle_roundtrip_mid_stream():
    q = TopKQuery(n=40, k=4, s=4)
    scores = gen_stream("TRIP", 200, seed=2)
    drv = IncrementalDriver("sap-enhanced", q)
    rows = list(drv.feed(scores[:100]))
    blob = drv.dumps()
    drv2 = IncrementalDriver.loads(blob)
    rows += drv2.feed(scores[100:])
    assert rows == reference_rows(q, scores)


def test_pickle_before_warmup():
    q = TopKQuery(n=40, k=4, s=4)
    scores = gen_stream("TRIP", 200, seed=3)
    drv = IncrementalDriver("sap-enhanced", q)
    assert drv.feed(scores[:10]) == []
    drv2 = IncrementalDriver.loads(drv.dumps())
    rows = drv2.feed(scores[10:])
    assert rows == reference_rows(q, scores)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_non_finite_chunk_rejected(bad, warm):
    q = TopKQuery(n=40, k=4, s=4)
    scores = gen_stream("STOCK", 160, seed=3)
    drv = IncrementalDriver("sap-enhanced", q)
    split = 80 if warm else 20
    rows = drv.feed(scores[:split])
    chunk = scores[split : split + 8].copy()
    chunk[5] = bad
    with pytest.raises(ValueError, match="finite"):
        drv.feed(chunk)
    # the rejected chunk left no trace: the clean stream still matches
    rows += drv.feed(scores[split:])
    assert rows == reference_rows(q, scores)


@pytest.mark.parametrize("algo", ["sap-equal", "sap-dynamic", "sap-enhanced"])
def test_pickle_roundtrip_with_warm_report_cache(algo):
    q = TopKQuery(n=60, k=6, s=3)
    scores = gen_stream("TIMER", 600, seed=4)
    drv = IncrementalDriver(algo, q)
    rows = []
    for off in range(0, len(scores), 30):
        rows += drv.feed(scores[off : off + 30])
        if off == 270:
            assert drv.algo._report is not None  # the cache is warm
            drv = IncrementalDriver.loads(drv.dumps())
    assert rows == reference_rows(q, scores)
