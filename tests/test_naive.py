"""Unit tests for the naive reference (core/naive.py)."""
import numpy as np
import pytest

from repro.core.naive import all_windows_topk, window_topk
from repro.core.query import TopKQuery


def test_simple_window():
    scores = np.array([1.0, 5.0, 3.0, 2.0])
    q = TopKQuery(n=4, k=2, s=2)
    ids = window_topk(scores, 0, q)
    assert list(ids) == [1, 2]


def test_tie_break_newer_wins():
    scores = np.array([2.0, 2.0, 1.0, 2.0])
    q = TopKQuery(n=4, k=2, s=1)
    ids = window_topk(scores, 0, q)
    assert list(ids) == [3, 1]


def test_window_offset():
    scores = np.array([9.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    q = TopKQuery(n=4, k=1, s=2)
    assert list(window_topk(scores, 2, q)) == [5]


def test_all_windows_count():
    scores = np.arange(20, dtype=float)
    q = TopKQuery(n=10, k=3, s=5)
    res = all_windows_topk(scores, q)
    assert res.shape == (q.num_windows(20), q.k) == (3, 3)
    # ascending stream: top-k of window [s, s+10) are the last 3
    assert list(res[0]) == [9, 8, 7]
    assert list(res[2]) == [19, 18, 17]


def test_window_past_end_raises():
    scores = np.arange(10, dtype=float)
    q = TopKQuery(n=8, k=1, s=4)
    with pytest.raises(ValueError):
        window_topk(scores, 4, q)


def test_k_equals_n():
    scores = np.array([3.0, 1.0, 2.0])
    q = TopKQuery(n=3, k=3, s=1)
    assert list(window_topk(scores, 0, q)) == [0, 2, 1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_scores_rejected(bad):
    # lexsort would rank NaN last while Spark and DuckDB rank it first
    q = TopKQuery(n=10, k=3, s=5)
    scores = np.arange(22, dtype=float)
    scores[7] = bad
    with pytest.raises(ValueError, match="finite"):
        window_topk(scores, 5, q)
    with pytest.raises(ValueError, match="finite"):
        all_windows_topk(scores, q)
    # past the last full window: rejected for the whole stream, as attach does
    scores = np.arange(22, dtype=float)
    scores[21] = bad
    with pytest.raises(ValueError, match="finite"):
        all_windows_topk(scores, q)
