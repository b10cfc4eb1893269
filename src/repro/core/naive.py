"""Naive per-window top-k — the ground-truth reference implementation.

Re-sorts every window from scratch with a full ``lexsort`` of it. Used
by the pure-python tests and ``benchmarks/bench_core.py`` as the oracle
that every streaming algorithm must match exactly: ``all_windows_topk``
returns the same ``(windows, k)`` block as ``run_stream(...).results``.
It keeps no candidates, so it has no ``Metrics``.
"""
from __future__ import annotations

import numpy as np

from .query import TopKQuery


def window_topk(scores: np.ndarray, start: int, q: TopKQuery) -> np.ndarray:
    """Top-k arrival indices of the window ``[start, start+n)``.

    Returned sorted best-first under the shared tie-break
    (score desc, t desc).
    """
    w = scores[start : start + q.n]
    if len(w) < q.n:
        raise ValueError("window extends past end of stream")
    if not np.isfinite(w).all():
        # lexsort would rank NaN last; Spark and DuckDB rank it first
        raise ValueError("scores must be finite (no NaN or ±inf)")
    # Full composite-key sort so ties at the k-boundary resolve by the
    # shared tie-break (newer wins), not by argpartition's arbitrary pick.
    t = np.arange(start, start + q.n)
    order = np.lexsort((-t, -w))  # primary: score desc; secondary: t desc
    return t[order[: q.k]].astype(np.int64)


def all_windows_topk(scores: np.ndarray, q: TopKQuery) -> np.ndarray:
    """``(windows, k)`` top-k arrival indices of every full window.

    Rejects NaN or ±inf anywhere in the stream, as ``attach`` does.
    """
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite (no NaN or ±inf)")
    ids = [window_topk(scores, j * q.s, q) for j in range(q.num_windows(len(scores)))]
    return np.array(ids, dtype=np.int64).reshape(-1, q.k)
