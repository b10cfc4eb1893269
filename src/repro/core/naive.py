"""Naive per-window top-k — the ground-truth reference implementation.

Re-sorts every window from scratch (O(n log k) per window via
``argpartition``). Used by pure-python tests as the oracle that every
streaming algorithm must match exactly, and by the runner's
``collect_results`` cross-checks. No candidate maintenance, so its
metrics are trivial.
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


def all_windows_topk(scores: np.ndarray, q: TopKQuery) -> list[np.ndarray]:
    """Top-k arrival indices for every full window of the stream.

    Rejects NaN or ±inf anywhere in the stream, as ``attach`` does.
    """
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite (no NaN or ±inf)")
    return [
        window_topk(scores, j * q.s, q)
        for j in range(q.num_windows(len(scores)))
    ]
