"""Correctness gate: every emitted window against the naive reference.

``reference_topk`` returns exactly what ``repro.core.naive.all_windows_topk``
returns (same lexsort tie-break: score desc, then t desc), computed in
vectorised chunks so that checking ~10^5 windows per run stays cheap. The
traced run times ``all_windows_topk`` itself and compares the two, so the
reference is held to the naive implementation on every workload.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pandas as pd
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.query import TopKQuery

_CHUNK = 512


def reference_topk(
    scores: np.ndarray, q: TopKQuery, pool: ThreadPoolExecutor
) -> np.ndarray:
    """(windows, k) arrival indices, best-first, for every full window."""
    length = len(scores)
    n_windows = q.num_windows(length)
    t = np.arange(length)
    # rank[t] orders objects by (score, t) ascending: the larger, the better
    order = np.lexsort((t, scores))
    rank = np.empty(length, dtype=np.int64)
    rank[order] = t
    windows = sliding_window_view(rank, q.n)[:: q.s][:n_windows]
    out = np.empty((n_windows, q.k), dtype=np.int64)

    def fill(a: int) -> None:
        top = np.partition(windows[a : a + _CHUNK], q.n - q.k, axis=1)
        best = np.sort(top[:, q.n - q.k :], axis=1)[:, ::-1]
        out[a : a + _CHUNK] = order[best]

    for f in [pool.submit(fill, a) for a in range(0, n_windows, _CHUNK)]:
        f.result()
    return out


def wrong_windows(results: list, ref: np.ndarray) -> int:
    """Windows whose emitted top-k differs from ``ref`` (missing ones count)."""
    missing = abs(len(ref) - len(results))
    try:
        got = np.asarray(results, dtype=np.int64)
    except ValueError:  # ragged: some window emitted the wrong count
        got = None
    if got is not None and got.shape == ref.shape:
        return int(np.any(got != ref, axis=1).sum())
    return missing + sum(
        1
        for g, e in zip(results, ref)
        if len(g) != len(e) or any(int(a) != int(b) for a, b in zip(g, e))
    )


def wrong_windows_frame(
    rows: pd.DataFrame, refs: list[np.ndarray], k: int
) -> int:
    """Wrong windows in a ``(stream_id, window_id, rank, t)`` result frame.

    ``refs[i]`` is the reference of stream ``i``. A window counts as wrong
    if any of its k rows is missing, duplicated or differs; rows for
    windows or streams that should not exist count one wrong window each.
    """
    wrong = 0
    by_stream = dict(tuple(rows.groupby("stream_id")))
    extra = set(by_stream) - set(range(len(refs)))
    wrong += sum(len(by_stream[s].groupby("window_id")) for s in extra)
    for sid, ref in enumerate(refs):
        sub = by_stream.get(sid)
        if sub is None:
            wrong += len(ref)
            continue
        w = sub["window_id"].to_numpy()
        r = sub["rank"].to_numpy()
        ok = (w >= 0) & (w < len(ref)) & (r >= 1) & (r <= k)
        wrong += len(np.unique(w[~ok]))
        got = np.full(ref.shape, -1, dtype=np.int64)
        got[w[ok], r[ok] - 1] = sub["t"].to_numpy()[ok]
        counts = np.bincount(w[ok], minlength=len(ref))
        wrong += int((np.any(got != ref, axis=1) | (counts != k)).sum())
    return wrong
