"""Incremental driver: feed a continuous top-k algorithm batch by batch.

The sequential :mod:`repro.streams.runner` drives an algorithm over a
complete score array; Spark's operators instead hand the stream over in
chunks. ``IncrementalDriver`` bridges the two: it extends the
algorithm's stream with each chunk (``StreamTopK.extend``, which also
rejects non-finite scores) and emits every window that the chunk
completes, through the algorithm's one window loop
(``StreamTopK.windows``).

Each feed returns one ``ROW_DTYPE`` record array, which both Spark
operators frame as it is (``pd.DataFrame(rows)``).

The algorithm holds the only copy of the stream, so the driver pickles
as it is; that is what lets the Structured Streaming operator park it in
GroupState between micro-batches.
"""
from __future__ import annotations

import pickle

import numpy as np

from repro.core.query import TopKQuery
from repro.streams.runner import make_algorithm


#: one emitted row: rank ``rank`` (1 = best) of window ``window_id`` is
#: the arrival ``t``, which has score ``score``
ROW_DTYPE = np.dtype(
    [("window_id", "i8"), ("rank", "i8"), ("t", "i8"), ("score", "f8")]
)


class IncrementalDriver:
    """Stateful wrapper turning chunk feeds into per-window emissions."""

    def __init__(self, algo: str, q: TopKQuery, **opts) -> None:
        self.q = q
        self.algo = make_algorithm(algo, q, **opts)
        self.next_window = 0

    def feed(self, scores: np.ndarray) -> np.ndarray:
        """Append arrivals (in order); return their windows' ``ROW_DTYPE`` rows.

        ``k`` rows per window the chunk completes, best rank first.
        Raises ``ValueError`` when the chunk holds a NaN or ±inf score;
        nothing of it is taken, so feeding can go on with clean data.
        """
        algo, k = self.algo, self.q.k
        algo.extend(scores)
        j0, j1 = self.next_window, self.q.num_windows(len(algo.scores))
        ids = np.empty((j1 - j0, k), dtype=np.int64)
        for i, top in enumerate(algo.windows(j0, j1)):
            algo.metrics.sample(algo.candidate_count())
            ids[i] = top
        self.next_window = j1
        out = np.empty(ids.size, dtype=ROW_DTYPE)
        out["window_id"] = np.repeat(np.arange(j0, j1), k)
        out["rank"] = np.tile(np.arange(1, k + 1), j1 - j0)
        out["t"] = ids.ravel()
        out["score"] = algo.scores[out["t"]]
        return out

    # -- pickling for GroupState -----------------------------------------
    def dumps(self) -> bytes:
        """Serialise the driver, algorithm state and stream included."""
        return pickle.dumps(self)

    @staticmethod
    def loads(blob: bytes) -> "IncrementalDriver":
        """Deserialise a driver written by :meth:`dumps`."""
        return pickle.loads(blob)
