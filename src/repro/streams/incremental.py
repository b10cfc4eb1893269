"""Incremental driver: feed a continuous top-k algorithm batch by batch.

The sequential :mod:`repro.streams.runner` drives an algorithm over a
complete score array; Spark's operators instead hand the stream over in
chunks. ``IncrementalDriver`` bridges the two: it extends the
algorithm's stream with each chunk (``StreamTopK.extend``, which also
rejects non-finite scores) and emits every window that the chunk
completes, through the algorithm's one window loop
(``StreamTopK.windows``).

The algorithm holds the only copy of the stream, so the driver pickles
as it is; that is what lets the Structured Streaming operator park it in
GroupState between micro-batches.
"""
from __future__ import annotations

import pickle

import numpy as np

from repro.core.query import TopKQuery
from repro.streams.runner import make_algorithm


class IncrementalDriver:
    """Stateful wrapper turning chunk feeds into per-window emissions."""

    def __init__(self, algo: str, q: TopKQuery, **opts) -> None:
        self.q = q
        self.algo = make_algorithm(algo, q, **opts)
        self.next_window = 0

    def feed(self, scores: np.ndarray) -> list[tuple[int, int, int, float]]:
        """Append arrivals (in order); return (window, rank, t, score) rows.

        Raises ``ValueError`` when the chunk holds a NaN or ±inf score;
        nothing of it is taken, so feeding can go on with clean data.
        """
        algo = self.algo
        algo.extend(scores)
        j1 = self.q.num_windows(len(algo.scores))
        out: list[tuple[int, int, int, float]] = []
        for ids in algo.windows(self.next_window, j1):
            algo.metrics.candidate_samples.append(algo.candidate_count())
            out += [
                (self.next_window, r + 1, int(t), float(algo.scores[t]))
                for r, t in enumerate(ids)
            ]
            self.next_window += 1
        return out

    # -- pickling for GroupState -----------------------------------------
    def dumps(self) -> bytes:
        """Serialise the driver, algorithm state and stream included."""
        return pickle.dumps(self)

    @staticmethod
    def loads(blob: bytes) -> "IncrementalDriver":
        """Deserialise a driver written by :meth:`dumps`."""
        return pickle.loads(blob)
