"""Incremental driver: feed a continuous top-k algorithm batch by batch.

The sequential :mod:`repro.streams.runner` drives an algorithm over a
complete score array; Spark's micro-batch operators instead receive the
stream in chunks. ``IncrementalDriver`` bridges the two: it buffers
arrivals, re-attaches the growing buffer to the algorithm (algorithms
address objects by absolute arrival index, so a grown array is a valid
re-attachment), and emits every window result that becomes complete.

It is picklable (the score buffer is carried explicitly, the algorithm's
``scores`` reference is dropped before pickling), which is what lets the
Structured Streaming operator park it in GroupState between
micro-batches.
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
        self.buffer = np.empty(0, dtype=np.float64)
        self.next_window = 0
        self.warmed = False

    def feed(self, scores: np.ndarray) -> list[tuple[int, int, int, float]]:
        """Append arrivals (in order); return (window, rank, t, score) rows.

        Raises ``ValueError`` when the chunk holds a NaN or ±inf score;
        nothing of it is buffered, so feeding can go on with clean data.
        """
        if len(scores):
            chunk = np.asarray(scores, dtype=np.float64)
            if not np.isfinite(chunk).all():
                raise ValueError("scores must be finite (no NaN or ±inf)")
            self.buffer = np.concatenate([self.buffer, chunk])
        out: list[tuple[int, int, int, float]] = []
        q = self.q
        if not self.warmed:
            if len(self.buffer) < q.n:
                return out
            self.algo.attach(self.buffer)
            self.algo.warmup()
            self.warmed = True
            out.extend(self._emit(0))
            self.next_window = 1
        while len(self.buffer) >= q.n + self.next_window * q.s:
            self.algo.scores = self.buffer  # re-attach grown buffer
            self.algo.slide(self.next_window)
            out.extend(self._emit(self.next_window))
            self.next_window += 1
        return out

    def _emit(self, j: int) -> list[tuple[int, int, int, float]]:
        ids = self.algo.topk()
        self.algo.metrics.candidate_samples.append(
            self.algo.candidate_count()
        )
        return [
            (j, r + 1, int(t), float(self.buffer[t]))
            for r, t in enumerate(ids)
        ]

    # -- pickling for GroupState -----------------------------------------
    def dumps(self) -> bytes:
        """Serialise (drops the algorithm's buffer reference first)."""
        self.algo.scores = None
        return pickle.dumps(self)

    @staticmethod
    def loads(blob: bytes) -> "IncrementalDriver":
        """Deserialise and re-attach the buffer."""
        drv: IncrementalDriver = pickle.loads(blob)
        if drv.warmed:
            drv.algo.scores = drv.buffer
        return drv
