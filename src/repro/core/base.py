"""Common interface for all continuous top-k algorithms.

Every algorithm (the SAP variants and the three baselines) consumes the
stream through the same protocol so the runner, the Spark operator and
the sweep harness can drive any of them interchangeably:

* ``attach(scores)`` — give the algorithm a read-only view of the full
  score array; NaN or ±inf scores raise ``ValueError``. Semantically
  this is "the window buffer": one-pass algorithms may only look at
  arrivals, but multi-pass SMA re-scans the live window, and SAP scans
  the front partition when forming ``M_0``; both only ever read indices
  inside the current window.
* ``warmup()`` — ingest the first ``n`` objects (t = 0..n-1).
* ``slide(j)`` — advance to window ``j`` (j ≥ 1): expire the objects
  ``t ∈ [(j-1)s, js)``, then ingest ``t ∈ [n+(j-1)s, n+js)``.
* ``topk()`` — the current window's top-k arrival indices, best-first
  under the shared tie-break (score desc, t desc).
* ``candidate_count()`` — current size of the candidate structures
  (``|C ∪ M_0|`` for SAP), sampled once per emitted window.

Subclasses implement one hook of each pair. Both ``warmup`` and
``slide`` hand their arrivals over as one range, ``_ingest_range(lo,
hi)``, and ``slide`` hands its expiries over as one range too,
``_expire_range(lo, hi)``. The defaults feed ``_ingest(t, score)`` and
``_expire(t, score)`` one object at a time, which is what the baselines
use. SAP overrides both range hooks instead and works per slide.
"""
from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .metrics import Metrics
from .query import TopKQuery


class StreamTopK(ABC):
    """Abstract continuous top-k algorithm over a count-based window."""

    name: str = "abstract"

    def __init__(self, q: TopKQuery) -> None:
        self.q = q
        self.metrics = Metrics()
        self.scores: np.ndarray | None = None
        self.window_start = 0  # first alive t
        self.window_end = 0  # one past last ingested t

    def attach(self, scores: np.ndarray) -> None:
        """Attach the stream's score array (read-only window buffer)."""
        if len(scores) < self.q.n:
            raise ValueError("stream shorter than one window")
        scores = np.asarray(scores, dtype=np.float64)
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite (no NaN or ±inf)")
        self.scores = scores

    def warmup(self) -> None:
        """Ingest objects t = 0..n-1 (window 0 becomes available)."""
        assert self.scores is not None, "call attach() first"
        self._ingest_range(0, self.q.n)
        self.window_end = self.q.n

    def slide(self, j: int) -> None:
        """Advance from window ``j-1`` to window ``j``."""
        assert self.scores is not None and j >= 1
        q = self.q
        self._expire_range((j - 1) * q.s, j * q.s)
        self.window_start = j * q.s
        self._ingest_range(q.n + (j - 1) * q.s, q.n + j * q.s)
        self.window_end = q.n + j * q.s

    # -- hooks -----------------------------------------------------------
    def _ingest_range(self, lo: int, hi: int) -> None:
        """Process the arrivals ``t ∈ [lo, hi)`` in arrival order."""
        scores = self.scores
        assert scores is not None
        for t in range(lo, hi):
            self._ingest(t, float(scores[t]))

    def _ingest(self, t: int, score: float) -> None:
        """Process one arriving object (the default ``_ingest_range``'s step)."""
        raise NotImplementedError

    def _expire_range(self, lo: int, hi: int) -> None:
        """Process the expiries ``t ∈ [lo, hi)``, oldest first."""
        scores = self.scores
        assert scores is not None
        for t in range(lo, hi):
            self._expire(t, float(scores[t]))

    def _expire(self, t: int, score: float) -> None:
        """Process one expiring object (the default ``_expire_range``'s step)."""
        raise NotImplementedError

    @abstractmethod
    def topk(self) -> list[int]:
        """Current window's top-k arrival indices, best-first."""

    @abstractmethod
    def candidate_count(self) -> int:
        """Current candidate-structure size (one sample per window)."""
