"""Common interface for all continuous top-k algorithms.

Every algorithm (the SAP variants and the three baselines) consumes the
stream through the same protocol so the runner, the incremental driver,
the Spark operators and the sweep harness can drive any of them
interchangeably:

* ``extend(chunk)`` — append arrivals to ``scores``, the algorithm's one
  copy of the stream, indexed by arrival index ``t``. It is the only
  place arrivals are checked: NaN or ±inf raise ``ValueError`` and
  nothing is appended. One-pass algorithms only read arrivals, but
  multi-pass SMA re-scans the live window, and SAP scans the front
  partition when forming ``M_0``; both only ever read indices inside
  the current window.
* ``attach(scores)`` — ``extend`` with a whole stream at once; a stream
  shorter than one window raises ``ValueError``. The array is kept as
  given, not copied.
* ``windows(j0, j1)`` — the one window loop: yields the top-k of
  windows ``j0 … j1-1`` in turn, stepping with ``warmup()`` for window 0
  and ``slide(j)`` after.
* ``warmup()`` — ingest the first ``n`` objects (t = 0..n-1).
* ``slide(j)`` — advance to window ``j``, the one after the current
  window (else ``ValueError``, also before ``warmup()``): expire the
  objects ``t ∈ [(j-1)s, js)``, then ingest ``t ∈ [n+(j-1)s, n+js)``.
* ``topk()`` — the current window's top-k arrival indices, best-first
  under the shared tie-break (score desc, t desc).
* ``candidate_count()`` — current size of the candidate structures
  (``|C ∪ M_0|`` for SAP), sampled once per emitted window.

Subclasses implement two hooks. Both ``warmup`` and ``slide`` hand
their arrivals over as one range, ``_ingest_range(lo, hi)``, and
``slide`` hands its expiries over as one range too, ``_expire_range(lo,
hi)``. ``window_start`` and ``window_end`` already describe the new
window when ``_ingest_range`` runs. SAP works a slide at a time; the
baselines share ``KSkyband``'s per-object loops and differ only in the
arrivals they admit.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator

import numpy as np

from .metrics import Metrics
from .query import TopKQuery


class StreamTopK(ABC):
    """Abstract continuous top-k algorithm over a count-based window."""

    name: str = "abstract"

    def __init__(self, q: TopKQuery) -> None:
        self.q = q
        self.metrics = Metrics()
        self.scores = np.empty(0, dtype=np.float64)  # grown by extend()
        self.window_start = 0  # first alive t
        self.window_end = 0  # one past last ingested t

    def extend(self, chunk: np.ndarray) -> None:
        """Append arrivals, in arrival order, to the stream's scores.

        Raises ``ValueError`` when the chunk holds a NaN or ±inf score;
        nothing of it is appended. A chunk that starts the stream is
        kept as given, not copied.
        """
        chunk = np.asarray(chunk, dtype=np.float64)
        if not np.isfinite(chunk).all():
            raise ValueError("scores must be finite (no NaN or ±inf)")
        if len(self.scores):
            self.scores = np.concatenate([self.scores, chunk])
        else:
            self.scores = chunk

    def attach(self, scores: np.ndarray) -> None:
        """Take the whole stream at once (at least one window long)."""
        if len(scores) < self.q.n:
            raise ValueError("stream shorter than one window")
        self.extend(scores)

    def windows(self, j0: int, j1: int) -> Iterator[list[int]]:
        """Step to each window ``j0 … j1-1`` in turn and yield its top-k."""
        if j1 > self.q.num_windows(len(self.scores)):
            raise ValueError(f"window {j1 - 1} is past the extended arrivals")
        for j in range(j0, j1):
            if j:
                self.slide(j)
            else:
                self.warmup()
            yield self.topk()

    def warmup(self) -> None:
        """Ingest objects t = 0..n-1 (window 0 becomes available)."""
        self.window_end = self.q.n
        self._ingest_range(0, self.q.n)

    def slide(self, j: int) -> None:
        """Advance from window ``j-1`` to window ``j``.

        Raises ``ValueError`` unless window ``j-1`` is the current one
        (``warmup()`` makes window 0 current).
        """
        q = self.q
        if j < 1 or self.window_end != q.n + (j - 1) * q.s:
            raise ValueError(
                f"slide({j}) does not step to the next window: call warmup(), "
                "then slide(1), slide(2), …"
            )
        self._expire_range((j - 1) * q.s, j * q.s)
        self.window_start = j * q.s
        self.window_end = q.n + j * q.s
        self._ingest_range(q.n + (j - 1) * q.s, self.window_end)

    # -- hooks -----------------------------------------------------------
    @abstractmethod
    def _ingest_range(self, lo: int, hi: int) -> None:
        """Process the arrivals ``t ∈ [lo, hi)`` in arrival order."""

    @abstractmethod
    def _expire_range(self, lo: int, hi: int) -> None:
        """Process the expiries ``t ∈ [lo, hi)``, oldest first."""

    @abstractmethod
    def topk(self) -> list[int]:
        """Current window's top-k arrival indices, best-first."""

    @abstractmethod
    def candidate_count(self) -> int:
        """Current candidate-structure size (one sample per window)."""
