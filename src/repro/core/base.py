"""Common interface for all continuous top-k algorithms.

Every algorithm (the SAP variants and the three baselines) consumes the
stream through the same protocol so the runner, the incremental driver,
the Spark operators and the sweep harness can drive any of them
interchangeably:

* ``extend(chunk)`` — append arrivals to ``scores``, the algorithm's one
  copy of the stream, indexed by arrival index ``t``. It is the only
  place arrivals are checked: a chunk that is not 1-D, or that holds a
  NaN or ±inf, raises ``ValueError`` and nothing is appended. One-pass
  algorithms only read arrivals, but multi-pass SMA re-scans the live
  window, and SAP scans the front partition when forming ``M_0``; both
  only ever read indices inside the current window.
* ``attach(scores)`` — ``extend`` with a whole stream at once; a stream
  shorter than one window raises ``ValueError``. The array is kept as
  given, not copied.
* ``windows()`` — the one window loop, and the one place that says what
  a run measures. It steps through every window that the extended
  arrivals complete and that has not been emitted yet (the next one
  follows from ``window_end``), with ``warmup()`` for window 0 and
  ``slide(j)`` after, and yields each window's ``topk()``. Per window
  it adds the step (``warmup``/``slide`` plus ``topk``) to
  ``metrics.wall_time_s`` and samples ``candidate_count()`` once,
  outside the clock. It is a generator, so a caller may look at the
  state between windows; extending again and calling ``windows()``
  again resumes where it stopped.
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

import time
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

        Raises ``ValueError`` when the chunk is not 1-D or holds a NaN or
        ±inf score; nothing of it is appended. A chunk that starts the
        stream is kept as given, not copied.
        """
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim != 1:
            raise ValueError(f"scores must be 1-D, got shape {chunk.shape}")
        if not np.isfinite(chunk).all():
            raise ValueError("scores must be finite (no NaN or ±inf)")
        if len(self.scores):
            self.scores = np.concatenate([self.scores, chunk])
        else:
            self.scores = chunk

    def attach(self, scores: np.ndarray) -> None:
        """Take the whole stream at once (at least one window long)."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim == 1 and len(scores) < self.q.n:  # extend checks ndim
            raise ValueError("stream shorter than one window")
        self.extend(scores)

    def windows(self) -> Iterator[list[int]]:
        """Step to each complete window not yet emitted and yield its top-k.

        Each step (``warmup``/``slide`` plus ``topk``) is added to
        ``metrics.wall_time_s``; ``candidate_count()`` is sampled once
        per window, outside the clock.
        """
        q, m, clock = self.q, self.metrics, time.perf_counter
        first = q.num_windows(self.window_end)  # 0 before warmup()
        for j in range(first, q.num_windows(len(self.scores))):
            t0 = clock()
            if j:
                self.slide(j)
            else:
                self.warmup()
            top = self.topk()
            m.wall_time_s += clock() - t0
            m.sample(self.candidate_count())
            yield top

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
