"""The SMA multi-pass baseline [Mouratidis et al., SIGMOD'06; paper §2.1].

SMA keeps a *capped* candidate set: only window objects scoring at least
a threshold θ (the k_max-th best score at the last re-scan, k_max = 2k)
are tracked, with dominance-based eviction among them. Arrivals below θ
are discarded outright — that is what keeps the set small — and the
price is re-scanning: when expiries shrink the candidate set below k,
the live window is re-scanned to rebuild the top-k_max skyband and reset
θ.

The paper's grid index exists to make that re-scan sub-linear: only
cells above θ are visited. We emulate the grid by walking window objects
in descending score order and charging ``rescan_examined`` only for
objects at or above the new θ (plus k slop for cell granularity) — the
same asymptotic saving, without building a 2-D grid the substituted
1-D score streams don't need.
"""
from __future__ import annotations

import bisect

import numpy as np

from repro.baselines.kskyband import KSkyband
from repro.core.candidates import CandidateSet
from repro.core.query import TopKQuery


class SMA(KSkyband):
    """Multi-pass capped-skyband with threshold re-scanning."""

    def __init__(self, q: TopKQuery) -> None:
        super().__init__(q)
        self.theta = float("-inf")

    def _ingest_range(self, lo: int, hi: int) -> None:
        super()._ingest_range(lo, hi)
        # The first window's candidates come from a scan of it. After
        # that, whenever |C| ≥ k at emission time, every alive object
        # outside C is either below θ (outscored by the ≥ k alive
        # candidates) or dominated — so re-scan only if |C| < k once
        # the slide's arrivals have been absorbed.
        if lo == 0 or len(self.cands) < self.q.k:
            self._rescan()

    def _ingest(self, t: int, score: float) -> None:
        self.metrics.examined += 1
        if score >= self.theta:  # below θ the grid would not index it
            self._admit(t, score)

    def _rescan(self) -> None:
        """Rebuild C = top-k_max skyband of the live window; reset θ."""
        w = self.scores[self.window_start : self.window_end]
        ts = np.arange(self.window_start, self.window_end)
        order = np.lexsort((-ts, -w))  # score desc, t desc
        kmax = min(2 * self.q.k, len(w))  # k_max = 2k
        # new threshold: k_max-th best score in the window
        self.theta = float(w[order[kmax - 1]])
        c = CandidateSet()
        taken_ts: list[int] = []  # sorted asc, ts of accepted candidates
        examined = 0
        for idx in order:
            sc, tt = float(w[idx]), int(ts[idx])
            if sc < self.theta or len(taken_ts) >= kmax:
                break
            examined += 1
            # dominators among already-walked (higher-scored) objects:
            # those newer than tt
            dom = len(taken_ts) - bisect.bisect_right(taken_ts, tt)
            if dom < self.q.k:
                c.insert(sc, tt, dom=dom)
                bisect.insort(taken_ts, tt)
        self.cands = c
        self.metrics.rescans += 1
        # grid emulation: cells above θ ≈ kept objects + k cell slop
        self.metrics.rescan_examined += examined + self.q.k
        self.metrics.insertions += len(c)
