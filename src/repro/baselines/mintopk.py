"""The MinTopK one-pass baseline [Yang et al., EDBT'11; paper §2.1].

MinTopK exploits the slide size s: since s objects enter/leave together,
only the top-k of each slide-group can ever contribute. Its candidate
set equals the union of the predicted result sets of all current+future
windows, which is exactly the *slide-granularity* k-skyband: an object
is kept while fewer than k objects from its own or later slides outscore
it. (Within a slide, arrival order is irrelevant — all expire together —
so same-slide higher-scored objects count as dominators; this is what
caps each slide's contribution at top-k.)

The candidate bound is |C| ≤ nk/max(s,k); the per-object maintenance
cost is O(n/s + log|C|) via the lbp pointer table in the paper. Here the
lbp table is represented by its cost/overhead model (n/s pointer slots
in the memory accounting) while the candidate semantics are maintained
directly on the candidate set.
"""
from __future__ import annotations

import bisect

from repro.baselines.kskyband import KSkyband
from repro.core.query import TopKQuery


class MinTopK(KSkyband):
    """Slide-granularity skyband ≡ union of predicted result sets."""

    name = "mintopk"

    def __init__(self, q: TopKQuery) -> None:
        super().__init__(q)
        self._cur_slide = -1
        self._cur_scores: list[float] = []  # all scores seen this slide
        # one lbp pointer per predicted window instead of a dominance
        # counter per candidate (memory model)
        self.metrics.counter_entries_flag = False
        self.metrics.overhead_pointers = q.m_slides

    def _ingest(self, t: int, score: float) -> None:
        g = t // self.q.s  # slide id
        if g != self._cur_slide:
            self._cur_slide = g
            self._cur_scores = []
        # dominators of the new object: same-slide arrivals with higher
        # score (later slides haven't arrived). Counting *all* arrivals
        # — kept, evicted or skipped — is sound: any same-slide higher
        # object dominates o directly or implies ≥ k dominators
        # transitively. An O(log s) bisect mirrors the paper's lbp-table
        # update cost instead of an O(|C|) scan.
        dom0 = len(self._cur_scores) - bisect.bisect_right(
            self._cur_scores, score
        )
        bisect.insort(self._cur_scores, score)
        self.metrics.examined += 1
        if dom0 >= self.q.k:
            return  # cannot contribute to any predicted result set
        self._admit(t, score, dom0)
