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

    def __init__(self, q: TopKQuery) -> None:
        super().__init__(q)
        # one lbp pointer per predicted window instead of a dominance
        # counter per candidate (memory model)
        self.metrics.counter_entries_flag = False
        self.metrics.overhead_pointers = q.m_slides

    def _ingest_range(self, lo: int, hi: int) -> None:
        """Admit the arrivals ``[lo, hi)``, whole slides, a slide at a time.

        The dominators of a new object are the arrivals of its own slide
        that outscore it (later slides haven't arrived). Counting *all*
        of them — kept, evicted or skipped — is sound: any same-slide
        higher object dominates o directly or implies ≥ k dominators
        transitively. An O(log s) bisect into the slide's sorted scores
        mirrors the paper's lbp-table update cost instead of an O(|C|)
        scan.
        """
        k, s, metrics = self.q.k, self.q.s, self.metrics
        scores = self.scores[lo:hi].tolist()
        for g in range(0, hi - lo, s):
            seen: list[float] = []  # the slide's scores so far, ascending
            for t, score in enumerate(scores[g : g + s], lo + g):
                dom0 = len(seen) - bisect.bisect_right(seen, score)
                bisect.insort(seen, score)
                metrics.examined += 1
                # with k dominators it is in no predicted result set
                if dom0 < k:
                    self._admit(t, score, dom0)
