"""The k-skyband one-pass baseline [Shen et al., ICDE'12; paper §2.1].

Maintains *every* k-skyband object of the window as a candidate: an
object stays while fewer than k newer objects outscore it. On arrival,
the new object (dominated by nobody yet) bumps the dominance counter of
every lower-scored candidate and evicts those reaching k; on expiry the
(oldest) object is dropped if still a candidate. No re-scanning ever —
but the candidate set is large (O(n) when scores are anti-correlated
with arrival order, the TIMER case) and each arrival pays O(n_d) counter
updates, exactly the weakness the paper demonstrates.

``KSkyband`` is also the base of the other two baselines, which keep a
*capped* k-skyband and differ only in which arrivals they admit:
MinTopK drops an arrival that k objects of its own slide outscore
(``_ingest_range``, a slide at a time), SMA one below its re-scan
threshold (``_ingest``). The candidate set, the admit step, expiry,
``topk`` and ``candidate_count`` live here once.
"""
from __future__ import annotations

from repro.core.base import StreamTopK
from repro.core.candidates import CandidateSet
from repro.core.query import TopKQuery


class KSkyband(StreamTopK):
    """One-pass k-skyband candidate maintenance."""

    def __init__(self, q: TopKQuery) -> None:
        super().__init__(q)
        self.cands = CandidateSet()
        # k-skyband entries each carry a dominance counter (memory model)
        self.metrics.counter_entries_flag = True

    def _ingest_range(self, lo: int, hi: int) -> None:
        scores = self.scores
        for t in range(lo, hi):
            self._ingest(t, float(scores[t]))

    def _admit(self, t: int, score: float, dom: int = 0) -> None:
        """Insert arrival ``t`` with ``dom`` dominators, evicting those it
        pushes to k dominators."""
        below, evicted = self.cands.dominate_below(score, self.q.k)
        self.metrics.examined += below
        self.metrics.deletions += evicted
        self.cands.insert(score, t, dom=dom)
        self.metrics.insertions += 1

    # the plain k-skyband admits every arrival
    _ingest = _admit

    def _expire_range(self, lo: int, hi: int) -> None:
        cands, scores = self.cands, self.scores
        for t in range(lo, hi):
            if cands.remove(float(scores[t]), t):
                self.metrics.deletions += 1

    def topk(self) -> list[int]:
        return [t for _, t in self.cands.top_desc(self.q.k)]

    def candidate_count(self) -> int:
        return len(self.cands)
