"""The k-skyband one-pass baseline [Shen et al., ICDE'12; paper §2.1].

Maintains *every* k-skyband object of the window as a candidate: an
object stays while fewer than k newer objects outscore it. On arrival,
the new object (dominated by nobody yet) bumps the dominance counter of
every lower-scored candidate and evicts those reaching k; on expiry the
(oldest) object is dropped if still a candidate. No re-scanning ever —
but the candidate set is large (O(n) when scores are anti-correlated
with arrival order, the TIMER case) and each arrival pays O(n_d) counter
updates, exactly the weakness the paper demonstrates.
"""
from __future__ import annotations

from repro.core.base import StreamTopK
from repro.core.candidates import CandidateSet
from repro.core.query import TopKQuery


class KSkyband(StreamTopK):
    """One-pass k-skyband candidate maintenance."""

    name = "kskyband"

    def __init__(self, q: TopKQuery) -> None:
        super().__init__(q)
        self.cands = CandidateSet()
        # k-skyband entries each carry a dominance counter (memory model)
        self.metrics.counter_entries_flag = True

    def _ingest(self, t: int, score: float) -> None:
        below, evicted = self.cands.dominate_below(score, self.q.k)
        self.metrics.examined += below
        self.metrics.deletions += evicted
        self.cands.insert(score, t)
        self.metrics.insertions += 1

    def _expire(self, t: int, score: float) -> None:
        if self.cands.remove(score, t):
            self.metrics.deletions += 1

    def topk(self) -> list[int]:
        return [t for _, t in self.cands.top_desc(self.q.k)]

    def candidate_count(self) -> int:
        return len(self.cands)
