"""SAP's global candidate set C with dominance counters (§3.1, Fig. 4).

``C`` is the union of the sealed partitions' top-k sets (plus objects
promoted out of the front partition's meaningful set). Entries are kept
in one list sorted ascending by ``(score, t)`` together with a dominance
counter ``D(o, C)``: when a freshly sealed partition's top-k is merged
in, every existing entry gains one dominance unit per new entry that
outscores it (all new entries are newer than all existing ones), and
entries reaching ``D ≥ k`` are refined away — the integrated
merge-and-refine single scan of Fig. 4.

The baselines (k-skyband, MinTopK, SMA) keep their candidates in the
same container; their per-arrival step is :meth:`dominate_below`.
"""
from __future__ import annotations

import bisect
import heapq
from collections.abc import Iterator


class CandidateSet:
    """Sorted candidate list with dominance counters and refine-on-merge."""

    def __init__(self) -> None:
        self._entries: list[tuple[float, int]] = []  # ascending (score, t)
        self._dom: dict[int, int] = {}  # t -> D(o, C)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, t: int) -> bool:
        return t in self._dom

    def count_between(self, lo: int, hi: int) -> int:
        """Number of candidates with ``lo ≤ t < hi``."""
        return sum(1 for t in self._dom if lo <= t < hi)

    def insert(self, score: float, t: int, dom: int = 0) -> None:
        """Insert one candidate with dominance counter ``dom``."""
        bisect.insort(self._entries, (score, t))
        self._dom[t] = dom

    def remove(self, score: float, t: int) -> bool:
        """Remove candidate ``(score, t)``; True when it was present."""
        if t not in self._dom:
            return False
        i = bisect.bisect_left(self._entries, (score, t))
        assert self._entries[i] == (score, t)
        del self._entries[i]
        del self._dom[t]
        return True

    def dominate_below(self, score: float, k: int) -> tuple[int, int]:
        """An arrival scoring ``score`` dominates every entry strictly below it.

        Each such entry gains one dominance unit; entries reaching k are
        dropped. This is the per-arrival step of the baselines.
        Returns ``(below, evicted)``.
        """
        below = bisect.bisect_left(self._entries, (score,))
        dom = self._dom
        kept: list[tuple[float, int]] = []
        for e in self._entries[:below]:
            d = dom[e[1]] + 1
            if d < k:
                dom[e[1]] = d
                kept.append(e)
            else:
                del dom[e[1]]
        evicted = below - len(kept)
        if evicted:
            self._entries[:below] = kept
        return (below, evicted)

    def merge_topk(self, new_desc: list[tuple[float, int]], k: int) -> tuple[int, int]:
        """Merge a sealed partition's top-k (descending) into C (Fig. 4).

        Every new entry is newer than every existing entry, so an
        existing entry is dominated once per higher-scoring new entry.
        Entries whose counter reaches k are refined away in the same
        scan. Only the band between the new k-th and best scores is
        counted one by one: entries at or above the best gain nothing,
        and when k entries are merged, every entry below the k-th reaches
        k and goes in one slice. Returns ``(inserted, refined_away)``.
        """
        if not new_desc:
            return (0, 0)
        entries, dom = self._entries, self._dom
        n_new = len(new_desc)
        top = bisect.bisect_left(entries, (new_desc[0][0],))
        low = bisect.bisect_left(entries, (new_desc[-1][0],)) if n_new >= k else 0
        for _, t in entries[:low]:
            del dom[t]
        refined = low
        new_scores_asc = [sc for sc, _ in reversed(new_desc)]
        kept: list[tuple[float, int]] = []
        for sc, t in entries[low:top]:
            # new entries strictly above sc dominate this entry
            d = dom[t] + n_new - bisect.bisect_right(new_scores_asc, sc)
            if d >= k:
                del dom[t]
                refined += 1
            else:
                dom[t] = d
                kept.append((sc, t))
        for _, t in new_desc:
            dom[t] = 0
        kept += entries[top:]
        kept += reversed(new_desc)
        kept.sort()  # two sorted runs
        self._entries = kept
        return (n_new, refined)

    def iter_desc(self) -> Iterator[tuple[float, int]]:
        """Entries in descending (score, t) order."""
        return reversed(self._entries)

    def top_desc(self, k: int) -> list[tuple[float, int]]:
        """The k best entries as a list, best first (O(k))."""
        return self._entries[-k:][::-1] if k > 0 else []

    def rho(self, threshold: float, min_t: int) -> int:
        """Group-dominance contribution from C (Definition 1).

        Counts candidates with score strictly above ``threshold`` whose
        arrival index is at least ``min_t`` (i.e. in partitions after
        the one being tested).
        """
        count = 0
        for sc, t in reversed(self._entries):
            if sc <= threshold:
                break
            if t >= min_t:
                count += 1
        return count

    def kth_highest_excluding(
        self, k: int, lo_t: int, hi_t: int, extra_desc: list[tuple[float, int]]
    ) -> float:
        """k-th highest score over C-minus-partition plus ``extra_desc``.

        Used as the global pruning bound Fθ of Lemma 2: candidates whose
        ``t ∈ [lo_t, hi_t)`` (the partition being scanned) are skipped;
        ``extra_desc`` supplies the unsealed rear partition's top-k in
        descending order. Returns -inf when fewer than k entries exist.
        """
        own = (e for e in reversed(self._entries) if not (lo_t <= e[1] < hi_t))
        merged = heapq.merge(own, extra_desc, reverse=True)
        score = float("-inf")
        for i, (sc, _) in enumerate(merged):
            if i == k - 1:
                return sc
        return score
