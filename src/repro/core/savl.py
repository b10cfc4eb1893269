"""The S-AVL structure (§5.1) holding a partition's meaningful objects.

An S-AVL is a set of at most ``k − ρ`` stacks plus an ordered view over
the stack *tops*. Objects of the front partition (minus its top-k) are
scanned in **reverse arrival order** (newest first) and offered to the
structure:

* each stack keeps scores ascending toward the top and arrival times
  descending toward the top (the top is the oldest, highest entry);
* an offered object is pushed onto the stack whose top has the largest
  score still below the object's score;
* if every top is at least the object's score, the object is dominated
  by the ``k − ρ`` tops (all newer than it) plus the ρ later candidates
  that define the group dominance number — it is pruned.

The stack-top view supports ``pop_max`` (promote the best meaningful
object into the candidate set when a front candidate expires) in
O(log k); with ≤ k stacks a linear max over tops is within the same
bound and is what we use. Entries are lazily expired: anything with
``t < min_t`` is skipped on pop/iteration.

The paper pairs the stacks with an AVL tree over the tops; with at most
``k − ρ`` stacks the ordered-view operations here are O(k) worst case
per pop, matching the paper's O(log k) up to the structure's own bound —
and the *count of offered/pruned objects*, which is what the cost model
tracks, is identical.
"""
from __future__ import annotations

import heapq
from collections.abc import Iterator


class SAVL:
    """Stacks + max-view over stack tops for one partition's M set."""

    def __init__(self, max_stacks: int) -> None:
        if max_stacks < 1:
            raise ValueError("S-AVL needs at least one stack")
        self.max_stacks = max_stacks
        # each stack is a list, index -1 = top (oldest, highest score)
        self.stacks: list[list[tuple[float, int]]] = []

    def offer(self, score: float, t: int) -> bool:
        """Offer an object during reverse-arrival-order construction.

        Returns True when stored, False when pruned. Callers must offer
        objects in strictly decreasing ``t`` (newest first).
        """
        best_i = -1
        best_top = float("-inf")
        for i, st in enumerate(self.stacks):
            top = st[-1][0]
            if top < score and top > best_top:
                best_i, best_top = i, top
        if best_i >= 0:
            self.stacks[best_i].append((score, t))
            return True
        if len(self.stacks) < self.max_stacks:
            self.stacks.append([(score, t)])
            return True
        return False

    def _drop_expired_tops(self, min_t: int) -> None:
        for st in self.stacks:
            while st and st[-1][1] < min_t:
                st.pop()
        self.stacks = [st for st in self.stacks if st]

    def pop_max(self, min_t: int) -> tuple[float, int] | None:
        """Remove and return the best alive entry (None when empty)."""
        self._drop_expired_tops(min_t)
        if not self.stacks:
            return None
        best_i = max(range(len(self.stacks)), key=lambda i: self.stacks[i][-1])
        entry = self.stacks[best_i].pop()
        if not self.stacks[best_i]:
            del self.stacks[best_i]
        return entry

    def peek_max(self, min_t: int) -> tuple[float, int] | None:
        """Best alive entry without removing it (None when empty)."""
        self._drop_expired_tops(min_t)
        if not self.stacks:
            return None
        return max(st[-1] for st in self.stacks)

    def iter_desc(self, min_t: int) -> Iterator[tuple[float, int]]:
        """Alive entries in descending (score, t) order (lazy merge)."""
        self._drop_expired_tops(min_t)
        iters = [
            (e for e in reversed(st) if e[1] >= min_t) for st in self.stacks
        ]
        # each stack read top→bottom is descending in score
        yield from heapq.merge(*iters, reverse=True)

    def size(self) -> int:
        """Number of stored entries (including not-yet-expired-checked)."""
        return sum(len(st) for st in self.stacks)


class SortedMeaningful:
    """Drop-in M-set used by the *no-S-AVL* SAP variant (Table 2).

    A plain sorted list of the partition's exact meaningful objects,
    built by a reverse scan with full dominance counting — the costlier
    formation path that S-AVL is designed to beat.
    """

    def __init__(self, entries_desc: list[tuple[float, int]]) -> None:
        # stored ascending; pop from the end
        self._entries = sorted(entries_desc)

    def pop_max(self, min_t: int) -> tuple[float, int] | None:
        """Remove and return the best alive entry (None when empty)."""
        while self._entries:
            score, t = self._entries.pop()
            if t >= min_t:
                return (score, t)
        return None

    def peek_max(self, min_t: int) -> tuple[float, int] | None:
        """Best alive entry without removing it (None when empty).

        Expired entries at the score-tail are dropped as a side effect;
        entries are not t-ordered, so deeper expired entries are left to
        ``iter_desc``'s filter.
        """
        while self._entries and self._entries[-1][1] < min_t:
            self._entries.pop()
        return self._entries[-1] if self._entries else None

    def iter_desc(self, min_t: int) -> Iterator[tuple[float, int]]:
        """Alive entries in descending order."""
        for score, t in reversed(self._entries):
            if t >= min_t:
                yield (score, t)

    def size(self) -> int:
        """Number of stored entries."""
        return len(self._entries)


class MeaningfulSet:
    """Union of sub-structures forming a front partition's ``M_0``.

    The baseline SAP keeps one S-AVL; the enhanced (UBSA, §5.2) variant
    keeps one main S-AVL plus a per-k-unit structure, possibly replaced
    by a deeper per-unit S-AVL when the drain pointer approaches the
    unit. ``MeaningfulSet`` hides that composition behind the same
    pop/iter interface.
    """

    def __init__(self) -> None:
        self.parts: list[SAVL | SortedMeaningful] = []

    def add(self, part: SAVL | SortedMeaningful) -> None:
        """Attach a sub-structure."""
        self.parts.append(part)

    def pop_max(self, min_t: int) -> tuple[float, int] | None:
        """Remove and return the best alive entry across sub-structures."""
        best_i, best = -1, None
        for i, p in enumerate(self.parts):
            head = p.peek_max(min_t)
            if head is not None and (best is None or head > best):
                best_i, best = i, head
        if best_i < 0:
            return None
        return self.parts[best_i].pop_max(min_t)

    def peek_max(self, min_t: int) -> tuple[float, int] | None:
        """Best alive entry across sub-structures without removal."""
        best = None
        for p in self.parts:
            head = p.peek_max(min_t)
            if head is not None and (best is None or head > best):
                best = head
        return best

    def iter_desc(self, min_t: int) -> Iterator[tuple[float, int]]:
        """Alive entries across sub-structures, descending."""
        yield from heapq.merge(
            *[p.iter_desc(min_t) for p in self.parts], reverse=True
        )

    def size(self) -> int:
        """Total stored entries."""
        return sum(p.size() for p in self.parts)
