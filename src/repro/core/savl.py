"""The front partition's meaningful set ``M_0`` and its S-AVL builder (§5.1).

``M_0`` is one list of stacks, each with scores ascending toward the top.
Its queries look at the stack tops only: ``pop_max`` promotes the best
meaningful object into the candidate set when a front candidate
expires. Entries are lazily expired: a top with ``t < min_t`` is dropped
before each query.

An S-AVL builds stacks for ``M_0``. Objects of the front partition
(minus its top-k) are scanned in **reverse arrival order** (newest
first) and offered to at most ``k − ρ`` stacks:

* each stack keeps scores ascending toward the top and arrival times
  descending toward the top (the top is the oldest, highest entry);
* an offered object is pushed onto the stack whose top has the largest
  score still below the object's score;
* if every top is at least the object's score, the object is dominated
  by the ``k − ρ`` tops (all newer than it) plus the ρ later candidates
  that define the group dominance number — it is pruned.

A list sorted ascending is a stack too, so ``M_0`` also holds the k-unit
summaries of UBSA (§5.2) and the exact skyband of the no-S-AVL variant
(Table 2) as one stack each. Their arrival times are not monotone, so an
expired entry may lie under an alive top; ``iter_desc`` and ``size``
pass over those.

The paper pairs the stacks with an AVL tree over the tops; a linear max
over the tops is used here. The *count of offered/pruned objects*, which
is what the cost model tracks, is the same.
"""
from __future__ import annotations

import heapq
from collections.abc import Iterator


class SAVL:
    """Builds the stacks of one S-AVL by a newest-first scan."""

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


class MeaningfulSet:
    """``M_0``: stacks with scores ascending toward the top (index -1)."""

    def __init__(self) -> None:
        self.stacks: list[list[tuple[float, int]]] = []

    def add(self, stacks: list[list[tuple[float, int]]]) -> None:
        """Take over ``stacks``; empty ones are left out."""
        self.stacks += [st for st in stacks if st]

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

    def size(self, min_t: int) -> int:
        """Number of stored entries with ``t ≥ min_t``."""
        return sum(1 for st in self.stacks for _, t in st if t >= min_t)
