"""Query model for continuous top-k over a count-based sliding window.

A query is the tuple ``⟨n, k, s, F⟩`` from the paper (§1): whenever ``s``
new objects arrive (and the ``s`` oldest expire), report the ``k``
highest-scoring objects among the ``n`` currently in the window. The
preference function ``F`` is applied upstream — algorithms here consume a
pre-scored stream, so an object is just ``(t, score)`` with ``t`` its
0-based arrival index.

Tie-break convention (shared by every algorithm, the naive reference,
the Catalyst pipeline, and the DuckDB oracle): higher ``score`` wins;
on equal score the *newer* object (larger ``t``) wins. This matches the
paper's dominance definition ``o' ≺ o ⟺ F(o) < F(o') ∧ o.t ≤ o'.t``
under which an equal-scored newer object does not dominate, but some
deterministic order is still needed to emit a unique top-k set.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral


@dataclass(frozen=True)
class TopKQuery:
    """A continuous top-k query ``⟨n, k, s⟩`` over a count-based window.

    Attributes:
        n: window size (number of objects in each query window).
        k: number of results to report per window.
        s: slide size (objects arriving / expiring per slide).
    """

    n: int
    k: int
    s: int

    def __post_init__(self) -> None:
        for name in ("n", "k", "s"):
            v = getattr(self, name)
            # bool is an int subclass: TopKQuery(40, True, 4) would be k = 1
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise TypeError(f"{name} must be an integer, got {v!r}")
        if self.n <= 0 or self.k <= 0 or self.s <= 0:
            raise ValueError(f"n, k, s must be positive: {self}")
        if self.k > self.n:
            raise ValueError(f"k={self.k} must not exceed n={self.n}")
        if self.n % self.s != 0:
            # The paper assumes m = n/s is an integer (§2.1, §4); every
            # partition must hold a whole number of slides.
            raise ValueError(f"n={self.n} must be a multiple of s={self.s}")

    @property
    def m_slides(self) -> int:
        """Number of slide-groups per window (``n/s``, the paper's m)."""
        return self.n // self.s

    def num_windows(self, length: int) -> int:
        """How many full windows a stream of ``length`` objects yields.

        Window ``j`` covers arrival indices ``[j*s, j*s + n)``; the first
        full window exists once ``n`` objects have arrived.
        """
        if length < self.n:
            return 0
        return (length - self.n) // self.s + 1

