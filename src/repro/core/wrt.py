"""Mann-Whitney rank test (WRT) machinery for dynamic partitioning (§2.2, §4.2).

The dynamic partition algorithm asks, at every unit boundary, whether the
top-k of the growing rear partition ``P'_m`` "tends to be larger" than
the top-ηk objects of the preceding window interval ``I``. If yes
(evaluation function F > 0), the partition is improper — it is hoarding
high-score objects and will likely need a meaningful-object set later —
so it is finalised and a fresh partition starts.

Paper constants:

* ``η`` solves ``(ηk − k)/√(ηk) = 3``  (Theorem 1, 3-sigma rule), so
  with x = ηk:  ``√x = (3 + √(9 + 4k)) / 2``.
* ``ζ*`` solves ``(ζ − k)/√ζ = 3`` (same equation) and
  ``ζmax = ζ* + 3√ζ*`` (Theorem 3) — used by TBUI.
* Acceptance quantile ``u_{1−α/2} = 1.96`` (α = 0.05).

Substitution note (DESIGN.md §2): the paper consults the exact rank-sum
table for k ≤ 10 and the normal approximation for k ≥ 10. The exact
small-sample tables are not available offline, so the normal
approximation is used throughout; for the k values swept here the
acceptance-region boundary differs by less than the test's own Type-I
error, so partitioning decisions are preserved.
"""
from __future__ import annotations

import bisect
import math
from collections.abc import Sequence

U_975 = 1.959963984540054  # upper 0.975 quantile of N(0,1)


def skyband_sample_root(k: int) -> float:
    """``√x`` where x solves ``(x − k)/√x = 3`` (shared by η and ζ*)."""
    return (3.0 + math.sqrt(9.0 + 4.0 * k)) / 2.0


def eta(k: int) -> float:
    """The paper's η: sample-size ratio making Pr(θ^k_1 > θ^k_2) ≈ 1."""
    root = skyband_sample_root(k)
    return (root * root) / k


def zeta_star(k: int) -> int:
    """ζ*: threshold rank used by TBUI (solution of (ζ−k)/√ζ = 3)."""
    root = skyband_sample_root(k)
    return max(k + 1, int(math.ceil(root * root)))


def zeta_max(k: int) -> int:
    """ζmax = ζ* + 3√ζ* (Theorem 3 upper bound)."""
    zs = zeta_star(k)
    return int(math.ceil(zs + 3.0 * math.sqrt(zs)))


def rank_sum(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """R1: sum of the ranks of ``sample_a`` in the merged ascending order.

    Ranks are 1-based over ``sample_a ∪ sample_b``; ties get average
    ranks (standard Mann-Whitney treatment).
    """
    merged = sorted([*sample_a, *sample_b])
    # the values tied with x hold ranks below+1 … through; their average
    # is (below + through + 1) / 2
    total = sum(
        bisect.bisect_left(merged, x) + bisect.bisect_right(merged, x) + 1
        for x in sample_a
    )
    return total / 2.0


def evaluation(
    topk_scores: Sequence[float], interval_scores: Sequence[float]
) -> float:
    """The paper's evaluation function F (Eq. 2), normal approximation.

    ``topk_scores`` are the k candidate scores of the rear partition,
    ``interval_scores`` the top-ηk scores of the lookback interval.
    Positive F ⟹ the rear's candidates tend to outscore the interval's
    ⟹ the partition is improper.
    """
    k = len(topk_scores)
    ek = len(interval_scores)
    if k == 0 or ek == 0:
        return -1.0
    r1 = rank_sum(topk_scores, interval_scores)
    mu = k * (k + ek + 1) / 2.0
    sigma = math.sqrt(k * ek * (k + ek + 1) / 12.0)
    if sigma == 0.0:
        return -1.0
    return (r1 - mu) / sigma - U_975


def partition_improper(
    topk_scores: Sequence[float], interval_scores: Sequence[float]
) -> bool:
    """True when WRT says the rear partition should be finalised."""
    return evaluation(topk_scores, interval_scores) > 0.0
