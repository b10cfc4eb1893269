"""Unit tests for the Mann-Whitney machinery (core/wrt.py)."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.wrt import (
    eta,
    evaluation,
    partition_improper,
    rank_sum,
    skyband_sample_root,
    zeta_max,
    zeta_star,
)


@pytest.mark.parametrize("k", [1, 5, 10, 25, 100, 1000])
def test_root_solves_equation(k):
    root = skyband_sample_root(k)
    x = root * root
    assert math.isclose((x - k) / math.sqrt(x), 3.0, rel_tol=1e-9)


@pytest.mark.parametrize("k", [1, 5, 10, 25, 100])
def test_eta_greater_than_one(k):
    assert eta(k) * k > k  # ηk > k by construction


@pytest.mark.parametrize("k", [1, 5, 10, 25, 100])
def test_zeta_ordering(k):
    assert k < zeta_star(k) < zeta_max(k)


def test_rank_sum_brute_force():
    a = np.array([3.0, 1.0])
    b = np.array([2.0, 4.0])
    # ascending merged: 1(a),2(b),3(a),4(b) → ranks of a = 1+3
    assert rank_sum(a, b) == 4.0


def test_rank_sum_with_ties_average():
    a = np.array([2.0])
    b = np.array([2.0])
    # both tied at ranks {1,2} → average 1.5 each
    assert rank_sum(a, b) == 1.5


@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=12),
    st.lists(st.integers(-3, 3), min_size=1, max_size=12),
)
def test_rank_sum_matches_brute_force_average_ranks(a, b):
    # O(n²) reference: a value's average rank is 1 + (#smaller) plus half
    # of the other values equal to it; small integers force many ties
    merged = a + b
    expected = sum(
        1 + sum(y < x for y in merged) + (sum(y == x for y in merged) - 1) / 2
        for x in a
    )
    assert rank_sum(np.array(a, float), np.array(b, float)) == expected


def test_rank_sum_total_is_constant():
    rng = np.random.default_rng(0)
    a, b = rng.random(13), rng.random(29)
    total = rank_sum(a, b) + rank_sum(b, a)
    m = 13 + 29
    assert math.isclose(total, m * (m + 1) / 2)


def test_evaluation_monotone_in_sample_values():
    rng = np.random.default_rng(1)
    base = rng.random(40)
    low = evaluation(rng.random(10) * 0.1, base)
    high = evaluation(rng.random(10) * 0.1 + 10.0, base)
    assert high > low


def test_improper_when_partition_dominates():
    base = np.linspace(0, 1, 50)
    assert partition_improper(np.linspace(10, 11, 10), base)


def test_proper_when_same_distribution():
    # Theorem 1 setting: partition of size L vs interval of size η·L,
    # comparing top-k vs top-ηk — identical distributions should be
    # accepted (F ≤ 0) because the interval's larger sample dominates.
    k = 10
    e = eta(k)
    rng = np.random.default_rng(2)
    part = rng.random(200)
    inter_pool = rng.random(int(e * 200))
    topk = np.sort(part)[-k:]
    inter = np.sort(inter_pool)[-int(round(e * k)):]
    assert not partition_improper(topk, inter)


def test_empty_samples_are_proper():
    assert evaluation(np.array([]), np.array([1.0])) < 0
    assert evaluation(np.array([1.0]), np.array([])) < 0
