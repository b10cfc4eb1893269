"""Unit tests for the query model (core/query.py)."""
import pytest

from repro.core.query import TopKQuery


@pytest.mark.parametrize("n,k,s", [(10, 1, 1), (10, 10, 5), (100, 7, 25)])
def test_valid_queries(n, k, s):
    q = TopKQuery(n=n, k=k, s=s)
    assert q.m_slides == n // s


@pytest.mark.parametrize(
    "n,k,s",
    [
        (0, 1, 1),
        (10, 0, 1),
        (10, 1, 0),
        (10, 11, 1),  # k > n
        (10, 2, 3),  # n not multiple of s
        (-5, 1, 1),
    ],
)
def test_invalid_queries(n, k, s):
    with pytest.raises(ValueError):
        TopKQuery(n=n, k=k, s=s)


@pytest.mark.parametrize(
    "length,expected", [(9, 0), (10, 1), (11, 1), (12, 2), (20, 6), (100, 46)]
)
def test_num_windows(length, expected):
    q = TopKQuery(n=10, k=2, s=2)
    assert q.num_windows(length) == expected


def test_num_windows_s1():
    q = TopKQuery(n=5, k=1, s=1)
    assert q.num_windows(5) == 1
    assert q.num_windows(9) == 5


def test_query_frozen():
    q = TopKQuery(n=10, k=2, s=2)
    with pytest.raises(AttributeError):
        q.n = 20  # type: ignore[misc]
