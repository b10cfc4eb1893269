"""Unit tests for the S-AVL structure (core/savl.py)."""
import pytest

from repro.core.savl import SAVL, MeaningfulSet, SortedMeaningful


def build(entries, max_stacks):
    """Offer entries (already newest-first) into a fresh S-AVL."""
    s = SAVL(max_stacks)
    kept = [s.offer(sc, t) for sc, t in entries]
    return s, kept


def test_stack_invariants_ascending_score_descending_t():
    # newest-first scan: t decreasing; pushes require score > top
    s, _ = build([(1.0, 9), (2.0, 8), (3.0, 7)], 1)
    assert len(s.stacks) == 1
    st = s.stacks[0]
    for j in range(len(st) - 1):
        assert st[j][0] <= st[j + 1][0]
        assert st[j][1] >= st[j + 1][1]


def test_prune_when_all_tops_higher():
    s, kept = build([(5.0, 9), (4.0, 8), (1.0, 7)], 2)
    # 1.0 cannot sit on either stack top (5, 4) and cap reached → pruned
    assert kept == [True, True, False]


def test_picks_largest_qualifying_top():
    # paper's example: prefer the stack whose top is largest but < score
    s = SAVL(2)
    s.offer(30.0, 9)
    s.offer(31.0, 8)  # 31 > 30 → pushed on the 30-stack
    assert len(s.stacks) == 1
    s2 = SAVL(3)
    s2.offer(30.0, 9)
    s2.offer(31.0, 8)
    s2.offer(36.0, 7)
    s2.offer(34.0, 6)  # fits 30-stack? no: 31-top is larger and < 34
    # stacks: [30,31? ...] — 31 stacked on 30; 36 new stack... check max
    assert s2.peek_max(0) == (36.0, 7)


def test_pop_max_returns_descending():
    s, _ = build([(3.0, 9), (5.0, 8), (1.0, 7), (2.0, 6)], 2)
    got = []
    while (e := s.pop_max(0)) is not None:
        got.append(e[0])
    assert got == sorted(got, reverse=True)
    assert got[0] == 5.0


def test_lazy_expiry_skips_old_entries():
    s, _ = build([(1.0, 9), (5.0, 3)], 1)  # 5.0 is oldest, at the top
    assert s.peek_max(0) == (5.0, 3)
    # expire everything with t < 5: the 5.0@3 top must be skipped
    assert s.peek_max(5) == (1.0, 9)


def test_iter_desc_sorted_and_alive():
    s, _ = build([(3.0, 9), (5.0, 8), (4.0, 7), (2.0, 6)], 3)
    vals = [e for e in s.iter_desc(7)]
    assert vals == sorted(vals, reverse=True)
    assert all(t >= 7 for _, t in vals)


def test_needs_at_least_one_stack():
    with pytest.raises(ValueError):
        SAVL(0)


def test_sorted_meaningful_pop_and_peek():
    m = SortedMeaningful([(3.0, 5), (1.0, 9), (2.0, 7)])
    assert m.peek_max(0) == (3.0, 5)
    assert m.pop_max(0) == (3.0, 5)
    assert m.pop_max(0) == (2.0, 7)
    assert m.size() == 1


def test_sorted_meaningful_expiry():
    m = SortedMeaningful([(3.0, 1), (2.0, 9)])
    # 3.0@1 expired → best alive is 2.0@9
    assert m.pop_max(5) == (2.0, 9)
    assert m.pop_max(5) is None


def test_meaningful_set_composes():
    ms = MeaningfulSet()
    s1, _ = build([(1.0, 9), (4.0, 8)], 1)
    ms.add(s1)
    ms.add(SortedMeaningful([(3.0, 6), (5.0, 5)]))
    assert ms.peek_max(0) == (5.0, 5)
    assert ms.pop_max(0) == (5.0, 5)
    assert ms.pop_max(0) == (4.0, 8)
    vals = list(ms.iter_desc(0))
    assert vals == sorted(vals, reverse=True)
    assert ms.size() == 2


def test_meaningful_set_empty():
    ms = MeaningfulSet()
    assert ms.pop_max(0) is None
    assert ms.peek_max(0) is None
    assert list(ms.iter_desc(0)) == []
