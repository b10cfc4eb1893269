"""Unit tests for M₀ and its S-AVL builder (core/savl.py)."""
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.savl import SAVL, MeaningfulSet


def build(entries, max_stacks):
    """Offer entries (already newest-first) into a fresh S-AVL."""
    s = SAVL(max_stacks)
    kept = [s.offer(sc, t) for sc, t in entries]
    return s, kept


def m0(*stack_lists):
    """An M₀ holding the given lists of stacks."""
    ms = MeaningfulSet()
    for stacks in stack_lists:
        ms.add(stacks)
    return ms


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
    assert m0(s2.stacks).peek_max(0) == (36.0, 7)


def test_pop_max_returns_descending():
    s, _ = build([(3.0, 9), (5.0, 8), (1.0, 7), (2.0, 6)], 2)
    ms = m0(s.stacks)
    got = []
    while (e := ms.pop_max(0)) is not None:
        got.append(e[0])
    assert got == sorted(got, reverse=True)
    assert got[0] == 5.0


def test_lazy_expiry_skips_old_entries():
    s, _ = build([(1.0, 9), (5.0, 3)], 1)  # 5.0 is oldest, at the top
    ms = m0(s.stacks)
    assert ms.peek_max(0) == (5.0, 3)
    # expire everything with t < 5: the 5.0@3 top must be skipped
    assert ms.peek_max(5) == (1.0, 9)


def test_iter_desc_sorted_and_alive():
    s, _ = build([(3.0, 9), (5.0, 8), (4.0, 7), (2.0, 6)], 3)
    vals = [e for e in m0(s.stacks).iter_desc(7)]
    assert vals == sorted(vals, reverse=True)
    assert all(t >= 7 for _, t in vals)


def test_needs_at_least_one_stack():
    with pytest.raises(ValueError):
        SAVL(0)


def test_sorted_list_is_one_stack():
    ms = m0([sorted([(3.0, 5), (1.0, 9), (2.0, 7)])])
    assert ms.peek_max(0) == (3.0, 5)
    assert ms.pop_max(0) == (3.0, 5)
    assert ms.pop_max(0) == (2.0, 7)
    assert ms.size(0) == 1


def test_expired_top_over_alive_entry():
    ms = m0([sorted([(3.0, 1), (2.0, 9)])])
    assert ms.size(5) == 1
    # 3.0@1 expired → best alive is 2.0@9
    assert ms.pop_max(5) == (2.0, 9)
    assert ms.pop_max(5) is None


def test_meaningful_set_composes():
    s1, _ = build([(1.0, 9), (4.0, 8)], 1)
    ms = m0(s1.stacks, [sorted([(3.0, 6), (5.0, 5)])])
    assert ms.peek_max(0) == (5.0, 5)
    assert ms.pop_max(0) == (5.0, 5)
    assert ms.pop_max(0) == (4.0, 8)
    vals = list(ms.iter_desc(0))
    assert vals == sorted(vals, reverse=True)
    assert ms.size(0) == 2


def test_meaningful_set_empty():
    ms = m0([], [[]])
    assert ms.pop_max(0) is None
    assert ms.peek_max(0) is None
    assert list(ms.iter_desc(0)) == []
    assert ms.size(0) == 0


_SOURCE = st.one_of(
    # an S-AVL construction: distinct, decreasing t, and a random cap
    st.tuples(
        st.just("savl"),
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(0, 6), max_size=12),
    ),
    # a sorted list (a k-unit summary or an exact skyband): t in any order
    st.tuples(
        st.just("sorted"),
        st.just(0),
        st.lists(st.integers(0, 6), max_size=8),
    ),
)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["pop", "peek", "iter"]),
        st.integers(min_value=0, max_value=4),  # min_t step, ≥ 0
        st.integers(min_value=0, max_value=5),  # how many iter_desc reads
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_SOURCE, max_size=5), _OPS, st.randoms(use_true_random=False))
def test_queries_match_brute_force(sources, ops, rnd):
    """pop_max, peek_max and iter_desc on a mixed M₀ under a rising min_t
    return what a brute force over the alive, not yet popped entries does."""
    ts = list(range(100))
    rnd.shuffle(ts)
    ms, stored = MeaningfulSet(), set()
    for kind, cap, scores in sources:
        fresh = [ts.pop() for _ in scores]
        if kind == "savl":
            s = SAVL(cap)
            for sc, t in zip(scores, sorted(fresh, reverse=True)):
                if s.offer(float(sc), t):
                    stored.add((float(sc), t))
            ms.add(s.stacks)
        else:
            entries = [(float(sc), t) for sc, t in zip(scores, fresh)]
            stored.update(entries)
            ms.add([sorted(entries)])
    min_t = 0
    for op, step, reads in ops:
        min_t += step
        alive = sorted((e for e in stored if e[1] >= min_t), reverse=True)
        best = alive[0] if alive else None
        if op == "pop":
            assert ms.pop_max(min_t) == best
            stored.discard(best)
        elif op == "peek":
            assert ms.peek_max(min_t) == best
        else:
            got = list(islice(ms.iter_desc(min_t), reads))
            assert got == alive[:reads]
        # size counts the alive entries, also those under an expired top
        assert ms.size(min_t) == sum(1 for e in stored if e[1] >= min_t)
