"""Unit tests for the candidate set with refine-on-merge (core/candidates.py)."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateSet


def test_insert_contains_remove():
    c = CandidateSet()
    c.insert(1.0, 5)
    assert 5 in c and 6 not in c
    assert c.remove(1.0, 5)
    assert not c.remove(1.0, 5)
    assert len(c) == 0


def test_merge_increments_dominance_and_refines():
    c = CandidateSet()
    # existing candidates (older): scores 1..4
    for i in range(1, 5):
        c.insert(float(i), i)
    # merge a newer partition's top-2 {10, 3.5}: entry 1,2,3 dominated
    # by 10 and additionally 1,2,3 < 3.5 → dom 2 ≥ k=2 → refined away
    ins, refined = c.merge_topk([(10.0, 100), (3.5, 99)], k=2)
    assert ins == 2
    assert refined == 3
    remaining = {t for _, t in c.iter_desc()}
    assert remaining == {4, 99, 100}


def test_merge_partial_domination_keeps_entries():
    c = CandidateSet()
    for i in range(1, 5):
        c.insert(float(i), i)
    ins, refined = c.merge_topk([(2.5, 100)], k=2)
    assert ins == 1 and refined == 0
    # entries 1, 2 each have dom 1 now; one more domination kills them
    _, refined2 = c.merge_topk([(2.6, 101)], k=2)
    assert refined2 == 2


def test_iter_desc_order():
    c = CandidateSet()
    for sc, t in [(1.0, 1), (3.0, 2), (2.0, 3)]:
        c.insert(sc, t)
    assert [sc for sc, _ in c.iter_desc()] == [3.0, 2.0, 1.0]


def test_top_desc():
    c = CandidateSet()
    for sc, t in [(1.0, 1), (3.0, 2), (2.0, 3)]:
        c.insert(sc, t)
    assert c.top_desc(2) == [(3.0, 2), (2.0, 3)]
    assert c.top_desc(0) == []


def test_rho_counts_later_higher_candidates():
    c = CandidateSet()
    for sc, t in [(5.0, 10), (4.0, 20), (3.0, 30), (6.0, 40)]:
        c.insert(sc, t)
    # threshold 3.5, partition ends at t=20 → later candidates with
    # score > 3.5 and t >= 20: (4.0,20) and (6.0,40)
    assert c.rho(3.5, 20) == 2
    assert c.rho(10.0, 0) == 0


def test_kth_highest_excluding():
    c = CandidateSet()
    for sc, t in [(5.0, 1), (4.0, 11), (3.0, 21), (2.0, 31)]:
        c.insert(sc, t)
    # exclude partition t∈[10,20) → remaining scores 5,3,2 (+extras)
    assert c.kth_highest_excluding(2, 10, 20, []) == 3.0
    assert c.kth_highest_excluding(2, 10, 20, [(4.5, 99)]) == 4.5
    assert c.kth_highest_excluding(9, 10, 20, []) == float("-inf")


def test_merge_into_empty():
    c = CandidateSet()
    ins, refined = c.merge_topk([(2.0, 5), (1.0, 6)], k=3)
    assert ins == 2 and refined == 0
    assert len(c) == 2


def test_merge_empty_list():
    c = CandidateSet()
    c.insert(1.0, 1)
    assert c.merge_topk([], k=2) == (0, 0)
    assert len(c) == 1


def test_equal_scores_ordered_by_t():
    c = CandidateSet()
    for t in (5, 2, 9):
        c.insert(1.0, t)
    assert [t for _, t in c.iter_desc()] == [9, 5, 2]


def test_top_desc_tiebreak_newer_first():
    c = CandidateSet()
    for sc, t in [(1.0, 1), (2.0, 2), (2.0, 3), (3.0, 4)]:
        c.insert(sc, t)
    assert c.top_desc(3) == [(3.0, 4), (2.0, 3), (2.0, 2)]


def test_remove_absent_keeps_set():
    c = CandidateSet()
    c.insert(1.5, 7)
    assert not c.remove(1.5, 8)
    assert len(c) == 1 and 7 in c


def test_dominate_below_is_strict():
    c = CandidateSet()
    for sc, t in [(1.0, 1), (2.0, 2), (2.0, 3), (3.0, 4)]:
        c.insert(sc, t)
    # equal-scored entries are not dominated (paper's dominance is strict)
    assert c.dominate_below(2.0, k=5) == (1, 0)
    assert c.dominate_below(3.5, k=5) == (4, 0)
    assert c.dominate_below(0.5, k=5) == (0, 0)


def test_dominate_below_counts_strictly_lower():
    c = CandidateSet()
    for sc, t in [(1.0, 1), (2.0, 2), (2.0, 3), (3.0, 4)]:
        c.insert(sc, t)
    # the counts match how many stored scores lie strictly below the bound
    assert c.dominate_below(2.0, k=10)[0] == 1
    assert c.dominate_below(3.0, k=10)[0] == 3
    assert c.dominate_below(3.5, k=10)[0] == 4
    assert len(c) == 4


def test_dominate_below_noop():
    c = CandidateSet()
    c.insert(1.0, 1)
    assert c.dominate_below(1.0, k=2) == (0, 0)
    assert c.dominate_below(0.0, k=1) == (0, 0)
    assert len(c) == 1 and 1 in c


def test_insert_keeps_sorted():
    c = CandidateSet()
    for sc, t in [(3.0, 1), (1.0, 2), (2.0, 3)]:
        c.insert(sc, t)
    assert list(c.iter_desc()) == [(3.0, 1), (2.0, 3), (1.0, 2)]
    c.insert(1.5, 4)
    assert list(c.iter_desc()) == [(3.0, 1), (2.0, 3), (1.5, 4), (1.0, 2)]


def test_dominate_below_evicts_at_k():
    c = CandidateSet()
    for i in range(5):
        c.insert(float(i), i)
    # two dominations of the lowest 3 entries with k=2 evicts them
    assert c.dominate_below(2.5, k=2) == (3, 0)
    assert c.dominate_below(2.5, k=2) == (3, 3)
    assert list(c.iter_desc()) == [(4.0, 4), (3.0, 3)]
    assert 0 not in c and not c.remove(0.0, 0)


def test_dominate_below_counts_initial_dom():
    c = CandidateSet()
    c.insert(1.0, 1, dom=1)
    c.insert(1.5, 2)
    assert c.dominate_below(2.0, k=2) == (2, 1)
    assert list(c.iter_desc()) == [(1.5, 2)]


@st.composite
def merge_case(draw):
    """Older entries with counters below k, and a newer partition's top-k
    (possibly fewer than k entries), over a few tied score levels."""
    k = draw(st.integers(min_value=1, max_value=6))
    level = st.integers(min_value=0, max_value=5).map(float)
    old = draw(st.lists(st.tuples(level, st.integers(0, k - 1)), max_size=25))
    new = draw(st.lists(level, min_size=0, max_size=k))
    entries = [(sc, t, dom) for t, (sc, dom) in enumerate(old)]
    new_desc = sorted(((sc, len(old) + i) for i, sc in enumerate(new)), reverse=True)
    return k, entries, new_desc


@settings(max_examples=300, deadline=None)
@given(merge_case())
def test_merge_topk_matches_dominance_recount(case):
    """The band-limited merge equals counting, for every older entry, the
    new entries that outscore it (ties at the new k-th and best scores,
    partitions with fewer than k entries)."""
    k, entries, new_desc = case
    c = CandidateSet()
    for sc, t, dom in entries:
        c.insert(sc, t, dom=dom)
    kept, refined = {}, 0
    for sc, t, dom in entries:
        d = dom + sum(1 for nsc, _ in new_desc if nsc > sc)
        if d >= k:
            refined += 1
        else:
            kept[t] = (sc, d)
    kept.update({t: (sc, 0) for sc, t in new_desc})
    assert c.merge_topk(new_desc, k) == (len(new_desc), refined)
    assert list(c.iter_desc())[::-1] == sorted((sc, t) for t, (sc, _) in kept.items())
    assert c._dom == {t: d for t, (_, d) in kept.items()}
