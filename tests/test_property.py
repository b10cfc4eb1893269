"""Hypothesis property tests: all algorithms agree on arbitrary streams."""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.query import TopKQuery
from repro.streams.runner import make_algorithm, run_stream

ALGOS = ("kskyband", "mintopk", "sma", "sap-equal", "sap-dynamic", "sap-enhanced")


@st.composite
def stream_case(draw):
    s = draw(st.sampled_from([1, 2, 4, 8]))
    n_slides = draw(st.integers(min_value=2, max_value=12))
    n = s * n_slides
    k = draw(st.integers(min_value=1, max_value=n))
    extra = draw(st.integers(min_value=0, max_value=10)) * s
    scores = draw(
        st.lists(
            st.floats(
                min_value=-100,
                max_value=100,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=n + extra,
            max_size=n + extra,
        )
    )
    return TopKQuery(n=n, k=k, s=s), np.array(scores, dtype=np.float64)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(stream_case())
def test_all_algorithms_match_naive(case):
    q, scores = case
    ref = run_stream("naive", scores, q)
    for algo in ALGOS:
        got = run_stream(algo, scores, q)
        assert len(got.results) == len(ref.results)
        for a, b in zip(ref.results, got.results):
            assert np.array_equal(a, b), algo


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=3),
        min_size=40,
        max_size=80,
    )
)
def test_heavy_ties(vals):
    # integer scores: massive ties stress the (score desc, t desc) break
    scores = np.array(vals, dtype=np.float64)
    q = TopKQuery(n=20, k=5, s=4)
    ref = run_stream("naive", scores, q)
    for algo in ALGOS:
        got = run_stream(algo, scores, q)
        for a, b in zip(ref.results, got.results):
            assert np.array_equal(a, b), algo


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_monotone_extremes(seed):
    rng = np.random.default_rng(seed)
    base = np.sort(rng.random(60))
    direction = seed % 2 == 0
    scores = base if direction else base[::-1].copy()
    q = TopKQuery(n=24, k=6, s=4)
    ref = run_stream("naive", scores, q)
    for algo in ALGOS:
        got = run_stream(algo, scores, q)
        for a, b in zip(ref.results, got.results):
            assert np.array_equal(a, b), algo


SAP_VARIANTS = [
    ("sap-equal", {}),
    ("sap-dynamic", {}),
    ("sap-enhanced", {}),
    ("sap-enhanced", {"delay": False}),
    ("sap-enhanced", {"use_savl": False}),
]


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(stream_case())
def test_sap_report_is_a_fresh_copy(case):
    """topk() twice per window agrees, and editing a report changes nothing."""
    q, scores = case
    ref = run_stream("naive", scores, q).results
    for name, opts in SAP_VARIANTS:
        algo = make_algorithm(name, q, **opts)
        algo.attach(scores)
        algo.warmup()
        for j, want in enumerate(ref):
            if j:
                algo.slide(j)
            first = algo.topk()
            assert first == list(want), (name, opts, j)
            first.clear()
            first.append(-1)
            assert algo.topk() == list(want), (name, opts, j)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=48, max_size=96),
    st.sampled_from([(24, 3, 8), (24, 5, 4), (48, 4, 8), (32, 8, 16)]),
)
def test_sap_binary_scores(vals, nks):
    # two score levels: nearly every slide batch holds arrivals that tie
    # the rear's k-th score exactly
    scores = np.array(vals, dtype=np.float64)
    q = TopKQuery(*nks)
    ref = run_stream("naive", scores, q)
    for name, opts in SAP_VARIANTS:
        got = run_stream(name, scores, q, **opts)
        for a, b in zip(ref.results, got.results):
            assert np.array_equal(a, b), (name, opts)


def test_ties_at_rear_floor_within_one_batch():
    # partitions [0, 8) and [8, 16) are sealed by warm-up; slide 1 opens
    # the rear with 16..19, whose 3rd-best score (the floor) is 2.0;
    # slide 2 then brings three more 2.0s and a 1.0 in one batch, and the
    # newer 2.0s must push the older ones out
    q = TopKQuery(n=16, k=3, s=4)
    scores = np.array([1, 0, 1, 0, 1, 0, 1, 0, 0, 2, 0, 1, 0, 1, 0, 1,
                       2, 3, 2, 1, 2, 1, 2, 2], dtype=np.float64)
    algo = make_algorithm("sap-equal", q, m=2)
    algo.attach(scores)
    algo.warmup()
    algo.slide(1)
    assert algo.rear.topk == [(2.0, 16), (2.0, 18), (3.0, 17)]
    assert algo.topk() == [17, 18, 16]
    algo.slide(2)  # fills, and so seals, the partition [16, 24)
    assert algo.sealed[-1].topk == [(2.0, 22), (2.0, 23), (3.0, 17)]
    assert algo.topk() == [17, 23, 22]
    ref = run_stream("naive", scores, q).results
    assert [list(r) for r in ref[1:]] == [[17, 18, 16], [17, 23, 22]]
