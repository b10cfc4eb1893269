"""Unit tests for the sequential runner (streams/runner.py)."""
import numpy as np
import pytest

from repro.core.naive import all_windows_topk
from repro.core.query import TopKQuery
from repro.streams.datasets import gen_stream
from repro.streams.incremental import IncrementalDriver
from repro.streams.runner import ALGORITHMS, make_algorithm, run_stream


def test_unknown_algorithm_rejected():
    with pytest.raises(KeyError):
        make_algorithm("nope", TopKQuery(n=10, k=2, s=2))


def test_registry_names():
    assert set(ALGORITHMS) == {
        "kskyband",
        "mintopk",
        "sma",
        "sap-equal",
        "sap-dynamic",
        "sap-enhanced",
    }


def test_run_stream_emits_one_block():
    q = TopKQuery(n=40, k=4, s=4)
    scores = gen_stream("TIMEU", 120, seed=0)
    r = run_stream("sap-equal", scores, q)
    assert r.results.dtype == np.int64
    assert r.results.shape == (q.num_windows(120), q.k)
    np.testing.assert_array_equal(r.results, all_windows_topk(scores, q))
    # one candidate-count sample per emitted window
    assert r.metrics.windows_sampled == q.num_windows(120)


def test_wall_time_recorded():
    q = TopKQuery(n=40, k=4, s=4)
    scores = gen_stream("STOCK", 200, seed=0)
    r = run_stream("mintopk", scores, q)
    assert r.metrics.wall_time_s > 0


def test_stream_shorter_than_window_rejected():
    q = TopKQuery(n=100, k=4, s=4)
    with pytest.raises(ValueError):
        run_stream("sap-equal", np.zeros(50), q)


def test_opts_forwarded():
    q = TopKQuery(n=60, k=4, s=4)
    scores = gen_stream("STOCK", 200, seed=0)
    r = run_stream("sap-equal", scores, q, m=3)
    # m=3 → partitions of ~n/3, so roughly 200/20 = 10 seals
    assert r.metrics.partitions_sealed >= 5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_non_finite_scores_rejected_at_attach(algo, bad):
    q = TopKQuery(n=40, k=4, s=4)
    scores = gen_stream("TIMEU", 120, seed=0)
    scores[77] = bad
    with pytest.raises(ValueError, match="finite"):
        make_algorithm(algo, q).attach(scores)
    with pytest.raises(ValueError, match="finite"):
        run_stream(algo, scores, q)


@pytest.mark.parametrize(
    "algo, opts",
    [
        ("kskyband", {"delay": False}),
        ("mintopk", {"m": 3}),
        ("sma", {"use_savl": False}),
        ("sap-equal", {"mode": "dynamic"}),
        ("sap-dynamic", {"m": 3}),
        ("sap-enhanced", {"m": 3}),
    ],
)
def test_unknown_options_rejected(algo, opts):
    with pytest.raises(TypeError):
        make_algorithm(algo, TopKQuery(n=40, k=4, s=4), **opts)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_windows_resumes_after_the_last_emitted_window(algo):
    q = TopKQuery(n=40, k=4, s=4)
    scores = gen_stream("TIMEU", 120, seed=0)
    a = make_algorithm(algo, q)
    a.extend(scores[:47])  # windows 0 and 1
    got = list(a.windows())
    assert list(a.windows()) == []  # nothing new extended
    a.extend(scores[47:])
    got += a.windows()
    assert got == all_windows_topk(scores, q).tolist()
    assert a.metrics.windows_sampled == q.num_windows(120)


@pytest.mark.parametrize("shape", [(), (60, 2)], ids=["0-d", "2-d"])
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_chunk_that_is_not_1d_rejected(algo, shape):
    # a 2-D stream used to fail deep inside the algorithms and a 0-d
    # chunk to break the driver's next feed
    q = TopKQuery(n=40, k=4, s=4)
    bad = np.random.default_rng(0).random(shape)
    a = make_algorithm(algo, q)
    with pytest.raises(ValueError, match="1-D"):
        a.attach(bad)
    assert len(a.scores) == 0
    with pytest.raises(ValueError, match="1-D"):
        run_stream(algo, bad, q)
    drv = IncrementalDriver(algo, q)
    with pytest.raises(ValueError, match="1-D"):
        drv.feed(bad)
    assert len(drv.algo.scores) == 0
    # nothing was taken, so feeding goes on
    scores = gen_stream("TIMEU", 60, seed=0)
    rows = drv.feed(scores)
    np.testing.assert_array_equal(
        rows["t"].reshape(-1, q.k), all_windows_topk(scores, q)
    )


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_slide_must_step_to_the_next_window(algo):
    # slide(2), slide(4), … used to report expired objects without an
    # error, and slide(1) before warmup() gave the baselines a wrong
    # top-k and SAP a bare IndexError
    q = TopKQuery(n=240, k=10, s=4)
    scores = gen_stream("TIMER", 1200, seed=7)
    a = make_algorithm(algo, q)
    a.attach(scores)
    skipped = "does not step to the next window"
    with pytest.raises(ValueError, match=skipped):
        a.slide(1)
    a.warmup()
    for j in (0, -1, 2, 1 - q.n // q.s):
        with pytest.raises(ValueError, match=skipped):
            a.slide(j)
    a.slide(1)
    for j in (1, 3):
        with pytest.raises(ValueError, match=skipped):
            a.slide(j)
    a.slide(2)
    assert a.topk() == all_windows_topk(scores, q)[2].tolist()
