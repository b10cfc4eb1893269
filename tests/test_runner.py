"""Unit tests for the sequential runner (streams/runner.py)."""
import numpy as np
import pytest

from repro.core.query import TopKQuery
from repro.streams.datasets import gen_stream
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


def test_collect_results_flag():
    q = TopKQuery(n=40, k=4, s=4)
    scores = gen_stream("TIMEU", 120, seed=0)
    with_res = run_stream("sap-equal", scores, q)
    without = run_stream("sap-equal", scores, q, collect_results=False)
    assert len(with_res.results) == q.num_windows(120)
    assert without.results == []
    # metrics are collected either way
    assert without.metrics.windows_sampled == q.num_windows(120)


def test_wall_time_recorded():
    q = TopKQuery(n=40, k=4, s=4)
    scores = gen_stream("STOCK", 200, seed=0)
    r = run_stream("mintopk", scores, q, collect_results=False)
    assert r.metrics.wall_time_s > 0


def test_stream_shorter_than_window_rejected():
    q = TopKQuery(n=100, k=4, s=4)
    with pytest.raises(ValueError):
        run_stream("sap-equal", np.zeros(50), q)


def test_opts_forwarded():
    q = TopKQuery(n=60, k=4, s=4)
    scores = gen_stream("STOCK", 200, seed=0)
    r = run_stream("sap-equal", scores, q, m=3, collect_results=False)
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


def test_windows_past_the_extended_arrivals_rejected():
    q = TopKQuery(n=40, k=4, s=4)
    algo = make_algorithm("sap-enhanced", q)
    algo.extend(gen_stream("TIMEU", 47, seed=0))  # windows 0 and 1
    with pytest.raises(ValueError, match="past the extended arrivals"):
        list(algo.windows(0, 3))


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
    assert a.topk() == run_stream("naive", scores, q).results[2].tolist()
