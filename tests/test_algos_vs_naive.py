"""The core correctness matrix: every algorithm × dataset × parameters.

Each streaming algorithm must emit exactly the naive reference's top-k
(ids, in tie-broken order) at every window position. This is the pure-
python half of the correctness story; the Spark tests re-check the same
results against the DuckDB oracle.
"""
import numpy as np
import pytest

from repro.core.query import TopKQuery
from repro.streams.datasets import DATASETS, gen_stream
from repro.streams.runner import run_stream

COMBOS = [
    (60, 1, 1),
    (64, 8, 8),
    (100, 20, 4),
    (100, 5, 50),
    (240, 30, 12),
    (90, 45, 3),
]
ALGOS = [
    ("kskyband", {}),
    ("mintopk", {}),
    ("sma", {}),
    ("sap-equal", {}),
    ("sap-dynamic", {}),
    ("sap-enhanced", {}),
]


def _check(ds, n, k, s, algo, opts, length_mult=4, seed=7):
    q = TopKQuery(n=n, k=k, s=s)
    scores = gen_stream(ds, n * length_mult + 3 * s, seed=seed)
    ref = run_stream("naive", scores, q)
    got = run_stream(algo, scores, q, **opts)
    assert len(ref.results) == len(got.results)
    for j, (a, b) in enumerate(zip(ref.results, got.results)):
        assert np.array_equal(a, b), (
            f"{algo} {opts} mismatch at window {j}: {a} vs {b}"
        )


@pytest.mark.parametrize("algo,opts", ALGOS, ids=[a for a, _ in ALGOS])
@pytest.mark.parametrize("n,k,s", COMBOS)
@pytest.mark.parametrize("ds", DATASETS)
def test_matches_naive(ds, n, k, s, algo, opts):
    _check(ds, n, k, s, algo, opts)


@pytest.mark.parametrize("ds", DATASETS)
@pytest.mark.parametrize(
    "opts",
    [{"m": 3}, {"m": 9}, {"delay": False}, {"use_savl": False},
     {"delay": False, "use_savl": False}],
    ids=["m3", "m9", "nodelay", "nosavl", "nodelay-nosavl"],
)
def test_sap_equal_ablations(ds, opts):
    _check(ds, 120, 10, 4, "sap-equal", opts)


@pytest.mark.parametrize("ds", DATASETS)
@pytest.mark.parametrize(
    "algo", ["sap-dynamic", "sap-enhanced"], ids=["dyn", "enh"]
)
@pytest.mark.parametrize(
    "opts", [{"use_savl": False}, {"delay": False}], ids=["nosavl", "nodelay"]
)
def test_sap_dynamic_ablations(ds, algo, opts):
    _check(ds, 120, 10, 4, algo, opts)


@pytest.mark.parametrize(
    "ds,n,k,s",
    [(ds, 90, 45, 3) for ds in DATASETS]
    + [("TIMER", 600, 20, 1), ("TIMER", 1200, 50, 30)],
)
@pytest.mark.parametrize("delay", [True, False], ids=["delay", "nodelay"])
def test_enhanced_exact_skyband(ds, n, k, s, delay):
    # use_savl=False builds M as the exact skyband of the whole front; a
    # UBSA deep scan on top of it once promoted the same t into C twice
    _check(ds, n, k, s, "sap-enhanced", {"use_savl": False, "delay": delay})


@pytest.mark.parametrize("algo,opts", ALGOS, ids=[a for a, _ in ALGOS])
def test_long_horizon_many_slides(algo, opts):
    # many front-partition turnovers on the adversarial TIMER stream
    _check("TIMER", 200, 10, 2, algo, opts, length_mult=8)


@pytest.mark.parametrize("algo,opts", ALGOS, ids=[a for a, _ in ALGOS])
def test_single_window_stream(algo, opts):
    # stream barely longer than the window: one or two emissions
    _check("TIMEU", 100, 7, 10, algo, opts, length_mult=1)


@pytest.mark.parametrize("kmax_mult", [1, 2, 4])
def test_sma_kmax_variants(kmax_mult):
    _check("STOCK", 120, 10, 4, "sma", {"kmax": 10 * kmax_mult})
