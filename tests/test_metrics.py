"""Unit tests for metrics + the paper's complexity bounds on real runs."""
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import METRIC_COLUMNS, Metrics
from repro.core.query import TopKQuery
from repro.streams.datasets import DATASETS, gen_stream
from repro.streams.runner import make_algorithm, run_stream


def test_memory_model():
    m = Metrics()
    m.sample(100)
    m.sample(100)
    assert m.memory_kb == pytest.approx(100 * 32 / 1024)
    m.counter_entries_flag = True
    assert m.memory_kb == pytest.approx(100 * 40 / 1024)
    m.overhead_pointers = 128
    assert m.memory_kb == pytest.approx((100 * 40 + 128 * 8) / 1024)


def test_empty_metrics():
    m = Metrics()
    assert m.avg_candidates == 0.0
    assert m.peak_candidates == 0
    assert m.memory_kb == 0.0


def test_as_row_covers_metric_columns():
    row = Metrics().as_row()
    assert set(row) == set(METRIC_COLUMNS)


@pytest.mark.parametrize("ds", DATASETS)
def test_sap_candidate_bound(ds):
    """|C ∪ M₀| stays within the paper's O(k·√(n/max(s,k))) bound."""
    q = TopKQuery(n=400, k=10, s=4)
    scores = gen_stream(ds, 2000, seed=1)
    r = run_stream("sap-enhanced", scores, q)
    bound = q.k * math.sqrt(q.n / max(q.s, q.k))
    # constant factor: the bound is per-partition k + the M set; allow 4×
    assert r.metrics.peak_candidates <= 4 * bound + 4 * q.k


@pytest.mark.parametrize("ds", DATASETS)
def test_mintopk_candidate_bound(ds):
    """MinTopK's |C| ≤ nk/max(s,k) (paper §2.1)."""
    q = TopKQuery(n=400, k=10, s=4)
    scores = gen_stream(ds, 2000, seed=1)
    r = run_stream("mintopk", scores, q)
    assert r.metrics.peak_candidates <= q.n * q.k / max(q.s, q.k)


def test_sap_beats_mintopk_on_candidates():
    q = TopKQuery(n=400, k=10, s=4)
    for ds in DATASETS:
        scores = gen_stream(ds, 2000, seed=2)
        sap = run_stream("sap-enhanced", scores, q)
        mtk = run_stream("mintopk", scores, q)
        assert sap.metrics.avg_candidates < mtk.metrics.avg_candidates


def test_sma_rescans_counted():
    q = TopKQuery(n=200, k=10, s=2)
    # declining stream forces SMA re-scans (the paper's Fig. 1a case)
    scores = gen_stream("TIMER", 1000, seed=0)
    r = run_stream("sma", scores, q)
    assert r.metrics.rescans > 1
    assert r.metrics.rescan_examined > 0


def test_delay_policy_reduces_m_formations():
    q = TopKQuery(n=400, k=10, s=4)
    scores = gen_stream("STOCK", 2000, seed=3)
    eager = run_stream("sap-equal", scores, q, delay=False)
    lazy = run_stream("sap-equal", scores, q)
    assert lazy.metrics.m_formations <= eager.metrics.m_formations


# Parent-commit counts on one fixed TIMER stream: they feed Tables 6–9,
# so a container change must reproduce them exactly.
_PINNED_BASELINE_ROWS = {
    "kskyband": (1200, 1076, 8251, 0, 0, 99.97510373443983, 3.9052774896265556),
    "mintopk": (1200, 1076, 9106, 0, 0, 99.58921161825727, 3.5809128630705396),
    "sma": (962, 635, 5040, 11, 330, 48.29875518672199, 1.8866701244813278),
}


@pytest.mark.parametrize("algo", sorted(_PINNED_BASELINE_ROWS))
def test_baseline_metrics_pinned(algo):
    q = TopKQuery(n=240, k=10, s=4)
    scores = gen_stream("TIMER", 1200, seed=7)
    row = run_stream(algo, scores, q).metrics.as_row()
    cols = ("insertions", "deletions", "examined", "rescans",
            "rescan_examined", "avg_candidates", "memory_kb")
    assert tuple(row[c] for c in cols) == pytest.approx(
        _PINNED_BASELINE_ROWS[algo], rel=1e-12
    )


# The same stream for SAP: slide-batched ingest and the report cache must
# not move an op count (they feed Tables 2/3/6/8). Values from the
# per-object implementation; the enhanced use_savl=False row was re-taken
# after that variant stopped deep-scanning its exact skyband, and reads
# the same on this stream.
_PINNED_SAP_ROWS = {
    "equal": ("sap-equal", {}, (
        442, 412, 944, 8, 0, 25, 39.41078838174274, 1.2315871369294606)),
    "dynamic": ("sap-dynamic", {}, (
        432, 412, 1074, 8, 0, 24, 36.92116182572614, 1.1537863070539418)),
    "enhanced": ("sap-enhanced", {}, (
        432, 412, 1074, 8, 0, 24, 36.92116182572614, 1.1537863070539418)),
    "enhanced-nodelay": ("sap-enhanced", {"delay": False}, (
        506, 486, 1682, 24, 0, 24, 46.70539419087137, 1.4595435684647302)),
    "enhanced-nosavl": ("sap-enhanced", {"use_savl": False}, (
        432, 412, 1458, 8, 0, 24, 36.68879668049792, 1.14652489626556)),
}


@pytest.mark.parametrize("variant", sorted(_PINNED_SAP_ROWS))
def test_sap_metrics_pinned(variant):
    algo, opts, expected = _PINNED_SAP_ROWS[variant]
    q = TopKQuery(n=240, k=10, s=4)
    scores = gen_stream("TIMER", 1200, seed=7)
    row = run_stream(algo, scores, q, **opts).metrics.as_row()
    cols = ("insertions", "deletions", "examined", "m_formations",
            "units_skipped", "partitions_sealed", "avg_candidates", "memory_kb")
    assert tuple(row[c] for c in cols) == pytest.approx(expected, rel=1e-12)


# sha256 of every window emitted on three fixed streams (STOCK, TIMER,
# TIMEU; n=240 k=10 s=4), taken before slides were expired as one batch.
# Every SAP variant must reproduce it: a speed-up that changes an emitted
# top-k fails here.
_PINNED_WINDOWS_SHA256 = (
    "2e882f06dbaf0d4e09753a7fa146c4f48909117e2eb88a14bea44aaa394357d6"
)
_SAP_VARIANTS = {
    mode + ("" if delay else "-nodelay") + ("" if savl else "-nosavl"): (
        f"sap-{mode}", {"delay": delay, "use_savl": savl})
    for mode, delay, savl in itertools.product(
        ("equal", "dynamic", "enhanced"), (True, False), (True, False))
}


@pytest.mark.parametrize("variant", sorted(_SAP_VARIANTS))
def test_sap_windows_pinned(variant):
    algo, opts = _SAP_VARIANTS[variant]
    q = TopKQuery(n=240, k=10, s=4)
    h = hashlib.sha256()
    for ds in ("STOCK", "TIMER", "TIMEU"):
        r = run_stream(algo, gen_stream(ds, 1200, seed=7), q, **opts)
        h.update(ds.encode())
        for w in r.results:
            h.update((",".join(map(str, w.tolist())) + "\n").encode())
    assert h.hexdigest() == _PINNED_WINDOWS_SHA256


def test_sample_keeps_mean_and_peak():
    m = Metrics()
    for count in (3, 7, 5):
        m.sample(count)
    assert (m.windows_sampled, m.avg_candidates, m.peak_candidates) == (3, 5.0, 7)


# A high-speed shape, s > k: every slide's arrivals are a run longer than
# k, and M formations and UBSA deep scans cover whole 240-object units.
# Rows and windows of every SAP variant, taken before long ranges were
# scanned with numpy (a run cut to its own top-k, a scan prefiltered at
# Fθ, TBUI τ raises in growing windows).
_HS_Q = TopKQuery(n=1200, k=10, s=60)
_PINNED_SAP_ROWS_HIGH_SPEED = {
    "equal": (1120, 1091, 1452, 4, 0, 20, 58.14754098360656, 230, 1.817110655737705),
    "equal-nosavl": (1120, 1091, 2412, 4, 0, 20, 58.14754098360656, 230, 1.817110655737705),
    "equal-nodelay": (1120, 1091, 5132, 20, 0, 20, 116.67213114754098, 280, 3.6460040983606556),
    "equal-nodelay-nosavl": (1120, 1091, 9932, 20, 0, 20, 111.91803278688525, 280, 3.497438524590164),
    "dynamic": (1110, 1091, 1557, 4, 0, 19, 56.540983606557376, 220, 1.766905737704918),
    "dynamic-nosavl": (1110, 1091, 2517, 4, 0, 19, 56.540983606557376, 220, 1.766905737704918),
    "dynamic-nodelay": (1570, 1551, 5007, 19, 0, 19, 115.06557377049181, 280, 3.595799180327869),
    "dynamic-nodelay-nosavl": (1570, 1551, 9567, 19, 0, 19, 110.31147540983606, 280, 3.447233606557377),
    "enhanced": (1110, 1091, 5664, 4, 0, 19, 56.540983606557376, 220, 1.766905737704918),
    "enhanced-nosavl": (1110, 1091, 6624, 4, 0, 19, 56.540983606557376, 220, 1.766905737704918),
    "enhanced-nodelay": (1110, 1091, 8424, 19, 2, 19, 88.18032786885246, 280, 2.7556352459016393),
    "enhanced-nodelay-nosavl": (1570, 1551, 13674, 19, 0, 19, 110.31147540983606, 280, 3.447233606557377),
}
_PINNED_WINDOWS_SHA256_HIGH_SPEED = (
    "1bb03b760ed980a658d4bef6ab5719a021123e5eef0d251047b199545f5dd042"
)


@pytest.mark.parametrize("variant", sorted(_SAP_VARIANTS))
def test_sap_metrics_pinned_high_speed(variant):
    algo, opts = _SAP_VARIANTS[variant]
    scores = gen_stream("TIMER", 4800, seed=7)
    row = run_stream(algo, scores, _HS_Q, **opts).metrics.as_row()
    cols = ("insertions", "deletions", "examined", "m_formations",
            "units_skipped", "partitions_sealed", "avg_candidates",
            "peak_candidates", "memory_kb")
    assert tuple(row[c] for c in cols) == pytest.approx(
        _PINNED_SAP_ROWS_HIGH_SPEED[variant], rel=1e-12
    )


@pytest.mark.parametrize("variant", sorted(_SAP_VARIANTS))
def test_sap_windows_pinned_high_speed(variant):
    algo, opts = _SAP_VARIANTS[variant]
    h = hashlib.sha256()
    for ds in ("STOCK", "TIMER", "TIMEU"):
        r = run_stream(algo, gen_stream(ds, 4800, seed=7), _HS_Q, **opts)
        h.update(ds.encode())
        for w in r.results:
            h.update((",".join(map(str, w.tolist())) + "\n").encode())
    assert h.hexdigest() == _PINNED_WINDOWS_SHA256_HIGH_SPEED


@st.composite
def _count_case(draw):
    s = draw(st.sampled_from([1, 2, 3, 5, 8]))
    n = s * draw(st.integers(min_value=2, max_value=30))
    k = draw(st.integers(min_value=1, max_value=min(n, 12)))
    length = n + s * draw(st.integers(min_value=1, max_value=3 * n // s))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ties", "random", "up", "down"]))
    if kind == "ties":
        scores = rng.integers(0, 4, length).astype(np.float64)
    elif kind == "random":
        scores = rng.random(length)
    else:
        scores = np.cumsum(rng.integers(0, 3, length)).astype(np.float64)
        if kind == "down":
            scores = scores[::-1].copy()
    return TopKQuery(n=n, k=k, s=s), scores


@settings(max_examples=100, deadline=None)
@given(_count_case(), st.sampled_from(sorted(_SAP_VARIANTS)))
def test_sap_candidate_count_is_alive_entries(case, variant):
    """candidate_count() is the number of distinct alive objects held in
    C ∪ P_rear^k ∪ M_0 after every window, expired ones under an alive
    M_0 top left out."""
    q, scores = case
    algo_name, opts = _SAP_VARIANTS[variant]
    algo = make_algorithm(algo_name, q, **opts)
    algo.attach(scores)
    for _ in algo.windows():
        m = algo.sealed[0].m if algo.sealed else None
        held = [t for _, t in algo.C.iter_desc()] + [t for _, t in algo.rear.topk]
        held += [t for st_ in (m.stacks if m else []) for _, t in st_]
        alive = {t for t in held if t >= algo.window_start}
        assert algo.candidate_count() == len(alive)
