"""SAP's one-pass slide expiry against the object-by-object drain.

``PerObjectSAP`` keeps SAP's per-object ``_expire`` from before slides
were expired in one pass, driven by its own per-object loop.
Both must emit the same windows, hold the same candidates after every
slide and count the same operations.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateSet
from repro.core.query import TopKQuery
from repro.core.sap import SAP
from repro.streams.datasets import gen_stream
from repro.streams.runner import make_algorithm

from .test_metrics import _SAP_VARIANTS


class PerObjectSAP(SAP):
    """SAP expiring one object at a time (the reference)."""

    def _expire_range(self, lo: int, hi: int) -> None:
        for t in range(lo, hi):
            self._expire(t, float(self.scores[t]))

    def _expire(self, t: int, score: float) -> None:
        front = self.sealed[0] if self.sealed else None
        if front is not None and front.rho is None:
            self._ready_front(front)
        if t == self._report_min_t:
            self._report = None
        if t in self.C:
            self.C.remove(score, t)
            self.metrics.deletions += 1
            self._report = None
            if front is not None and front.m is not None:
                promoted = front.m.pop_max(t + 1)
                if promoted is not None:
                    self.C.insert(promoted[0], promoted[1])
                    self.metrics.insertions += 1
        if front is not None:
            if (
                self.mode == "enhanced"
                and self.use_savl
                and front.m is not None
                and front.labels
            ):
                self._deep_scan(front, t)
            if front.end is not None and t == front.end - 1:
                self.sealed.popleft()
                self._report = None
                if self.tbui is not None:
                    self.tbui.drop_before(front.end)


def _drive(algo: SAP, scores: np.ndarray):
    """Every window's top-k and candidate count, plus the Metrics row."""
    algo.attach(scores)
    out = [(ids, algo.candidate_count()) for ids in algo.windows()]
    row = algo.metrics.as_row()
    del row["wall_time_s"]
    return out, row


def _assert_same(q, scores, mode, delay, use_savl):
    opts = {"mode": mode, "delay": delay, "use_savl": use_savl}
    ref_windows, ref_row = _drive(PerObjectSAP(q, **opts), scores)
    got_windows, got_row = _drive(SAP(q, **opts), scores)
    assert got_windows == ref_windows
    assert got_row == ref_row


@st.composite
def expiry_case(draw):
    s = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 10]))
    n = s * draw(st.integers(min_value=2, max_value=40))
    k = draw(st.integers(min_value=1, max_value=min(n, 30)))
    length = n + s * draw(st.integers(min_value=1, max_value=3 * n // s))
    kind = draw(st.sampled_from(["ties", "binary", "up", "down"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        scores = rng.integers(0, 4, length).astype(np.float64)
    elif kind == "binary":
        scores = (rng.random(length) < rng.random()).astype(np.float64)
    else:
        # monotone with runs of equal scores
        scores = np.cumsum(rng.integers(0, 3, length)).astype(np.float64)
        if kind == "down":
            scores = scores[::-1].copy()
    return TopKQuery(n=n, k=k, s=s), scores


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    expiry_case(),
    st.sampled_from(["equal", "dynamic", "enhanced"]),
    st.booleans(),
    st.booleans(),
)
def test_batched_expiry_matches_per_object(case, mode, delay, use_savl):
    q, scores = case
    _assert_same(q, scores, mode, delay, use_savl)


class _SpySet(CandidateSet):
    """Candidate set that records every single-entry insert."""

    def __init__(self) -> None:
        super().__init__()
        self.inserted: list[int] = []

    def insert(self, score: float, t: int, dom: int = 0) -> None:
        self.inserted.append(t)
        super().insert(score, t, dom)


def test_promotion_expires_in_same_slide():
    # s = 50 and n = 100: a C member's expiry promotes an S-AVL object
    # that expires later in the same slide, so the pass must queue it.
    q = TopKQuery(n=100, k=5, s=50)
    scores = gen_stream("STOCK", 400, seed=0)
    sap = SAP(q, mode="enhanced")
    sap.C = _SpySet()
    sap.attach(scores)
    sap.warmup()
    requeued = 0
    for j in range(1, q.num_windows(len(scores))):
        sap.C.inserted.clear()
        sap.slide(j)
        # inserts during a slide's expiry are promotions
        same = [t for t in sap.C.inserted if (j - 1) * q.s <= t < j * q.s]
        assert all(t not in sap.C for t in same)
        requeued += len(same)
    assert requeued > 0
    _assert_same(q, scores, "enhanced", True, True)


@pytest.mark.parametrize("mode", ["equal", "dynamic", "enhanced"])
@pytest.mark.parametrize("ds", ["STOCK", "TIMER", "TIMEU"])
def test_batched_expiry_matches_per_object_on_datasets(ds, mode):
    # large slides: many C members and deep-scan horizons per slide
    q = TopKQuery(n=600, k=20, s=60)
    _assert_same(q, gen_stream(ds, 2400, seed=3), mode, True, True)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(expiry_case())
def test_cand_ts_heap_holds_each_alive_c_member(case):
    """After every slide, each sealed partition's ``cand_ts`` is a min-heap
    whose entries still in C are exactly its alive C members, once each:
    the quiet-expiry horizon reads the front's oldest one off its top."""
    q, scores = case
    for algo, opts in _SAP_VARIANTS.values():
        sap = make_algorithm(algo, q, **opts)
        sap.attach(scores)
        for _ in sap.windows():
            for part in sap.sealed:
                ts = part.cand_ts
                assert all(ts[(i - 1) // 2] <= ts[i] for i in range(1, len(ts)))
                held = [t for t in ts if t in sap.C]
                members = [
                    t for _, t in sap.C.iter_desc()
                    if max(part.start, sap.window_start) <= t < part.end
                ]
                assert sorted(held) == sorted(members)
