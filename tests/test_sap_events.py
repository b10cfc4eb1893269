"""SAP's event-driven hooks against the per-slide work they replace.

SAP's two hooks return at once on a slide that cannot change anything,
TBUI labels each unit whole when it ends, and a split reads its halves'
top-k off the rear's top-k when the last unit began and off the unit
itself. ``PerSlideSAP`` keeps the per-slide form: every slide's arrivals
are merged into per-unit top-k lists and fed to a pure-Python TBUI
tracker, and every slide's expiries are scanned for C members. Both must
emit the same windows, hold the same candidates after every slide and
count the same operations. The report SAP keeps across slides and the
lookahead behind its arrival horizon are checked against a report
recomputed every window and against the naive top-k.
"""
import heapq

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.naive import all_windows_topk
from repro.core.query import TopKQuery
from repro.core.sap import SAP, SAPPartition
from repro.streams.datasets import gen_stream
from repro.streams.incremental import IncrementalDriver
from repro.streams.runner import run_stream

from .test_sap_expiry import _drive
from .test_tbui import PythonRunTBUI


class PerSlideSAP(SAP):
    """SAP doing its arrival and expiry work on every slide (the reference)."""

    def __init__(self, q, **opts):
        super().__init__(q, **opts)
        self._unit_topks = []
        self._cur_unit_topk = []
        if self.tbui is not None:
            self.tbui = PythonRunTBUI(q.k, self.u_len, self.metrics)

    def _ingest_range(self, lo, hi):
        k = self.q.k
        equal = self.mode == "equal"
        while lo < hi:
            rear = self.rear
            stop = self._next_boundary(lo)
            end = min(hi, stop)
            run = self.scores[lo:end].tolist()
            if self.tbui is not None:
                self.tbui.ingest_run(lo, run)
            top = rear.topk
            floor = top[0][0] if len(top) == k else -float("inf")
            if equal:
                unit, low = None, floor
            else:
                unit = self._cur_unit_topk
                low = unit[0][0] if len(unit) == k else -float("inf")
            if max(run) >= low:
                new = [(sc, t) for t, sc in enumerate(run, lo) if sc >= low]
                if unit is not None:
                    unit += new
                    unit.sort()
                    del unit[:-k]
                    new = [e for e in new if e[0] >= floor]
                if new:
                    top += new
                    top.sort()
                    del top[:-k]
                    self._report = None
            lo = end
            if end == stop:
                self._at_boundary(end)

    def _at_boundary(self, end):
        size = end - self.rear.start
        if self.mode == "equal" or size == self.q.n:
            self._seal(end)
            return
        self._unit_topks.append(self._cur_unit_topk)
        self._cur_unit_topk = []
        units = size // self.u_len
        if units >= 2 and (units > self.max_units or self._wrt_improper(end)):
            self._split_seal(end)

    def _seal(self, end):
        super()._seal(end)
        self._unit_topks = []
        self._cur_unit_topk = []

    def _split_seal(self, end):
        split = end - self.u_len
        sealed = SAPPartition(self.rear.start)
        sealed.end = split
        older = [e for lst in self._unit_topks[:-1] for e in lst]
        older.sort()
        sealed.topk = older[-self.q.k :]
        self.metrics.examined += len(older)
        self._finalize(sealed)
        fresh = SAPPartition(split)
        fresh.topk = list(self._unit_topks[-1])
        self.rear = fresh
        self._unit_topks = [self._unit_topks[-1]]

    def _expire_range(self, lo, hi):
        front = self.sealed[0]
        if not front.prepared:
            self._ready_front(front)
        if lo <= self._report_min_t < hi:
            self._report = None
        C, m, scores = self.C, front.m, self.scores
        gone = [t for t in range(lo, hi) if t in C]
        labels = (
            front.labels
            if m is not None and self.mode == "enhanced" and self.use_savl
            else None
        )
        while True:
            t = gone[0] if gone else hi
            if labels and front.deep_idx < len(labels):
                drain_t = max(lo, labels[front.deep_idx].start - self.u_len)
                if drain_t < t:
                    self._deep_scan(front, drain_t)
                    continue
            if t == hi:
                break
            heapq.heappop(gone)
            C.remove(float(scores[t]), t)
            self.metrics.deletions += 1
            self._report = None
            if m is not None:
                promoted = m.pop_max(t + 1)
                if promoted is not None:
                    C.insert(promoted[0], promoted[1])
                    self.metrics.insertions += 1
                    if promoted[1] < hi:
                        heapq.heappush(gone, promoted[1])
        if hi == front.end:
            self.sealed.popleft()
            self._report = None
            if self.tbui is not None:
                self.tbui.drop_before(hi)


def _assert_same(q, scores, mode, delay, use_savl):
    opts = {"mode": mode, "delay": delay, "use_savl": use_savl}
    ref_windows, ref_row = _drive(PerSlideSAP(q, **opts), scores)
    got_windows, got_row = _drive(SAP(q, **opts), scores)
    assert got_windows == ref_windows
    assert got_row == ref_row


def _stream(kind, length, rng):
    if kind == "ties":
        return rng.integers(0, 4, length).astype(np.float64)
    if kind == "binary":
        return (rng.random(length) < rng.random()).astype(np.float64)
    if kind == "uniform":
        return rng.random(length)
    # monotone with runs of equal scores
    up = np.cumsum(rng.integers(0, 3, length)).astype(np.float64)
    return up if kind == "up" else up[::-1].copy()


@st.composite
def event_case(draw):
    s = draw(st.sampled_from([1, 2, 3, 4, 5, 8]))
    n = s * draw(st.integers(min_value=2, max_value=40))
    k = draw(st.integers(min_value=1, max_value=min(n, 45)))
    length = n + s * draw(st.integers(min_value=1, max_value=3 * n // s))
    kind = draw(st.sampled_from(["ties", "binary", "uniform", "up", "down"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return TopKQuery(n=n, k=k, s=s), _stream(kind, length, rng)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    event_case(),
    st.sampled_from(["equal", "dynamic", "enhanced"]),
    st.booleans(),
    st.booleans(),
)
# n is not a multiple of the unit (63): hard-cap seals end mid-unit, and
# TBUI units no longer line up with SAP's
@example((TopKQuery(n=90, k=45, s=3), gen_stream("STOCK", 600, seed=1)),
         "enhanced", True, True)
# a reported M_0 object expires in a slide in which no C member does
@example((TopKQuery(n=140, k=1, s=4),
          _stream("down", 400, np.random.default_rng(3910049433))),
         "enhanced", True, True)
def test_event_driven_hooks_match_per_slide_work(case, mode, delay, use_savl):
    q, scores = case
    _assert_same(q, scores, mode, delay, use_savl)


@pytest.mark.parametrize("mode", ["equal", "dynamic", "enhanced"])
@pytest.mark.parametrize("ds", ["STOCK", "TIMER", "TIMEU"])
@pytest.mark.parametrize("q", [
    TopKQuery(n=600, k=20, s=6),
    TopKQuery(n=90, k=45, s=3),
    # three-unit partitions: UBSA deep scans fall between other events
    TopKQuery(n=1200, k=4, s=2),
], ids=["n600", "n90", "n1200"])
def test_event_driven_hooks_match_per_slide_work_on_datasets(q, ds, mode):
    for delay in (True, False):
        _assert_same(q, gen_stream(ds, 8 * q.n, seed=3), mode, delay, True)


@pytest.mark.parametrize("variant", [
    ("sap-equal", {}), ("sap-dynamic", {}), ("sap-enhanced", {}),
    ("sap-enhanced", {"delay": False}), ("sap-enhanced", {"use_savl": False}),
])
@pytest.mark.parametrize("ds", ["STOCK", "TIMER", "TIMEU"])
@pytest.mark.parametrize("chunk", [4, 7], ids=["one-slide", "7-objects"])
def test_driver_fed_one_slide_at_a_time_matches_attach(variant, ds, chunk):
    # the arrival horizon stops at the arrivals extended so far
    algo, opts = variant
    q = TopKQuery(n=240, k=10, s=4)
    scores = gen_stream(ds, 2400, seed=5)
    drv = IncrementalDriver(algo, q, **opts)
    rows = drv.feed(scores[: q.n]).tolist()
    for lo in range(q.n, len(scores), chunk):
        rows += drv.feed(scores[lo : lo + chunk]).tolist()
    whole = run_stream(algo, scores, q, **opts)
    assert [t for _, _, t, _ in rows] == [int(t) for w in whole.results for t in w]
    fed = drv.algo.metrics.as_row()
    ref = whole.metrics.as_row()
    del fed["wall_time_s"], ref["wall_time_s"]
    assert fed == ref


# -- the report cache and the arrival lookahead -----------------------------

VARIANTS = [
    (mode, delay, use_savl)
    for mode in ("equal", "dynamic", "enhanced")
    for delay in (True, False)
    for use_savl in (True, False)
]


def _kth_stream(q, length, seed, segments):
    """Integer-level scores whose segments tie with the running k-th score.

    After a random first window, each ``(kind, run)`` segment appends
    ``run`` arrivals: ``plateau`` repeats the k-th best score of the last
    ``n`` arrivals as it stood when the segment began, ``kth`` follows
    that k-th score arrival by arrival, ``low`` stays under every earlier
    score (so seals, splits, M formations and deep scans go on while the
    reported objects stay put), ``high`` beats everything, and ``noise``
    draws from the first window's levels.
    """
    rng = np.random.default_rng(seed)
    out = rng.integers(0, 6, q.n).astype(np.float64).tolist()
    low = -1.0
    for kind, run in segments:
        if kind == "plateau":
            out += [sorted(out[-q.n :])[-q.k]] * run
        elif kind == "kth":
            for _ in range(run):
                out.append(sorted(out[-q.n :])[-q.k])
        elif kind == "low":
            low -= 1.0
            out += [low] * run
        elif kind == "high":
            out += [max(out[-q.n :]) + 1.0] * run
        else:
            out += rng.integers(0, 6, run).astype(np.float64).tolist()
    out += [out[-1]] * max(0, length - len(out))
    return np.asarray(out[:length])


@st.composite
def kth_case(draw):
    s = draw(st.sampled_from([1, 2, 3]))
    # up to 600 objects: dynamic partitions of two or more units, so
    # splits and UBSA deep scans happen too
    n = s * draw(st.integers(min_value=10, max_value=600 // s))
    k = draw(st.integers(min_value=1, max_value=min(5, n)))
    length = n + s * draw(st.integers(min_value=1, max_value=2 * n // s))
    segments = draw(st.lists(
        st.tuples(
            st.sampled_from(["plateau", "kth", "low", "high", "noise"]),
            st.integers(min_value=1, max_value=n),
        ),
        min_size=1,
        max_size=12,
    ))
    seed = draw(st.integers(0, 2**32 - 1))
    q = TopKQuery(n=n, k=k, s=s)
    return q, _kth_stream(q, length, seed, segments)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=kth_case())
@pytest.mark.parametrize("mode,delay,use_savl", VARIANTS)
def test_cached_report_equals_a_recomputed_one(case, mode, delay, use_savl):
    # the report is kept across every event that leaves the window's
    # top-k alone: after every slide it must equal a report recomputed
    # from C ∪ M_0 ∪ P_rear^k and the naive top-k
    q, scores = case
    opts = {"mode": mode, "delay": delay, "use_savl": use_savl}
    cached, forced = SAP(q, **opts), SAP(q, **opts)
    truth = all_windows_topk(scores, q)
    for algo in (cached, forced):
        algo.attach(scores)
        algo.warmup()
    for j in range(len(truth)):
        if j:
            cached.slide(j)
            forced.slide(j)
        forced._report = None
        want = truth[j].tolist()
        assert cached.topk() == want
        assert forced.topk() == want
        assert len(cached._ahead) <= q.k
    _assert_same(q, scores, mode, delay, use_savl)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=kth_case(), chunk=st.integers(min_value=1, max_value=9))
@pytest.mark.parametrize("mode,delay,use_savl", VARIANTS)
def test_lookahead_survives_pickling(case, chunk, mode, delay, use_savl):
    # fed in chunks that need not end on a slide, the driver is pickled
    # whenever the lookahead holds arrivals still to come
    q, scores = case
    opts = {"mode": mode, "delay": delay, "use_savl": use_savl}
    drv = IncrementalDriver(f"sap-{mode}", q, delay=delay, use_savl=use_savl)
    rows = drv.feed(scores[: q.n]).tolist()
    for lo in range(q.n, len(scores), chunk):
        rows += drv.feed(scores[lo : lo + chunk]).tolist()
        assert len(drv.algo._ahead) <= q.k
        if drv.algo._ahead:
            drv = IncrementalDriver.loads(drv.dumps())
    truth = all_windows_topk(scores, q)
    assert [t for _, _, t, _ in rows] == [int(t) for w in truth for t in w]
    fed = drv.algo.metrics.as_row()
    _, ref = _drive(SAP(q, **opts), scores)
    del fed["wall_time_s"]
    assert fed == ref
