"""SAP's combined quiet horizon against SAP stepping every slide.

``StreamTopK.slide`` calls neither hook on a slide that ends at or before
``_quiet_until``, which SAP keeps at ``min(_quiet_ingest, _quiet_expiry +
n)``. ``NeverQuietSAP`` pins that horizon to 0, so each of its slides
goes through both hooks, which still return at once from their own
horizons. Both must emit the same windows, hold the same candidates and
count the same operations after every slide, stepped directly and fed
through an ``IncrementalDriver`` that is pickled inside quiet runs. The
reference subclasses that override a hook (``PerSlideSAP``,
``PerObjectSAP``) never set its horizon, so they must still call both
hooks on every slide.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.naive import all_windows_topk
from repro.core.query import TopKQuery
from repro.core.sap import SAP
from repro.streams.datasets import gen_stream
from repro.streams.incremental import IncrementalDriver
from repro.streams.runner import make_algorithm

from .test_metrics import _SAP_VARIANTS
from .test_sap_events import PerSlideSAP, _stream
from .test_sap_expiry import PerObjectSAP, _drive

SKIPPED = "does not step to the next window"


class NeverQuietSAP(SAP):
    """SAP whose combined horizon stays 0 (the reference)."""

    @property
    def _quiet_until(self):
        return 0

    @_quiet_until.setter
    def _quiet_until(self, value):
        pass


def _sap(cls, q, variant):
    algo, opts = _SAP_VARIANTS[variant]
    return cls(q, mode=algo.removeprefix("sap-"), **opts)


def _row(algo):
    row = algo.metrics.as_row()
    del row["wall_time_s"]
    return row


def _quiet_next(algo) -> bool:
    """Whether the next slide calls neither hook."""
    return algo.window_end + algo.q.s <= algo._quiet_until


@st.composite
def quiet_case(draw):
    """Small-``s`` queries over streams whose top-k holds for long runs."""
    s = draw(st.sampled_from([1, 2, 3, 4, 5, 8]))
    n = s * draw(st.integers(min_value=2, max_value=40))
    k = draw(st.integers(min_value=1, max_value=min(n, 30)))
    length = n + s * draw(st.integers(min_value=1, max_value=3 * n // s))
    kinds = ["noise", "spikes", "plateau", "plateau-noise", "falling"]
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "noise":
        scores = rng.random(length)
    elif kind == "spikes":
        # rare arrivals far above the rest
        scores = rng.random(length) + 2.0 * (rng.random(length) < 0.02)
    elif kind == "falling":
        # no arrival enters; each reported object expires, an M_0 member
        # among them
        scores = _stream("down", length, rng)
    else:
        # a few score levels, each held for a long run (tied within it)
        cuts = np.unique(rng.integers(1, length, rng.integers(0, 8)))
        lengths = np.diff([0, *cuts.tolist(), length])
        scores = np.repeat(rng.integers(0, 5, len(lengths)), lengths).astype(float)
        if kind == "plateau-noise":
            scores += 0.5 * rng.random(length)
    return TopKQuery(n=n, k=k, s=s), scores, rng


def _lockstep(q, scores, variant) -> int:
    """Step SAP and NeverQuietSAP window by window; return quiet slides."""
    got, ref = _sap(SAP, q, variant), _sap(NeverQuietSAP, q, variant)
    got.attach(scores)
    ref.attach(scores)
    quiet = 0
    for ids, ref_ids in zip(got.windows(), ref.windows(), strict=True):
        assert ids == ref_ids
        assert (got.window_start, got.window_end) == (
            ref.window_start,
            ref.window_end,
        )
        assert got.candidate_count() == ref.candidate_count()
        assert _row(got) == _row(ref)
        assert got._quiet_until == min(
            got._quiet_ingest, got._quiet_expiry + q.n
        )
        quiet += _quiet_next(got)
    return quiet


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(quiet_case(), st.sampled_from(sorted(_SAP_VARIANTS)))
# a reported M_0 object expires in a slide in which no C member does: the
# report recomputed before it must lower the combined horizon
@example((TopKQuery(n=140, k=1, s=4),
          _stream("down", 400, np.random.default_rng(3910049433)), None),
         "enhanced")
def test_quiet_slides_match_stepping_every_slide(case, variant):
    q, scores, _ = case
    _lockstep(q, scores, variant)


@pytest.mark.parametrize("variant", sorted(_SAP_VARIANTS))
def test_quiet_slides_match_on_timeu(variant):
    # the regular-speed shape scaled down: 14-59 % of slides are quiet
    q = TopKQuery(n=240, k=10, s=2)
    scores = gen_stream("TIMEU", 1200, seed=7)
    quiet = _lockstep(q, scores, variant)
    assert quiet > (q.num_windows(len(scores)) - 1) // 10


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(quiet_case(), st.sampled_from(sorted(_SAP_VARIANTS)))
def test_fed_quiet_slides_match_stepping_every_slide(case, variant):
    # chunks of 1-9 objects, and a dumps/loads round trip after about
    # half of the feeds that end inside a quiet run
    q, scores, rng = case
    ref_windows, ref_row = _drive(_sap(NeverQuietSAP, q, variant), scores)
    algo, opts = _SAP_VARIANTS[variant]
    drv = IncrementalDriver(algo, q, **opts)
    cuts = np.cumsum(rng.integers(1, 10, len(scores)))
    rows = []
    for chunk in np.split(scores, cuts[cuts < len(scores)]):
        rows.append(drv.feed(chunk))
        if _quiet_next(drv.algo) and rng.random() < 0.5:
            drv = IncrementalDriver.loads(drv.dumps())
    got = np.concatenate(rows)["t"].reshape(-1, q.k)
    np.testing.assert_array_equal(got, [ids for ids, _ in ref_windows])
    assert _row(drv.algo) == ref_row


def _counting(cls):
    """``cls`` recording each hook call as ``(hook, lo, hi)``."""

    class Counting(cls):
        def __init__(self, q, **opts):
            super().__init__(q, **opts)
            self.calls = []

        def _expire_range(self, lo, hi):
            self.calls.append(("expire", lo, hi))
            super()._expire_range(lo, hi)

        def _ingest_range(self, lo, hi):
            self.calls.append(("ingest", lo, hi))
            super()._ingest_range(lo, hi)

    return Counting


@pytest.mark.parametrize("ref_cls", [PerSlideSAP, PerObjectSAP])
@pytest.mark.parametrize("variant", ["equal", "dynamic", "enhanced"])
def test_reference_subclasses_call_both_hooks_on_every_slide(ref_cls, variant):
    q = TopKQuery(n=240, k=10, s=2)
    scores = gen_stream("TIMEU", 1200, seed=7)
    ref = _sap(_counting(ref_cls), q, variant)
    sap = _sap(_counting(SAP), q, variant)
    _drive(ref, scores)
    _drive(sap, scores)
    every = [("ingest", 0, q.n)]
    for j in range(1, q.num_windows(len(scores))):
        lo = (j - 1) * q.s
        every += [("expire", lo, lo + q.s), ("ingest", q.n + lo, q.n + lo + q.s)]
    assert ref.calls == every
    # SAP on the same stream skips some slides, so the check bites
    assert len(sap.calls) < 0.9 * len(every)


@pytest.mark.parametrize("variant", sorted(_SAP_VARIANTS))
def test_wrong_slide_in_a_quiet_run_raises_and_keeps_the_window(variant):
    q = TopKQuery(n=240, k=10, s=2)
    scores = gen_stream("TIMEU", 1200, seed=7)
    algo, opts = _SAP_VARIANTS[variant]
    a = make_algorithm(algo, q, **opts)
    a.attach(scores)
    with pytest.raises(ValueError, match=SKIPPED):
        a.slide(1)
    assert (a.window_start, a.window_end) == (0, 0)
    a.warmup()
    out = [a.topk()]
    checked = 0
    for j in range(1, q.num_windows(len(scores))):
        if _quiet_next(a):
            window = (a.window_start, a.window_end)
            for bad in (j - 1, j + 1, 0):
                with pytest.raises(ValueError, match=SKIPPED):
                    a.slide(bad)
                assert (a.window_start, a.window_end) == window
            checked += 1
        a.slide(j)
        out.append(a.topk())
    assert checked > 0
    np.testing.assert_array_equal(out, all_windows_topk(scores, q))
