"""SAP's numpy-prefiltered reverse scan against the per-object loop.

``per_object_scan`` is ``SAP._scan`` as it was before the scan read its
range with numpy: a Python loop over every ``t``, newest first, with a C
lookup and a comparison with Fθ per object. Scores take a few integer
levels, so they tie at Fθ, and ``skip`` overlaps C and reaches outside
the scanned range, as a k-unit summary does in a deep scan. Both scans
must leave the same S-AVL stacks and count the same objects as examined.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.query import TopKQuery
from repro.core.sap import SAP
from repro.core.savl import SAVL
from repro.streams.datasets import gen_stream

from .test_sap_expiry import _drive, expiry_case


def per_object_scan(sap, savl, lo, hi, f_theta, skip=()):
    """The reference: one Python step per object of ``[lo, hi)``."""
    C, scores = sap.C, sap.scores
    examined = 0
    for t in range(hi - 1, lo - 1, -1):
        if t in C or t in skip:
            continue
        examined += 1
        sc = float(scores[t])
        if sc >= f_theta:
            savl.offer(sc, t)
    sap.metrics.examined += examined


class PerObjectScanSAP(SAP):
    """SAP forming M sets and deep-scanning with the per-object scan."""

    def _scan(self, savl, lo, hi, f_theta, skip=()):
        per_object_scan(self, savl, lo, hi, f_theta, skip)


@st.composite
def scan_case(draw):
    length = draw(st.integers(min_value=1, max_value=150))
    levels = draw(st.sampled_from([1, 2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.integers(0, levels, length).astype(np.float64)
    in_c = rng.random(length) < draw(st.floats(0.0, 0.6))
    in_skip = rng.random(length) < draw(st.floats(0.0, 0.6))
    lo = draw(st.integers(min_value=0, max_value=length))
    hi = draw(st.integers(min_value=max(0, lo - 2), max_value=length))
    f_theta = draw(st.sampled_from([-np.inf, *range(levels + 1)]))
    cap = draw(st.integers(min_value=1, max_value=6))
    return scores, in_c, in_skip, lo, hi, float(f_theta), cap


@settings(max_examples=300, deadline=None)
@given(scan_case())
def test_scan_matches_per_object_loop(case):
    scores, in_c, in_skip, lo, hi, f_theta, cap = case
    sap = SAP(TopKQuery(n=len(scores), k=1, s=1), mode="equal")
    sap.attach(scores)
    for t in np.flatnonzero(in_c).tolist():
        sap.C.insert(float(scores[t]), t)
    skip = set(np.flatnonzero(in_skip).tolist())
    got, ref = SAVL(cap), SAVL(cap)
    sap._scan(got, lo, hi, f_theta, skip)
    examined = sap.metrics.examined
    per_object_scan(sap, ref, lo, hi, f_theta, skip)
    assert got.stacks == ref.stacks
    assert examined == sap.metrics.examined - examined


def _assert_same(q, scores, mode, delay, use_savl):
    opts = {"mode": mode, "delay": delay, "use_savl": use_savl}
    ref = _drive(PerObjectScanSAP(q, **opts), scores)
    assert _drive(SAP(q, **opts), scores) == ref


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    expiry_case(),
    st.sampled_from(["equal", "dynamic", "enhanced"]),
    st.booleans(),
    st.booleans(),
)
def test_sap_with_numpy_scan_matches_per_object_scan(case, mode, delay, use_savl):
    """Every window, candidate count and Metrics counter, on tie-heavy and
    monotone streams."""
    q, scores = case
    _assert_same(q, scores, mode, delay, use_savl)


@pytest.mark.parametrize("delay", [True, False])
@pytest.mark.parametrize("mode", ["equal", "dynamic", "enhanced"])
@pytest.mark.parametrize("ds", ["STOCK", "TIMER", "TIMEU"])
def test_sap_with_numpy_scan_matches_per_object_scan_on_datasets(ds, mode, delay):
    # s > k: M formations and deep scans over whole 240-object units
    q = TopKQuery(n=1200, k=10, s=60)
    _assert_same(q, gen_stream(ds, 4800, seed=5), mode, delay, True)
