"""Unit tests for TBUI k-unit identification (core/tbui.py)."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import Metrics
from repro.core.tbui import TBUITracker


def drive(scores, k=5, lmin=50):
    """Feed the whole units of ``scores``; a partial last unit is left out."""
    tr = TBUITracker(k, Metrics())
    for lo in range(0, len(scores) - lmin + 1, lmin):
        tr.ingest_unit(lo, scores[lo : lo + lmin])
    return tr


def reference_drive(scores, k, lmin):
    """Algorithm 2 lines 3–9 stepped one object at a time."""
    tr = TBUITracker(k, Metrics())
    unit_max = (float("-inf"), -1)
    for t, sc in enumerate(float(x) for x in scores):
        unit_max = max(unit_max, (sc, t))
        if sc >= tr.tau:
            tr.u_tau.append((sc, t))
            if tr.flag and len(tr.u_tau) == 2 * tr.zs:
                tr._raise_tau()
            elif not tr.flag and len(tr.u_tau) > max(2 * tr.zs, tr.zmax):
                tr._raise_tau()
                tr.flag = True
        if (t + 1) % lmin == 0:
            tr._complete_unit(t + 1 - lmin, t + 1, unit_max)
            unit_max = (float("-inf"), -1)
    return tr


def _state(tr):
    return (tr.labels, tr.tau, tr.flag, tr.u_tau, tr.metrics.examined)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=8), min_size=100, max_size=400),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=120),
)
def test_runs_match_one_at_a_time(vals, k, lmin):
    """Labels, τ and op counts of whole units equal the per-object steps."""
    # few score levels, so arrivals often tie τ; units of up to 120
    # objects, so τ gets raised (that takes 2ζ* ≥ 22 above-τ arrivals)
    scores = np.array(vals, dtype=np.float64) / 4
    whole = len(scores) // lmin * lmin
    expected = _state(reference_drive(scores[:whole], k, lmin))
    assert _state(drive(scores, k, lmin)) == expected


@st.composite
def long_units(draw):
    """Whole units of 200–800 objects that rise or step, so that τ is
    raised many times within a unit, with ties at τ."""
    k = draw(st.integers(min_value=1, max_value=8))
    lmin = draw(st.integers(min_value=200, max_value=800))
    length = lmin * draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["rising", "noisy-rising", "stepped"]))
    if kind == "rising":
        # plateaus of equal scores
        scores = np.cumsum(rng.integers(0, 3, length))
    elif kind == "noisy-rising":
        scores = np.arange(length) // 4 + rng.integers(0, 8, length)
    else:
        # level blocks that go up and down: raises, then restarts
        steps = rng.integers(10, 120, length // 10 + 1)
        levels = rng.integers(0, 6, len(steps)) * 10
        scores = np.repeat(levels, steps)[:length] + rng.integers(0, 3, length)
    return np.asarray(scores, dtype=np.float64) / 2, k, lmin


@settings(max_examples=60, deadline=None)
@given(long_units())
def test_long_rising_units_match_one_at_a_time(case):
    """Units long enough for dozens of τ raises each: labels, τ, U^τ and
    op counts equal the per-object steps."""
    scores, k, lmin = case
    expected = _state(reference_drive(scores, k, lmin))
    assert _state(drive(scores, k, lmin)) == expected


def test_labels_tile_the_stream():
    tr = drive(np.random.default_rng(0).random(500), k=5, lmin=50)
    assert len(tr.labels) == 10
    for i, lab in enumerate(tr.labels):
        assert lab.start == i * 50
        assert lab.end == (i + 1) * 50


def test_stable_distribution_yields_mostly_non_k_units():
    tr = drive(np.random.default_rng(1).random(1000), k=5, lmin=100)
    kinds = [lab.kind for lab in tr.labels]
    # under a stationary distribution each unit demotes its predecessor
    assert kinds.count("non") >= len(kinds) - 2


def test_declining_stream_keeps_k_units():
    # monotonically decreasing scores: every completed unit sees a
    # downtrend, so predecessors get confirmed as k-units
    tr = drive(np.linspace(10, 1, 600), k=5, lmin=100)
    kinds = [lab.kind for lab in tr.labels]
    assert "k" in kinds


def test_non_k_unit_summary_is_top1():
    scores = np.random.default_rng(2).random(600)
    tr = drive(scores, k=5, lmin=100)
    assert any(lab.kind == "non" for lab in tr.labels)
    for lab in tr.labels:
        if lab.kind == "non":
            assert len(lab.summary) == 1
            lo, hi = lab.start, lab.end
            # top1 is the unit's true maximum
            assert lab.summary[0] == max(zip(scores[lo:hi].tolist(), range(lo, hi)))


def test_k_unit_summary_sorted_desc():
    tr = drive(np.linspace(0, 10, 600), k=5, lmin=100)
    for lab in tr.labels:
        scores = [sc for sc, _ in lab.summary]
        assert scores == sorted(scores, reverse=True)
        assert len(lab.summary) <= 5


def test_summary_entries_belong_to_unit():
    tr = drive(np.random.default_rng(3).random(800), k=4, lmin=100)
    for lab in tr.labels:
        for _, t in lab.summary:
            assert lab.start <= t < lab.end


def test_labels_for_range():
    tr = drive(np.random.default_rng(4).random(500), k=3, lmin=50)
    subset = tr.labels_for(100, 300)
    assert [lab.start for lab in subset] == [100, 150, 200, 250]


def test_drop_before():
    tr = drive(np.random.default_rng(5).random(500), k=3, lmin=50)
    tr.drop_before(250)
    assert all(lab.end > 250 for lab in tr.labels)


def test_tau_restarts_on_downtrend():
    rng = np.random.default_rng(6)
    scores = np.concatenate([rng.random(200) + 10, rng.random(200)])
    tr = drive(scores, k=5, lmin=100)
    # after the level drop the tracker must have re-initialised τ below
    # the old regime (otherwise no unit would ever complete its U^τ)
    assert tr.tau < 10.0


def test_uptrend_raises_tau():
    rng = np.random.default_rng(7)
    scores = np.concatenate([rng.random(200), rng.random(200) + 10])
    tr = drive(scores, k=5, lmin=100)
    assert tr.tau > 1.0


class PythonRunTBUI(TBUITracker):
    """The tracker as it took runs before units were labelled whole: pure
    Python, each above-τ arrival appended and checked one at a time, with
    its own state of the unit under way."""

    def __init__(self, k, lmin, metrics):
        super().__init__(k, metrics)
        self.lmin = lmin
        self.unit_max = (float("-inf"), -1)
        self.unit_count = 0
        self.unit_start = 0

    def ingest_run(self, lo, run):
        run = [float(x) for x in run]
        i, n = 0, len(run)
        while i < n:
            if self.unit_count == 0:
                self.unit_start = lo + i
            j = min(n, i + self.lmin - self.unit_count)
            piece = run[i:j]
            best = max(piece)
            if best >= self.unit_max[0]:
                self.unit_max = (best, lo + j - 1 - piece[::-1].index(best))
            tau = self.tau
            if best >= tau:
                u_tau = self.u_tau
                for e in [(sc, t) for t, sc in enumerate(piece, lo + i) if sc >= tau]:
                    if e[0] >= self.tau:
                        u_tau.append(e)
                        if self.flag and len(u_tau) == 2 * self.zs:
                            self._raise_tau()
                        elif not self.flag and len(u_tau) > max(2 * self.zs, self.zmax):
                            self._raise_tau()
                            self.flag = True
            self.unit_count += j - i
            i = j
            if self.unit_count == self.lmin:
                self._complete_unit(self.unit_start, lo + j, self.unit_max)
                self.unit_max = (float("-inf"), -1)
                self.unit_count = 0


def _labelled(tr):
    labels = [(lab.start, lab.end, lab.kind, list(lab.summary), lab.demotable)
              for lab in tr.labels]
    return labels, tr.tau, tr.flag, tr.metrics.examined


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([2, 3, 6, 1000]),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=12),
)
def test_whole_units_label_as_slides_fed_one_by_one(
    seed, levels, k, s, per_unit, units
):
    """SAP hands TBUI each unit whole once it has arrived; labels,
    summaries, ``demotable``, τ and ``examined`` after every completed unit
    equal those of the per-slide Python tracker. The stream ends inside a
    unit, whose τ raises are not charged."""
    rng = np.random.default_rng(seed)
    lmin = s * per_unit
    length = lmin * units + s * int(rng.integers(0, per_unit))
    scores = rng.integers(0, levels, length).astype(np.float64)
    ref = PythonRunTBUI(k, lmin, Metrics())
    got = TBUITracker(k, Metrics())
    for lo in range(0, length, s):
        ref.ingest_run(lo, scores[lo : lo + s])
        hi = lo + s
        if hi % lmin == 0:
            got.ingest_unit(hi - lmin, scores[hi - lmin : hi])
        assert _labelled(got)[3] == _labelled(ref)[3]
        if hi % lmin == 0:
            assert _labelled(got) == _labelled(ref)
