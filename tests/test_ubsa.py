"""UBSA's spans that no TBUI label covers (core/sap.py ``_ubsa``).

TBUI labels whole units, while a partition sealed at the hard cap ends
mid-unit and the next one starts there. With n=90, k=45, s=3 (63-object
units) both kinds of span occur. Each must be scanned into ``M_0`` as a
plain S-AVL of its own would hold it.
"""
import pytest

from repro.core.query import TopKQuery
from repro.core.sap import SAP
from repro.core.savl import SAVL
from repro.streams.datasets import gen_stream


class SpanCheckingSAP(SAP):
    """Records, per unlabelled span of a formed M, whether ``M_0`` holds
    every entry a plain S-AVL scan of that span keeps."""

    def __init__(self, q, **opts):
        super().__init__(q, **opts)
        self.spans = []  # (is_head, kept, all_in_m0)

    def _form_meaningful(self, part, rho, f_theta):
        ms = super()._form_meaningful(part, rho, f_theta)
        held = {e for st in ms.stacks for e in st}
        labels = part.labels
        if not labels:
            return ms  # formed by one plain S-AVL scan
        for a, b in ((labels[-1].end, part.end), (part.start, labels[0].start)):
            if a < b:
                plain = SAVL(self.q.k - rho)
                for t in range(b - 1, max(a, self.window_start) - 1, -1):
                    sc = float(self.scores[t])
                    if t not in self.C and sc >= f_theta:
                        plain.offer(sc, t)
                kept = {e for st in plain.stacks for e in st}
                self.spans.append((a == part.start, len(kept), kept <= held))
        return ms


@pytest.mark.parametrize("delay", [True, False], ids=["delay", "nodelay"])
@pytest.mark.parametrize("ds", ["STOCK", "TIMEU"])
def test_head_and_tail_spans_are_scanned_into_m0(ds, delay):
    q = TopKQuery(n=90, k=45, s=3)
    algo = SpanCheckingSAP(q, mode="enhanced", delay=delay)
    scores = gen_stream(ds, 4 * q.n + 3 * q.s, seed=1)
    algo.attach(scores)
    for _ in algo.windows(0, q.num_windows(len(scores))):
        pass
    # both kinds of span occur and keep something, so the check bites
    assert any(head and kept for head, kept, _ in algo.spans)
    assert any(not head and kept for head, kept, _ in algo.spans)
    assert all(ok for _, _, ok in algo.spans)
