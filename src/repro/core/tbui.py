"""TBUI — threshold-based k-unit identification (Algorithm 2, §4.3).

The enhanced dynamic partition labels each minimal-partition *unit* as a
**k-unit** (may hold ω(k) k-skyband objects — keep its top-k in the
summary list ``L_i``) or a **non-k-unit** (keep only its top-1). The
label is decided by a self-adaptive threshold τ:

* τ is (re-)initialised by repeated median-search over the first
  ``2ζ*`` above-τ objects of a unit, then fixed to the ζ*-th highest;
* while the score distribution is stable, every unit has between k and
  ζmax objects above τ (Theorem 3), and a unit with ≥ k above-τ objects
  *demotes its predecessor* to non-k-unit (Theorem 2);
* an uptrend (``|U^τ| > max(2ζ*, ζmax)`` mid-unit) re-raises τ; a
  downtrend (``|U^τ| < k`` at unit end) confirms the predecessor as a
  k-unit and restarts τ from scratch.

Labels only steer *cost* (what UBSA stores and which units it deep-
scans); every skip decision in UBSA is additionally guarded by the
global bound Fθ, so a mislabel can never lose a meaningful object.

Deviations noted: (a) a predecessor confirmed by a downtrend is marked
non-demotable so the fresh near-zero τ of the restart cannot spuriously
demote it (Algorithm 2 leaves this implicit); (b) the unit that *ends*
a downtrend is labelled non-k (so UBSA scans it in phase 1 under the Fθ
guard) instead of carrying Algorithm 2's ambiguous ``U^τ_v`` summary —
labels only steer cost, and this keeps the tracker O(1) per object.

The tracker takes whole units only (``ingest_unit``), each once its last
object has arrived, so units tile the stream and labels come in ``t``
order. The above-τ objects are found with numpy: one pass over the unit
while τ stays put, and after each τ raise a window past the last object
taken that doubles until it holds the objects the next raise needs, so
a rising unit is not re-filtered whole at every raise. A raise selects
the ζ* best with ``np.argpartition`` and sorts by ``(score, t)`` only when
scores tie at τ. The objects a τ raise examines are charged when the
unit completes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import Metrics
from .wrt import zeta_max, zeta_star


@dataclass
class UnitLabel:
    """Label + summary for one completed unit."""

    start: int  # first arrival index of the unit
    end: int  # one past the last
    kind: str  # "k" or "non"
    summary: list[tuple[float, int]]  # desc
    demotable: bool


class TBUITracker:
    """Labels each unit of arrivals as it completes."""

    def __init__(self, k: int, metrics: Metrics) -> None:
        self.k = k
        self.metrics = metrics
        self.zs = zeta_star(k)
        self.zmax = zeta_max(k)
        self.tau = float("-inf")
        self.flag = True  # True while τ initialisation is in progress
        self.u_tau: list[tuple[float, int]] = []  # current unit's above-τ
        self.raised = 0  # entries the current unit's τ raises examined
        self.labels: list[UnitLabel] = []

    def _raise_tau(self) -> None:
        """Median-search: τ ← ζ*-th highest of U^τ, keep entries above.

        Algorithm 2's raise on the list U^τ, one arrival at a time; the
        tests step through units with it. ``_take_above_tau`` makes the
        same raises on arrays. The entries sorted are charged as examined
        when the unit completes, so a unit still arriving has charged
        nothing.
        """
        self.u_tau.sort(reverse=True)
        self.raised += len(self.u_tau)
        self.tau = self.u_tau[self.zs - 1][0]
        del self.u_tau[self.zs :]

    def ingest_unit(self, lo: int, unit: np.ndarray | list[float]) -> None:
        """Label the whole unit ``t = lo, lo+1, …`` scoring ``unit``.

        Algorithm 2 lines 3–16 for one unit: its maximum is taken once
        and its above-τ arrivals are found with numpy
        (``_take_above_tau``).
        """
        unit = np.asarray(unit, dtype=np.float64)
        end = lo + len(unit)
        # the newest of equal maxima wins: argmax takes the first
        newest = unit[::-1]
        back = int(newest.argmax())
        self._take_above_tau(lo, unit)
        self._complete_unit(lo, end, (float(newest[back]), end - 1 - back))

    def _take_above_tau(self, lo: int, unit: np.ndarray) -> None:
        """Set U^τ to the unit's arrivals at or above τ, raising τ on the way.

        τ is raised as soon as U^τ reaches 2ζ* (initialising) or exceeds
        max(2ζ*, ζmax) (an uptrend), and the rest of the unit is then
        held against the raised τ. The first round reads the whole unit;
        after a raise, a round looks for the arrivals it needs in a window
        that starts past the last one taken and doubles until it holds
        enough, so a raise costs about the arrivals it consumes, not the
        rest of the unit. U^τ is kept as unit offsets until the end.
        """
        zs = self.zs
        kept = None  # U^τ after the last raise, as offsets into the unit
        at = 0  # the first offset not yet looked at
        width = len(unit)  # a unit that raises no τ is read in one pass
        while True:
            cap = 2 * zs if self.flag else max(2 * zs, self.zmax) + 1
            need = cap if kept is None else cap - zs
            while True:
                hit = (unit[at : at + width] >= self.tau).nonzero()[0]
                if len(hit) >= need or at + width >= len(unit):
                    break
                width *= 2
            hit += at
            if len(hit) < need:
                break
            # U^τ reaches cap entries at its need-th new one
            new = hit[:need]
            pos = new if kept is None else np.concatenate((kept, new))
            at = int(hit[need - 1]) + 1
            val = unit[pos]
            self.raised += cap
            # τ ← ζ*-th highest; keep the ζ* best by (score, t)
            order = np.argpartition(val, cap - zs)
            self.tau = float(val[order[cap - zs]])
            if np.count_nonzero(val >= self.tau) > zs:
                # scores tie at τ: the newest of the ties are kept
                order = np.lexsort((pos, val))
            kept = pos[order[cap - zs :]]
            self.flag = True
            width = zs  # the next round needs ζ* more
        pos = hit if kept is None else np.concatenate((kept, hit))
        self.u_tau = list(zip(unit[pos].tolist(), (pos + lo).tolist()))

    def _complete_unit(
        self, start: int, end: int, unit_max: tuple[float, int]
    ) -> None:
        """Label the finished unit ``[start, end)`` (Algorithm 2 lines 10–16)."""
        k = self.k
        self.metrics.examined += self.raised
        self.raised = 0
        if len(self.u_tau) >= k:
            # stable/uptrend: predecessor cannot be a k-unit (Theorem 2)
            if self.labels and self.labels[-1].demotable:
                prev = self.labels[-1]
                prev.kind = "non"
                prev.summary = [max(prev.summary)]
            summary = sorted(self.u_tau, reverse=True)[:k]
            self.labels.append(
                UnitLabel(start, end, "k", summary, demotable=True)
            )
            self.flag = False
        else:
            # downtrend: predecessor confirmed as k-unit; restart τ.
            # The ending unit is labelled non-k (top-1 only) so UBSA
            # scans it in phase 1 — always safe under the Fθ guard.
            if self.labels:
                self.labels[-1].demotable = False
            self.labels.append(
                UnitLabel(start, end, "non", [unit_max], demotable=False)
            )
            self.tau = float("-inf")
            self.flag = True
        self.u_tau = []

    def labels_for(self, start: int, end: int) -> list[UnitLabel]:
        """Completed-unit labels covering arrival range [start, end)."""
        return [
            lab for lab in self.labels if lab.start >= start and lab.end <= end
        ]

    def drop_before(self, t: int) -> None:
        """Forget labels for units that have fully expired."""
        self.labels = [lab for lab in self.labels if lab.end > t]
