"""SAP — the self-adaptive partition framework (§3–§5), the paper's core.

The window is split into arrival-ordered partitions. Each partition
``P_i`` contributes its top-k ``P_i^k`` to a global candidate set ``C``
(merged with dominance-refinement, Fig. 4). Only the *front* partition —
the one currently draining — may additionally need a *meaningful object
set* ``M_0``: the k-skyband of ``P_0 − P_0^k``, held in an S-AVL and
consulted/promoted as front candidates expire. The group dominance
number ρ (Definition 1) lets SAP skip building ``M_0`` entirely when k
later candidates already dominate the front's k-th best.

Three partitioning modes:

* ``equal``     — fixed size ``n/m`` (§4.1; Table 2 sweeps m),
* ``dynamic``   — unit-by-unit growth gated by the WRT test (§4.2),
* ``enhanced``  — dynamic sizing + TBUI unit labels + UBSA segmented
  S-AVL construction (§4.3, §5.2), which skips scanning units that
  provably hold no meaningful object and defers deep k-unit scans until
  the drain pointer approaches them.

Two Table-2 ablation switches:

* ``delay=False``  — the *non-delay* strawman: every partition's M is
  formed eagerly at seal time. Because no later candidate exists yet at
  that moment, ρ = 0 and no global bound Fθ is available (older
  candidates expire too early to prune with), so every partition pays a
  full, unpruned local-skyband construction.
* ``use_savl=False`` — M is formed as an exact k-skyband via a reverse
  scan with full dominance counting over a plain sorted list, the
  costlier formation S-AVL replaces.

Correctness shape: the reported top-k is computed over
``C ∪ M_0 ∪ P_rear^k`` (Algorithm 1 line 6), so promotions from the
S-AVL are an optimisation, never a correctness dependency.
"""
from __future__ import annotations

import bisect
import heapq
import math
from collections import deque
from itertools import islice

import numpy as np

from .base import StreamTopK
from .candidates import CandidateSet
from .partitioning import equal_partition_size, lmax_units, unit_size
from .query import TopKQuery
from .savl import SAVL, MeaningfulSet, SortedMeaningful
from .tbui import TBUITracker, UnitLabel
from .wrt import eta, partition_improper


class SAPPartition:
    """One sub-window: arrival range, top-k list, optional M set."""

    __slots__ = (
        "start", "end", "topk", "labels", "m", "rho", "prepared", "deep_idx"
    )

    def __init__(self, start: int) -> None:
        self.start = start
        self.end: int | None = None  # exclusive; set at seal
        self.topk: list[tuple[float, int]] = []  # ascending (score, t), ≤ k
        self.labels: list[UnitLabel] | None = None  # enhanced mode
        self.m: MeaningfulSet | None = None
        self.rho: int | None = None
        self.prepared = False  # front-readiness (ρ computed, M formed)
        self.deep_idx = 0  # next label to consider for UBSA deep scan

    def topk_desc(self) -> list[tuple[float, int]]:
        """Top-k entries, best first."""
        return self.topk[::-1]

    def kth_score(self) -> float:
        """Score of the partition's k-th best (-inf if under-full)."""
        return self.topk[0][0] if self.topk else float("-inf")


class SAP(StreamTopK):
    """The SAP framework under a chosen partitioning mode."""

    def __init__(
        self,
        q: TopKQuery,
        mode: str = "enhanced",
        m: int | None = None,
        use_savl: bool = True,
        delay: bool = True,
    ) -> None:
        super().__init__(q)
        if mode not in ("equal", "dynamic", "enhanced"):
            raise ValueError(f"unknown SAP mode {mode!r}")
        if m is not None and mode != "equal":
            # as for any option an algorithm does not take (runner.ALGORITHMS)
            raise TypeError(f"sap-{mode} takes no option 'm'")
        self.mode = mode
        self.use_savl = use_savl
        self.delay = delay
        self.name = f"sap-{mode}"
        self.C = CandidateSet()
        self.sealed: deque[SAPPartition] = deque()
        self.rear = SAPPartition(0)
        # per-unit top-k lists of the rear (dynamic modes): lets a split
        # derive both halves' top-k by merging k-lists instead of
        # re-scanning raw scores
        self._unit_topks: list[list[tuple[float, int]]] = []
        self._cur_unit_topk: list[tuple[float, int]] = []
        # the last reported top-k ids (None once it may be stale) and
        # their oldest t; see topk()
        self._report: list[int] | None = None
        self._report_min_t = -1
        if mode == "equal":
            self.part_size = equal_partition_size(q, m)
            self.u_len = self.part_size
            self.max_units = 1
        else:
            self.u_len = unit_size(q)
            self.max_units = lmax_units(q)
            self.eta_k = max(1, int(round(eta(q.k) * q.k)))
        self.tbui = (
            TBUITracker(q.k, self.u_len, self.metrics)
            if mode == "enhanced"
            else None
        )

    # ----------------------------------------------------------- arrivals
    def _ingest_range(self, lo: int, hi: int) -> None:
        """Ingest arrivals ``[lo, hi)``, one run between boundaries at a time.

        Per-object work only acts at a unit boundary, at the hard cap
        ``n`` and (equal mode) at the partition size. Every stretch in
        between is one run: TBUI takes it whole, and its entries at or
        above the current k-th floor are merged into the unit's and the
        rear's top-k with one sort each. All of these points are
        multiples of ``s`` past a partition start, so a slide is always
        a single run.
        """
        k = self.q.k
        equal = self.mode == "equal"
        while lo < hi:
            rear = self.rear
            if equal:
                stop = rear.start + self.part_size
            else:
                stop = min(
                    rear.start + self.q.n,
                    lo + self.u_len - (lo - rear.start) % self.u_len,
                )
            end = min(hi, stop)
            run = self.scores[lo:end].tolist()
            if self.tbui is not None:
                self.tbui.ingest_run(lo, run)
            top = rear.topk
            floor = top[0][0] if len(top) == k else -math.inf
            if equal:
                unit, low = None, floor
            else:
                # the unit's k-th never beats the rear's: sieve by it
                unit = self._cur_unit_topk
                low = unit[0][0] if len(unit) == k else -math.inf
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

    def _at_boundary(self, end: int) -> None:
        """Seal, split or grow the rear once it holds ``[start, end)``."""
        size = end - self.rear.start
        if self.mode == "equal" or size == self.q.n:
            # equal mode: the partition is full. Hard cap: a partition
            # can never outgrow the window — its oldest object is about
            # to expire, so it must be sealed now.
            self._seal(end)
            return
        self._unit_topks.append(self._cur_unit_topk)
        self._cur_unit_topk = []
        units = size // self.u_len
        if units >= 2 and (units > self.max_units or self._wrt_improper(end)):
            self._split_seal(end)

    def _wrt_improper(self, end: int) -> bool:
        """WRT evaluation F(P'_m^k, I_ηk) at a unit boundary (§4.2).

        The interval's top-ηk is read off the *candidate set* (the paper
        "visits the top-ηk candidates whose arrival times are within
        [t0−n+|Pm|, t0)") rather than re-scanning raw scores. ``end`` is
        one past the rear's newest arrival.
        """
        rear_topk = np.array([sc for sc, _ in self.rear.topk])
        if len(rear_topk) < self.q.k:
            return False  # not enough evidence: keep growing
        lookback = self.q.n - (end - self.rear.start)
        lo = max(0, self.rear.start - max(lookback, 0))
        top_eta: list[float] = []
        visited = 0
        for sc, t in self.C.iter_desc():
            visited += 1
            if lo <= t < self.rear.start:
                top_eta.append(sc)
                if len(top_eta) == self.eta_k:
                    break
        self.metrics.examined += visited + self.q.k
        if len(top_eta) < self.eta_k:
            return False  # not enough evidence: keep growing
        return partition_improper(rear_topk, np.array(top_eta))

    def _seal(self, end: int) -> None:
        """Finalize the whole rear partition and open a fresh one."""
        self.rear.end = end
        self._finalize(self.rear)
        self.rear = SAPPartition(end)
        self._unit_topks = []
        self._cur_unit_topk = []

    def _split_seal(self, end: int) -> None:
        """Finalize the rear minus its last unit; the unit starts anew.

        Both halves' top-k are derived by merging the per-unit top-k
        lists (any partition top-k member is its own unit's top-k), so
        the split costs O(units·k), not a raw re-scan.
        """
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

    def _finalize(self, part: SAPPartition) -> None:
        """Seal bookkeeping: merge P^k into C (+ eager M when non-delay)."""
        if self.tbui is not None:
            assert part.end is not None
            part.labels = self.tbui.labels_for(part.start, part.end)
        inserted, refined = self.C.merge_topk(part.topk_desc(), self.q.k)
        self._report = None
        self.metrics.insertions += inserted
        self.metrics.deletions += refined
        self.metrics.examined += len(self.C)
        self.metrics.partitions_sealed += 1
        self.sealed.append(part)
        if not self.delay:
            # non-delay strawman: eager M with ρ=0 and no global bound
            part.rho = 0
            part.m = self._form_meaningful(part, rho=0, f_theta=float("-inf"))
            part.prepared = True

    # ----------------------------------------------------------- expiries
    def _expire_range(self, lo: int, hi: int) -> None:
        """Expire one slide, ``t ∈ [lo, hi)``, in one pass.

        Partitions hold whole slides, so the slide lies inside the front
        partition. Work is done only at the C members among the expiring
        objects (removal plus an S-AVL promotion) and at UBSA deep-scan
        horizons, in ``t`` order and with a removal before a deep scan at
        the same ``t``, as an object-by-object drain orders them. A
        promoted object that expires later in the slide joins the queue.
        """
        front = self.sealed[0]
        if not front.prepared:
            self._ready_front(front)
        if lo <= self._report_min_t < hi:
            # the first reported object to expire is the report's oldest.
            # It usually leaves from C, which drops the report below
            # anyway; this also covers one still held in M_0.
            self._report = None
        C, m, scores = self.C, front.m, self.scores
        gone = C.members_in(lo, hi)  # ascending, so already a heap
        # only a UBSA-built M holds k-unit summaries; the exact skyband of
        # use_savl=False already covers every unit
        labels = (
            front.labels
            if m is not None and self.mode == "enhanced" and self.use_savl
            else None
        )
        while True:
            t = gone[0] if gone else hi
            if labels and front.deep_idx < len(labels):
                # the first t within one unit of the next label's start
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

    def _ready_front(self, front: SAPPartition) -> None:
        """Compute ρ and (maybe) form M for the partition now at the front.

        Deferred to the moment the partition reaches the front
        (Algorithm 1's delay policy): only now is ρ final enough to
        skip useless M formations, and only now is the global bound Fθ
        drawn from objects guaranteed to outlive the front.
        """
        front.prepared = True
        assert front.end is not None
        rho = self.C.rho(front.kth_score(), front.end)
        # the unsealed rear's top-k are later candidates too
        rho += sum(
            1 for sc, _ in self.rear.topk if sc > front.kth_score()
        )
        front.rho = rho
        if self.delay and rho < self.q.k:
            f_theta = self._f_theta(front)
            front.m = self._form_meaningful(front, rho, f_theta)
            self._report = None

    def _f_theta(self, part: SAPPartition) -> float:
        """Global pruning bound Fθ (Lemma 2): k-th best of W − P."""
        assert part.end is not None
        return self.C.kth_highest_excluding(
            self.q.k, part.start, part.end, self.rear.topk_desc()
        )

    # ---------------------------------------------------- M construction
    def _form_meaningful(
        self, part: SAPPartition, rho: int, f_theta: float
    ) -> MeaningfulSet:
        """Build the partition's meaningful-object set M (§5)."""
        cap = self.q.k - rho
        self.metrics.m_formations += 1
        ms = MeaningfulSet()
        assert part.end is not None
        lo = max(part.start, self.window_start)
        if not self.use_savl:
            ms.add(self._exact_skyband(lo, part.end, cap, f_theta))
            return ms
        if self.mode == "enhanced" and part.labels:
            self._ubsa(ms, part, lo, cap, f_theta)
            return ms
        savl = SAVL(cap)
        self._scan(savl, lo, part.end, f_theta)
        ms.add(savl)
        return ms

    def _scan(
        self, savl: SAVL, lo: int, hi: int, f_theta: float, skip=()
    ) -> None:
        """Reverse scan: offer ``t ∈ [lo, hi)``, newest first, to ``savl``.

        C members and ``skip`` are passed over; every other object counts
        as examined and is offered when it scores at least ``f_theta``.
        """
        C, scores = self.C, self.scores
        examined = 0
        for t in range(hi - 1, lo - 1, -1):
            if t in C or t in skip:
                continue
            examined += 1
            sc = float(scores[t])
            if sc >= f_theta:
                savl.offer(sc, t)
        self.metrics.examined += examined

    def _exact_skyband(
        self, lo: int, hi: int, cap: int, f_theta: float
    ) -> SortedMeaningful:
        """No-S-AVL formation: exact skyband via full dominance counts."""
        seen: list[float] = []  # scores of scanned (newer) objects, asc
        kept: list[tuple[float, int]] = []
        for t in range(hi - 1, lo - 1, -1):
            sc = float(self.scores[t])
            if t not in self.C:
                self.metrics.examined += 1
                dom = len(seen) - bisect.bisect_right(seen, sc)
                if sc >= f_theta and dom < cap:
                    kept.append((sc, t))
            bisect.insort(seen, sc)
            self.metrics.examined += 1  # dominance-count bookkeeping
        return SortedMeaningful(kept)

    def _ubsa(
        self,
        ms: MeaningfulSet,
        part: SAPPartition,
        lo: int,
        cap: int,
        f_theta: float,
    ) -> None:
        """UBSA segmented construction (§5.2).

        Phase 1 (here): non-k-units are scanned into the main S-AVL
        unless their best object is already below Fθ; k-units contribute
        only their L_i top-k summary. Phase 2 (``_deep_scan``):
        a k-unit's deep members are scanned only when the drain pointer
        is within one unit, and skipped entirely when the summary's
        minimum is below Fθ.
        """
        assert part.labels is not None
        main = SAVL(cap)
        spans = sorted((lab.start, lab.end) for lab in part.labels)
        for lab in sorted(part.labels, key=lambda x: -x.start):  # newest 1st
            if lab.kind == "non":
                if lab.top1()[0] < f_theta:
                    self.metrics.units_skipped += 1
                    continue
                self._scan(main, max(lab.start, lo), lab.end, f_theta)
            else:
                entries = [
                    (sc, t)
                    for sc, t in lab.summary
                    if t not in self.C and sc >= f_theta and t >= lo
                ]
                lab.deep_scanned = False
                ms.add(SortedMeaningful(entries))
        # TBUI labels cover whole units only. The hard-cap seal
        # (size == n) ends a partition mid-unit whenever n is not a
        # multiple of u_len (e.g. n=90, k=45, s=3: u_len=63), leaving a
        # tail no label covers; scan it plainly into its own structure.
        uncovered: list[tuple[int, int]] = []
        pos = part.start
        for a, b in spans:
            if a > pos:
                uncovered.append((pos, a))
            pos = max(pos, b)
        if pos < part.end:
            uncovered.append((pos, part.end))
        for a, b in reversed(uncovered):
            extra = SAVL(cap)
            self._scan(extra, max(a, lo), b, f_theta)
            if extra.size():
                ms.add(extra)
        ms.add(main)

    def _deep_scan(self, front: SAPPartition, drain_t: int) -> None:
        """UBSA phase 2: deep-scan the k-units within one unit of ``drain_t``."""
        assert front.m is not None and front.labels is not None
        horizon = drain_t + self.u_len
        labels = front.labels
        while (
            front.deep_idx < len(labels)
            and labels[front.deep_idx].start <= horizon
        ):
            lab = labels[front.deep_idx]
            front.deep_idx += 1
            if lab.kind != "k" or lab.deep_scanned:
                continue
            lab.deep_scanned = True
            f_theta = self._f_theta(front)
            if lab.summary and lab.min_summary_score() < f_theta:
                # summary already holds every potential skyband object
                self.metrics.units_skipped += 1
                continue
            deep = SAVL(self.q.k - front.rho)
            self._scan(
                deep,
                max(lab.start, drain_t + 1),
                lab.end,
                f_theta,
                skip={t for _, t in lab.summary},
            )
            front.m.add(deep)
            self._report = None

    # ------------------------------------------------------------ results
    def topk(self) -> list[int]:
        """The window's top-k: a copy of the cached report when still valid.

        The report is the top-k of ``C ∪ P_rear^k ∪ M_0``. It is dropped
        whenever one of these may change it: ``C`` changes, an arrival
        enters the rear's top-k, the front's M set is formed, grows or
        leaves with the front, or a reported object expires.
        """
        if self._report is None:
            k = self.q.k
            merged = sorted(self.C.top_desc(k) + self.rear.topk, reverse=True)[:k]
            m = self.sealed[0].m if self.sealed else None
            head = m.peek_max(self.window_start) if m is not None else None
            if head is not None and (len(merged) < k or head > merged[-1]):
                # rare: a meaningful object enters the top-k
                merged += islice(m.iter_desc(self.window_start), k)
                merged = sorted(merged, reverse=True)[:k]
            self._report = [t for _, t in merged]
            self._report_min_t = min(self._report)
        return list(self._report)

    def candidate_count(self) -> int:
        count = len(self.C) + len(self.rear.topk)
        m = self.sealed[0].m if self.sealed else None
        if m is not None:
            # drop expired S-AVL tops first so that they are not counted
            m.peek_max(self.window_start)
            count += m.size()
        return count
