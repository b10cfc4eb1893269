"""SAP — the self-adaptive partition framework (§3–§5), the paper's core.

The window is split into arrival-ordered partitions. Each partition
``P_i`` contributes its top-k ``P_i^k`` to a global candidate set ``C``
(merged with dominance-refinement, Fig. 4). Only the *front* partition —
the one currently draining — may additionally need a *meaningful object
set* ``M_0``: the k-skyband of ``P_0 − P_0^k``, held as S-AVL stacks and
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
``C ∪ M_0 ∪ P_rear^k`` (Algorithm 1 line 6), so promotions from
``M_0`` are an optimisation, never a correctness dependency.

Cost shape: a slide's cost follows the events in it, not its ``s``
objects (§3). Each of the two hooks keeps a horizon — the next arrival
that can enter the rear's top-k or reach a boundary, and the next C
member, reported object, deep-scan horizon or front end to expire — and
returns at once on a slide that ends before it; the arrival horizon
comes off a list of the next ≤ k arrivals that can enter, so one numpy
scan serves up to k of them. Both horizons are also kept as one, in
``window_end`` terms: ``_quiet_until = min(_quiet_ingest, _quiet_expiry
+ n)``. A slide ending at or before it costs ``slide()`` one comparison
and calls neither hook. With ``sap-enhanced`` on streams 0–3 of seed 0
of perfbench's workloads, that is 85 % of the slides on TIMEU (n=2400,
k=25, s=2), 42 % on TIMER (n=30000, k=50, s=600) and 14 % on STOCK
(n=2400, k=25, s=24). The report is recomputed only when the window's
top-k can change (TMA's rule, Mouratidis et al., SIGMOD 2006): a
reported object expires or an arrival scores at or above the reported
k-th. TBUI labels each unit whole when the unit ends, and a split reads
both halves' top-k without per-unit lists. Long ranges are read with
numpy, so Python work follows the objects that can matter: an ingest run
longer than k is cut to its own top-k before it is merged, and an M
formation or deep scan offers the S-AVL only the objects at or above Fθ.
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
from .savl import SAVL, MeaningfulSet
from .tbui import TBUITracker, UnitLabel
from .wrt import eta, partition_improper


class SAPPartition:
    """One sub-window: arrival range, top-k list, optional M set."""

    __slots__ = (
        "start", "end", "topk", "labels", "m", "rho", "deep_idx", "cand_ts",
    )

    def __init__(self, start: int) -> None:
        self.start = start
        self.end: int | None = None  # exclusive; set at seal
        self.topk: list[tuple[float, int]] = []  # ascending (score, t), ≤ k
        self.labels: list[UnitLabel] | None = None  # enhanced mode only
        self.m: MeaningfulSet | None = None
        self.rho: int | None = None  # set once the partition reaches the front
        self.deep_idx = 0  # next label to consider for UBSA deep scan
        # min-heap of the t of its C members; a t that has left C since
        # is popped when it reaches the top (see SAP._expire_range)
        self.cand_ts: list[int] = []

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
        self.C = CandidateSet()
        self.sealed: deque[SAPPartition] = deque()
        self.rear = SAPPartition(0)
        # the rear's top-k when its newest unit began: the older half's
        # top-k when a split cuts that unit off (dynamic modes)
        self._unit_start_topk: list[tuple[float, int]] = []
        # the last reported top-k ids (None once it may be stale), their
        # oldest t and k-th score; see topk()
        self._report: list[int] | None = None
        self._report_min_t = -1
        self._report_kth = -math.inf
        # a slide ending at or before one of these has nothing to do in
        # that hook (see _ingest_range and _expire_range); wherever either
        # moves, _quiet_until becomes min(_quiet_ingest, _quiet_expiry + n)
        self._quiet_ingest = 0
        self._entered_until = -1  # hi of the last slide an arrival entered in
        # see _next_ingest_event
        self._ahead: list[tuple[float, int]] = []
        self._ahead_end = 0
        self._quiet_expiry = 0
        if mode == "equal":
            # a partition is one unit, sealed whole at its end
            self.u_len = equal_partition_size(q, m)
        else:
            self.u_len = unit_size(q)
            self.max_units = lmax_units(q)
            self.eta_k = max(1, int(round(eta(q.k) * q.k)))
        self.tbui = TBUITracker(q.k, self.metrics) if mode == "enhanced" else None

    # ----------------------------------------------------------- arrivals
    def _ingest_range(self, lo: int, hi: int) -> None:
        """Ingest arrivals ``[lo, hi)``, one run between boundaries at a time.

        Work is done only at a unit boundary (in equal mode, a unit is
        the whole partition), at the hard cap ``n``, at a TBUI unit end
        and at an arrival that enters the rear's top-k. After each call
        that did work, ``_next_ingest_event`` finds the next such
        arrival; a later call that ends at or before it
        (``_quiet_ingest``) returns at once.

        An entering arrival drops the report only when it scores at or
        above the report's k-th score (being newer, it wins the tie); an
        arrival that changes the window's top-k always enters.

        Every stretch between boundaries is one run: its entries at or
        above the rear's k-th score are merged into the rear's top-k with
        one sort, and TBUI labels each unit that ends in it whole. A run
        longer than k is first cut with ``np.partition`` to its entries at
        or above its own k-th score, so only those become tuples. All
        boundaries are multiples of ``s`` past a partition start, so a
        slide is always a single run.
        """
        if hi <= self._quiet_ingest:
            return
        k, u = self.q.k, self.u_len
        streak = lo == self._entered_until
        self._entered_until = -1
        while lo < hi:
            stop = self._next_boundary(lo)
            end = min(hi, stop)
            top = self.rear.topk
            floor = top[0][0] if len(top) == k else -math.inf
            if end - lo > k:
                # only the run's own top-k, ties at its k-th score
                # included, can enter the rear's top-k
                seg = self.scores[lo:end]
                cut = len(seg) - k
                floor = max(floor, np.partition(seg, cut)[cut])
                idx = (seg >= floor).nonzero()[0]
                entering = list(zip(seg[idx].tolist(), (idx + lo).tolist()))
            else:
                run = self.scores[lo:end].tolist()
                entering = []
                if max(run) >= floor:
                    entering = [(sc, t) for t, sc in enumerate(run, lo) if sc >= floor]
            if entering:
                if max(entering)[0] >= self._report_kth:
                    self._report = None
                top += entering
                top.sort()
                del top[:-k]
                self._entered_until = hi
            if self.tbui is not None:
                for b in range((lo // u + 1) * u, end + 1, u):
                    self.tbui.ingest_unit(b - u, self.scores[b - u : b])
            lo = end
            if end == stop:
                self._at_boundary(end)
        if streak and self._entered_until == hi:
            # arrivals entered in this slide and the one before: the next
            # one is likely to take some too, and a scan would cost more
            # than its plain pass
            quiet = hi
        else:
            quiet = self._next_ingest_event(hi)
        self._quiet_ingest = quiet
        # min() without its ~0.1 us call, which a busy slide would pay in
        # each hook that did work
        bound = self._quiet_expiry + self.q.n
        self._quiet_until = quiet if quiet < bound else bound

    def _next_boundary(self, lo: int) -> int:
        """The first point after ``lo`` where the rear is sealed or grows a unit."""
        rear = self.rear
        return min(
            rear.start + self.q.n,
            lo + self.u_len - (lo - rear.start) % self.u_len,
        )

    def _next_ingest_event(self, hi: int) -> int:
        """``_quiet_ingest`` after a call that did work up to ``hi``.

        A later call that ends at or before it has nothing to do: it is
        the first later arrival at or above the rear's k-th score, one
        before the next boundary or TBUI unit end (``cap``), or the end of
        the arrivals extended so far, whichever comes first.

        ``_ahead`` holds the last scan's first ≤ k such arrivals as
        ``(score, t)``, newest first; each call pops those behind ``hi``
        or now below the k-th score, which only rises until the next
        boundary, past ``cap``. An empty list is refilled by a scan from
        ``_ahead_end``: ``cap``, or one past the newest entry of a list
        cut at k.
        """
        cap = min(self._next_boundary(hi) - 1, len(self.scores))
        if self.tbui is not None:
            cap = min(cap, (hi // self.u_len + 1) * self.u_len - 1)
        k, top, ahead = self.q.k, self.rear.topk, self._ahead
        if len(top) < k:
            return hi  # every arrival enters the rear's top-k
        floor = top[0][0]
        while ahead and (ahead[-1][1] < hi or ahead[-1][0] < floor):
            ahead.pop()
        lo = max(hi, self._ahead_end)
        if not ahead and lo < cap:
            seg = self.scores[lo:cap]
            idx = (seg >= floor).nonzero()[0][:k]
            ahead += zip(seg[idx].tolist()[::-1], (idx + lo).tolist()[::-1])
            self._ahead_end = lo + int(idx[-1]) + 1 if len(idx) == k else cap
        return ahead[-1][1] if ahead else cap

    def _at_boundary(self, end: int) -> None:
        """Seal, split or grow the rear once it holds ``[start, end)``."""
        size = end - self.rear.start
        if self.mode == "equal" or size == self.q.n:
            # equal mode: the partition is full. Hard cap: a partition
            # can never outgrow the window — its oldest object is about
            # to expire, so it must be sealed now.
            self._seal(end)
            return
        units = size // self.u_len
        if units >= 2 and (units > self.max_units or self._wrt_improper(end)):
            self._split_seal(end)
        self._unit_start_topk = list(self.rear.topk)

    def _wrt_improper(self, end: int) -> bool:
        """WRT evaluation F(P'_m^k, I_ηk) at a unit boundary (§4.2).

        The interval's top-ηk is read off the *candidate set* (the paper
        "visits the top-ηk candidates whose arrival times are within
        [t0−n+|Pm|, t0)") rather than re-scanning raw scores. ``end`` is
        one past the rear's newest arrival.
        """
        rear_topk = [sc for sc, _ in self.rear.topk]  # k entries: ≥ 2 units
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
        return partition_improper(rear_topk, top_eta)

    def _seal(self, end: int) -> None:
        """Finalize the whole rear partition and open a fresh one."""
        self.rear.end = end
        self._finalize(self.rear)
        self.rear = SAPPartition(end)

    def _split_seal(self, end: int) -> None:
        """Finalize the rear minus its last unit; the unit starts anew.

        The older half's top-k is the rear's top-k as it stood when the
        last unit began; the unit's own top-k is read off TBUI's summary
        of a k-unit, or else selected from its scores.
        """
        split = end - self.u_len
        sealed = SAPPartition(self.rear.start)
        sealed.end = split
        sealed.topk = self._unit_start_topk
        # as merging the older units' top-k lists would examine
        self.metrics.examined += (split - self.rear.start) // self.u_len * self.q.k
        self._finalize(sealed)
        fresh = SAPPartition(split)
        fresh.topk = self._unit_topk(split, end)
        self.rear = fresh

    def _unit_topk(self, lo: int, hi: int) -> list[tuple[float, int]]:
        """Exact top-k of the unit ``[lo, hi)``, ascending."""
        if self.tbui is not None and self.tbui.labels:
            last = self.tbui.labels[-1]
            if last.kind == "k" and (last.start, last.end) == (lo, hi):
                # a k-unit's summary is its top-k (its U^τ holds ≥ k objects)
                return last.summary[::-1]
        seg = self.scores[lo:hi]
        cut = len(seg) - self.q.k
        idx = np.flatnonzero(seg >= np.partition(seg, cut)[cut])
        return sorted(zip(seg[idx].tolist(), (idx + lo).tolist()))[-self.q.k :]

    def _finalize(self, part: SAPPartition) -> None:
        """Seal bookkeeping: merge P^k into C (+ eager M when non-delay)."""
        if self.tbui is not None:
            assert part.end is not None
            part.labels = self.tbui.labels_for(part.start, part.end)
        inserted, refined = self.C.merge_topk(part.topk_desc(), self.q.k)
        self.metrics.insertions += inserted
        self.metrics.deletions += refined
        self.metrics.examined += len(self.C)
        self.metrics.partitions_sealed += 1
        part.cand_ts = sorted(t for _, t in part.topk)
        self.sealed.append(part)
        if not self.delay:
            # non-delay strawman: eager M with ρ=0 and no global bound
            part.rho = 0
            part.m = self._form_meaningful(part, rho=0, f_theta=float("-inf"))

    # ----------------------------------------------------------- expiries
    def _expire_range(self, lo: int, hi: int) -> None:
        """Expire one slide, ``t ∈ [lo, hi)``, in one pass.

        Partitions hold whole slides, so the slide lies inside the front
        partition. Work is done only at the C members among the expiring
        objects (removal plus an ``M_0`` promotion) and at UBSA deep-scan
        horizons, in ``t`` order and with a removal before a deep scan at
        the same ``t``, as an object-by-object drain orders them. The C
        members come off ``front.cand_ts``, a min-heap whose entries that
        have left C are popped as they reach the top; each promotion is
        pushed onto it, so one that expires later in the slide is
        drained in the same pass. A promotion is never already on the
        heap: an object refined out of C has k newer, higher objects, so
        it scores below Fθ and no ``M_0`` holds it.

        A slide that ends at or before ``_quiet_expiry`` returns at once.
        That horizon is the first of: the front's last object, its oldest
        C member, the report's oldest object and the next deep-scan
        horizon. It is 0 until a new front is readied, is set after each
        slide that did work, and drops to the oldest reported object at
        each report recomputed in between (see ``topk``); ``_quiet_until``
        follows it each time.
        """
        if hi <= self._quiet_expiry:
            return
        front = self.sealed[0]
        if front.rho is None:
            self._ready_front(front)
        if lo <= self._report_min_t < hi:
            # the first reported object to expire is the report's oldest;
            # other expiries leave the window's top-k as it is
            self._report = None
        C, m, scores, ts = self.C, front.m, self.scores, front.cand_ts
        # only a UBSA-built M holds k-unit summaries; the exact skyband of
        # use_savl=False already covers every unit
        labels = front.labels if m is not None and self.use_savl else None
        while True:
            while ts and ts[0] not in C:
                heapq.heappop(ts)
            t = ts[0] if ts and ts[0] < hi else hi
            if labels and front.deep_idx < len(labels):
                # the first t within one unit of the next label's start
                drain_t = max(lo, labels[front.deep_idx].start - self.u_len)
                if drain_t < t:
                    self._deep_scan(front, drain_t)
                    continue
            if t == hi:
                break
            heapq.heappop(ts)
            C.remove(float(scores[t]), t)
            self.metrics.deletions += 1
            if m is not None:
                promoted = m.pop_max(t + 1)
                if promoted is not None:
                    C.insert(promoted[0], promoted[1])
                    self.metrics.insertions += 1
                    heapq.heappush(ts, promoted[1])
        if hi == front.end:
            self.sealed.popleft()
            if self.tbui is not None:
                self.tbui.drop_before(hi)
            quiet = 0
        else:
            quiet = min(front.end - 1, ts[0]) if ts else front.end - 1
            if self._report is not None:
                quiet = min(quiet, self._report_min_t)
            if labels and front.deep_idx < len(labels):
                quiet = min(quiet, labels[front.deep_idx].start - self.u_len)
        self._quiet_expiry = quiet
        bound, ingest = quiet + self.q.n, self._quiet_ingest
        self._quiet_until = ingest if ingest < bound else bound

    def _ready_front(self, front: SAPPartition) -> None:
        """Compute ρ and (maybe) form M for the partition now at the front.

        Deferred to the moment the partition reaches the front
        (Algorithm 1's delay policy): only now is ρ final enough to
        skip useless M formations, and only now is the global bound Fθ
        drawn from objects guaranteed to outlive the front.
        """
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
            ms.add([self._exact_skyband(lo, part.end, cap, f_theta)])
            return ms
        if part.labels:
            self._ubsa(ms, part, lo, cap, f_theta)
            return ms
        savl = SAVL(cap)
        self._scan(savl, lo, part.end, f_theta)
        ms.add(savl.stacks)
        return ms

    def _scan(
        self, savl: SAVL, lo: int, hi: int, f_theta: float, skip=()
    ) -> None:
        """Reverse scan: offer ``t ∈ [lo, hi)``, newest first, to ``savl``.

        C members and ``skip`` are passed over; every other object counts
        as examined and is offered when it scores at least ``f_theta``.
        One numpy pass finds the objects at or above ``f_theta``, so only
        those are visited one by one; the examined count is the range
        less the C members and ``skip`` entries in it.
        """
        C = self.C
        seg = self.scores[lo:hi]
        idx = (seg >= f_theta).nonzero()[0][::-1]
        for sc, t in zip(seg[idx].tolist(), (idx + lo).tolist()):
            if t not in C and t not in skip:
                savl.offer(sc, t)
        passed = C.count_between(lo, hi) + sum(
            1 for t in skip if lo <= t < hi and t not in C
        )
        self.metrics.examined += len(seg) - passed

    def _exact_skyband(
        self, lo: int, hi: int, cap: int, f_theta: float
    ) -> list[tuple[float, int]]:
        """No-S-AVL formation: exact skyband via full dominance counts.

        Returned sorted ascending, so that it is one stack of ``M_0``.
        """
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
        return sorted(kept)

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
        labels = part.labels  # whole units, in t order, with no gap
        main = SAVL(cap)
        for lab in reversed(labels):  # newest first
            if lab.kind == "non":
                if lab.summary[0][0] < f_theta:
                    self.metrics.units_skipped += 1
                    continue
                self._scan(main, max(lab.start, lo), lab.end, f_theta)
            else:
                entries = [
                    (sc, t)
                    for sc, t in lab.summary
                    if t not in self.C and sc >= f_theta and t >= lo
                ]
                ms.add([sorted(entries)])
        # A partition can end or start mid-unit, where no label reaches:
        # the hard-cap seal (size == n) ends one mid-unit whenever n is
        # not a multiple of u_len (e.g. n=90, k=45, s=3: u_len=63), and
        # the next one then starts there. Each such span is scanned
        # plainly into its own S-AVL, the tail before the head.
        for a, b in ((labels[-1].end, part.end), (part.start, labels[0].start)):
            if a < b:
                extra = SAVL(cap)
                self._scan(extra, max(a, lo), b, f_theta)
                ms.add(extra.stacks)
        ms.add(main.stacks)

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
            if lab.kind != "k":
                continue
            f_theta = self._f_theta(front)
            if lab.summary[-1][0] < f_theta:
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
            front.m.add(deep.stacks)

    # ------------------------------------------------------------ results
    def topk(self) -> list[int]:
        """The window's top-k: a copy of the cached report when still valid.

        The report is the top-k of ``C ∪ P_rear^k ∪ M_0``, which holds
        the window's top-k. It is dropped only when that can change: the
        report's oldest ``t`` expires, or an arrival scores at or above
        its k-th score. Seals, ``C`` changes and ``M_0`` work keep it.
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
            self._report_kth = merged[-1][0]
            self._quiet_expiry = min(self._quiet_expiry, self._report_min_t)
            bound, ingest = self._quiet_expiry + self.q.n, self._quiet_ingest
            self._quiet_until = ingest if ingest < bound else bound
        return list(self._report)

    def candidate_count(self) -> int:
        """Alive entries of ``C ∪ P_rear^k ∪ M_0``.

        ``C`` and the rear's top-k hold no expired entry; ``M_0`` may, under
        an alive top, and those are not counted.
        """
        count = len(self.C) + len(self.rear.topk)
        m = self.sealed[0].m if self.sealed else None
        if m is not None:
            count += m.size(self.window_start)
        return count
