"""The sequential core and the baselines, driven closed-loop from outside.

The loop is the one ``repro.streams.runner.run_stream`` runs, minus its
``candidate_count()`` sampling: ``attach``/``warmup``/``topk`` for window
0, then ``slide(j)`` + ``topk()`` per window. The next slide is handed
over only after the previous top-k is back. ``candidate_count()`` runs
only in the traced pass, where it is timed as its own span.

The untraced run times SAP only; the baselines, whose single pass over a
high-speed stream takes seconds, are timed in the traced run.
"""
from __future__ import annotations

import gc
import os
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import fmean

import numpy as np

from repro.core.naive import all_windows_topk
from repro.streams.runner import make_algorithm

from check import wrong_windows
from spans import Tracer
from speed import scale, spin_ms

#: short name -> (registered algorithm, span prefix)
ALGOS = {
    "sap": ("sap-enhanced", "core.sap"),
    "mintopk": ("mintopk", "baselines.mintopk"),
    "kskyband": ("kskyband", "baselines.kskyband"),
    "sma": ("sma", "baselines.sma"),
}

#: SAP passes in an untraced run: at least MIN_PASSES, more while
#: ``--seconds`` lasts
MIN_PASSES = 5
#: alternating untraced/traced SAP passes behind the tracing overhead
TRACE_PAIRS = 4
#: the CPUs the run may use; pass i runs on _CPUS[i % len(_CPUS)]
_CPUS = sorted(os.sched_getaffinity(0))

SAP_COUNTERS = (
    "insertions",
    "deletions",
    "examined",
    "m_formations",
    "units_skipped",
    "partitions_sealed",
)
SMA_COUNTERS = ("rescans", "rescan_examined")


@dataclass
class LoopStats:
    """Passes of one algorithm over the same streams.

    Throughput and p50 come from each pass as a whole, with stream times
    and window latencies scaled to reference speed (see ``speed``) by the
    spins taken around each stream; the run reports the median pass.

    p99 is taken over each window's latency averaged across the passes,
    the highest and lowest tenth of them left out (at least one each), and
    is scaled by the run's median factor. An interrupt lands on a window in
    one pass and is left out, while a slow window the data causes is slow
    in every pass. The windows that set regular-timeu's p99 (the ~0.5 %
    that ready or drop the front partition, 20-35 us) slow down more than
    the rest and than the spin when the host is busy, so a per-window
    median flipped with whichever state held most passes of a run. Over
    ten seeds in a busy hour, this trimmed mean spread 0.05 IQR/median,
    against 0.12 for the per-window median of spin-scaled latencies; over
    eight seeds in a quieter hour both stayed at or under 0.05.
    """

    objects: int = 0  # per pass
    windows: int = 0  # checked, over all passes
    wrong: int = 0
    passes: int = 0
    walls: list[list[float]] = field(default_factory=list)  # [pass][stream]
    factors: list[list[float]] = field(default_factory=list)  # [pass][stream]
    latencies: list[list[np.ndarray]] = field(default_factory=list)

    def end_to_end(self, scaled: bool = True) -> dict[str, float]:
        f = np.asarray(self.factors) if scaled else np.ones_like(self.walls)
        rates, p50s = [], []
        for walls, fp, lats in zip(self.walls, f, self.latencies):
            rates.append(self.objects / float(np.dot(walls, fp)))
            scaled_lat = np.concatenate([x * fi for x, fi in zip(lats, fp)])
            p50s.append(np.percentile(scaled_lat, 50))
        per_window = np.concatenate(
            [_trimmed_mean(np.stack(per)) for per in zip(*self.latencies)]
        )
        p99 = float(np.percentile(per_window, 99) * np.median(f))
        return {
            "sap_obj_per_s": float(np.median(rates)),
            "report_p50_us": float(np.median(p50s)) * 1e6,
            "report_p99_us": p99 * 1e6,
        }


def _trimmed_mean(lat: np.ndarray) -> np.ndarray:
    """Per column of a (passes, windows) array: the mean without the
    highest and lowest tenth of the passes, at least one of each."""
    cut = max(1, round(0.1 * len(lat)))
    return np.sort(lat, axis=0)[cut:-cut].mean(axis=0)


@contextmanager
def _collector_off():
    """As ``timeit`` does: collect garbage first, keep the cyclic collector
    off while a stream is timed. Its pauses otherwise land on about 1 % of
    regular-timeu's windows, set report_p99_us there and move it by a
    third from run to run, largely because of the top-k lists the
    benchmark keeps for the check.

    What survives the collection is frozen, so the next collection skips
    it. A full collection walks every object of the process, pyspark and
    pandas included: ~50 ms per stream, a sixth of a regular-timeu pass
    that the run could spend timing instead."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@contextmanager
def _pinned(i: int):
    """Run pass ``i`` on one CPU, the next pass on the next one.

    The vCPUs of a shared host are slowed by other tenants one at a time,
    in spells of seconds, and unpinned the scheduler moves the loop between
    them mid-stream. On regular-timeu, where p99 falls among the ~0.5 % of
    windows that ready or drop the front partition (20-35 us), this moved
    p99 by 0.21 IQR/median over eight seeds; with the passes pinned in
    rotation it was 0.04 over the same seeds, run interleaved.
    """
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {_CPUS[i % len(_CPUS)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _timed_stream(algo_name: str, scores: np.ndarray, q):
    """One stream through the closed loop: (per-window ``slide`` + ``topk``
    seconds, top-ks, seconds from ``attach`` to the last report)."""
    clock = time.perf_counter
    algo = make_algorithm(algo_name, q)
    n_windows = q.num_windows(len(scores))
    lat: list[float] = []
    out: list[list[int]] = []
    t0 = clock()
    algo.attach(scores)
    algo.warmup()
    out.append(algo.topk())
    for j in range(1, n_windows):
        a = clock()
        algo.slide(j)
        ids = algo.topk()
        lat.append(clock() - a)
        out.append(ids)
    return np.asarray(lat), out, clock() - t0


def _checked_pass(stats: LoopStats, algo_name, streams, q, ref_of) -> None:
    """One timed pass over ``streams``, each checked after its timing, on
    the CPU whose turn it is.

    A stream whose run raises counts all its windows as wrong, and infinite
    time, so that its algorithm's rate reads 0.
    """
    lats, walls, factors = [], [], []
    objects = 0
    with _pinned(stats.passes):
        for i, scores in enumerate(streams):
            ref = ref_of(i)
            stats.windows += len(ref)
            objects += len(scores)
            before = spin_ms()
            try:
                with _collector_off():
                    lat, out, wall = _timed_stream(algo_name, scores, q)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                stats.wrong += len(ref)
                lat, wall = np.full(len(ref) - 1, np.inf), float("inf")
            else:
                stats.wrong += wrong_windows(out, ref)
            factors.append(scale(before, spin_ms()))
            walls.append(wall)
            lats.append(lat)
    stats.objects = objects
    stats.passes += 1
    stats.walls.append(walls)
    stats.factors.append(factors)
    stats.latencies.append(lats)


def measure(wl, streams, ref_of, seconds: float) -> LoopStats:
    """Untraced timed SAP passes over ``streams``."""
    st = LoopStats()
    start = time.perf_counter()
    while st.passes < MIN_PASSES or time.perf_counter() - start < seconds:
        _checked_pass(st, ALGOS["sap"][0], streams, wl.q, ref_of)
    return st


def _traced_stream(tracer: Tracer, algo_name, prefix, scores, q):
    """The same loop with a span around every call into the layer, plus a
    ``candidate_count()`` sample per window. Returns (top-ks, algorithm,
    wall seconds, ids of the slide spans that formed an M set)."""
    clock = time.perf_counter
    algo = make_algorithm(algo_name, q)
    out = []
    mform_spans = []
    t0 = clock()
    with tracer.span(f"{prefix}.attach"):
        algo.attach(scores)
    with tracer.span(f"{prefix}.warmup"):
        algo.warmup()
    for j in range(q.num_windows(len(scores))):
        if j:
            before = algo.metrics.m_formations
            sid = len(tracer.names)
            with tracer.span(f"{prefix}.slide"):
                algo.slide(j)
            if algo.metrics.m_formations > before:
                mform_spans.append(sid)
        with tracer.span(f"{prefix}.topk"):
            out.append(algo.topk())
        with tracer.span(f"{prefix}.candidate_count"):
            c = algo.candidate_count()
        algo.metrics.candidate_samples.append(c)
    return out, algo, clock() - t0, mform_spans


def trace(wl, streams, ref_of, tracer: Tracer) -> tuple[dict, int, int]:
    """Per-layer metrics of the core and the baselines, the baselines'
    throughput, the tracing overhead and the numpy naive yardstick. Returns
    (metrics, windows checked, wrong windows).

    A baseline's throughput is its objects over the time spent inside its
    calls (``attach`` to the last ``topk``, from the spans) in one pass.

    The overhead is measured on SAP, whose calls are the shortest, over
    TRACE_PAIRS alternating untraced and traced passes: per stream the best
    traced time minus the best untraced one, summed. The traced time leaves
    out the ``candidate_count()`` calls that only the traced pass makes.
    Counts come from the first traced pass.
    """
    q = wl.q
    metrics: dict[str, float] = {}
    attempted = wrong = 0
    untraced, traced = [], []
    for key, (algo_name, prefix) in ALGOS.items():
        mine = streams[: wl.trace_streams] if key == "sap" else streams[:1]
        counts = dict.fromkeys(SAP_COUNTERS + SMA_COUNTERS, 0)
        samples: list[int] = []
        mform: list[int] = []
        first = len(tracer.names)
        for p in range(TRACE_PAIRS if key == "sap" else 1):
            if key == "sap":
                plain = LoopStats(passes=p)
                _checked_pass(plain, algo_name, mine, q, ref_of)
                untraced.append(plain.walls[0])
                attempted += plain.windows
                wrong += plain.wrong
            walls = []
            for i, scores in enumerate(mine):
                stream_first = len(tracer.names)
                with _pinned(p), _collector_off():
                    out, algo, wall, mf = _traced_stream(
                        tracer, algo_name, prefix, scores, q
                    )
                cc = tracer.durations(stream_first)[f"{prefix}.candidate_count"]
                walls.append(wall - sum(cc))
                attempted += len(out)
                wrong += wrong_windows(out, ref_of(i))
                if p == 0:
                    for c in counts:
                        counts[c] += getattr(algo.metrics, c)
                    samples.extend(algo.metrics.candidate_samples)
                    mform.extend(mf)
            if key == "sap":
                traced.append(walls)
        dur = tracer.durations(first)
        warm, slide, topk = (
            sum(dur[f"{prefix}.{call}"]) for call in ("warmup", "slide", "topk")
        )
        m = {
            "warmup_us_per_obj": fmean(dur[f"{prefix}.warmup"]) / q.n * 1e6,
            "slide_us": fmean(dur[f"{prefix}.slide"]) * 1e6,
            "topk_us": fmean(dur[f"{prefix}.topk"]) * 1e6,
            "examined": counts["examined"],
            "avg_candidates": fmean(samples),
        }
        if key == "sap":
            mform_s = [tracer.ends[s] - tracer.starts[s] for s in mform]
            m |= {
                "candidate_count_us": fmean(dur[f"{prefix}.candidate_count"])
                * 1e6,
                # 0 when no slide formed an M set (as on most regular-timeu seeds)
                "slide_mform_us": fmean(mform_s) * 1e6 if mform_s else 0.0,
                "topk_share": topk / (warm + slide + topk),
                **{c: counts[c] for c in SAP_COUNTERS},
                "peak_candidates": max(samples),
            }
        if key == "sma":
            m |= {c: counts[c] for c in SMA_COUNTERS}
        metrics |= {f"{prefix}.{name}": float(v) for name, v in m.items()}
        if key != "sap":
            inside = warm + slide + topk + sum(dur[f"{prefix}.attach"])
            metrics[f"{key}_obj_per_s"] = sum(map(len, mine)) / inside
    best_untraced = float(np.min(untraced, axis=0).sum())
    overhead = float(np.min(traced, axis=0).sum()) - best_untraced
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / best_untraced

    # numpy naive re-sort: the core's yardstick, and the check's referee
    first = len(tracer.names)
    with tracer.span("core.naive.all_windows_topk"):
        naive = all_windows_topk(streams[0], q)
    (naive_s,) = tracer.durations(first)["core.naive.all_windows_topk"]
    metrics["core.naive.obj_per_s"] = len(streams[0]) / naive_s
    attempted += len(naive)
    wrong += wrong_windows(naive, ref_of(0))
    return metrics, attempted, wrong

