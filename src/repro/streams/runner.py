"""Sequential driver: run one algorithm over one stream, collect metrics.

This is the single code path used by the pure-python tests, the Spark
micro-batch operator (per group) and the distributed sweep harness
(per table cell) — so correctness checks and benchmark numbers exercise
exactly the same implementation.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.kskyband import KSkyband
from repro.baselines.mintopk import MinTopK
from repro.baselines.sma import SMA
from repro.core.base import StreamTopK
from repro.core.metrics import Metrics
from repro.core.naive import all_windows_topk
from repro.core.query import TopKQuery
from repro.core.sap import SAP

#: algorithm name -> factory(query, **opts); an option the algorithm
#: does not take, a SAP ``mode`` included, raises ``TypeError``
ALGORITHMS = {
    "kskyband": KSkyband,
    "mintopk": MinTopK,
    "sma": SMA,
    "sap-equal": lambda q, **o: SAP(q, mode="equal", **o),
    "sap-dynamic": lambda q, **o: SAP(q, mode="dynamic", **o),
    "sap-enhanced": lambda q, **o: SAP(q, mode="enhanced", **o),
}


@dataclass
class RunResult:
    """Output of one algorithm run over one stream."""

    algo: str
    q: TopKQuery
    metrics: Metrics
    results: list[np.ndarray] = field(default_factory=list)  # per window


def make_algorithm(name: str, q: TopKQuery, **opts) -> StreamTopK:
    """Instantiate a registered algorithm."""
    if name not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {name!r}: {sorted(ALGORITHMS)}")
    return ALGORITHMS[name](q, **opts)


def run_stream(
    name: str,
    scores: np.ndarray,
    q: TopKQuery,
    *,
    collect_results: bool = True,
    **opts,
) -> RunResult:
    """Run algorithm ``name`` over the full stream.

    Emits one top-k per window position and samples the candidate count
    at every emission. ``wall_time_s`` covers only the algorithm's own
    calls (``attach`` and each step of ``windows``): data generation,
    the candidate-count samples and result collection are observation
    and stay outside the clock.
    """
    if name == "naive":
        t0 = time.perf_counter()
        results = all_windows_topk(scores, q)
        m = Metrics()
        m.wall_time_s = time.perf_counter() - t0
        return RunResult("naive", q, m, results if collect_results else [])

    algo = make_algorithm(name, q, **opts)
    results: list[np.ndarray] = []
    clock = time.perf_counter
    elapsed = 0.0
    t0 = clock()
    algo.attach(scores)
    for ids in algo.windows(0, q.num_windows(len(scores))):
        elapsed += clock() - t0
        algo.metrics.sample(algo.candidate_count())
        if collect_results:
            results.append(np.asarray(ids, dtype=np.int64))
        t0 = clock()
    algo.metrics.wall_time_s = elapsed
    return RunResult(algo.name, q, algo.metrics, results)
