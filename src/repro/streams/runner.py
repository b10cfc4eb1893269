"""Sequential driver: run one algorithm over one stream, collect metrics.

The algorithm registry and ``run_stream``, used by the pure-python tests
and the distributed sweep harness (per table cell). ``run_stream`` and
the incremental driver the Spark operators use both go through
``StreamTopK.windows``, so correctness checks and benchmark numbers
exercise exactly the same loop.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.kskyband import KSkyband
from repro.baselines.mintopk import MinTopK
from repro.baselines.sma import SMA
from repro.core.base import StreamTopK
from repro.core.metrics import Metrics
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

    metrics: Metrics
    results: np.ndarray  # (windows, k) arrival indices, best-first


def make_algorithm(name: str, q: TopKQuery, **opts) -> StreamTopK:
    """Instantiate a registered algorithm."""
    if name not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {name!r}: {sorted(ALGORITHMS)}")
    return ALGORITHMS[name](q, **opts)


def run_stream(name: str, scores: np.ndarray, q: TopKQuery, **opts) -> RunResult:
    """Run algorithm ``name`` over the full stream.

    Emits one top-k per window position through the algorithm's window
    loop (``StreamTopK.windows``), which also samples the candidate
    count and times each window's step into ``wall_time_s``.
    """
    algo = make_algorithm(name, q, **opts)
    algo.attach(scores)
    return RunResult(algo.metrics, np.array(list(algo.windows()), dtype=np.int64))
