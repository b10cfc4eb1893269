"""The benchmark's workloads: one paper-grid query and one stream family each.

Every workload runs the same paths on its own streams, so every run
reports the same metrics. What differs is which layer the query and the
data stress; see METRICS.md.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.query import TopKQuery
from repro.harness.grids import HIGH_SPEED, REGULAR
from repro.streams.datasets import gen_stream


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    length: int  # objects per stream
    q: TopKQuery
    sap_streams: int  # streams per SAP pass (baselines take the first one)
    trace_streams: int  # streams in the traced SAP pass

    def streams(self, seed: int, count: int) -> list[np.ndarray]:
        """``count`` streams; stream ``i`` depends only on (seed, i)."""
        return [
            gen_stream(self.dataset, self.length, seed=seed * 1000 + i)
            for i in range(count)
        ]


_REG_Q = TopKQuery(n=REGULAR.n_default, k=REGULAR.k_default, s=REGULAR.s_default)
_HIGH_Q = TopKQuery(
    n=HIGH_SPEED.n_default, k=HIGH_SPEED.k_default, s=HIGH_SPEED.s_default
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "regular-timeu", "TIMEU", REGULAR.length, _REG_Q,
            sap_streams=4, trace_streams=2,
        ),
        Workload(
            "high-timer", "TIMER", HIGH_SPEED.length, _HIGH_Q,
            sap_streams=20, trace_streams=5,
        ),
        Workload(
            "spark-stock", "STOCK", REGULAR.length,
            TopKQuery(n=REGULAR.n_default, k=REGULAR.k_default, s=24),
            sap_streams=24, trace_streams=4,
        ),
    )
}
