"""SAP over one stream of each of perfbench's query shapes, timed.

One case per shape, built from the paper grids (``repro.harness.grids``)
and ``gen_stream``:

* ``regular`` — TIMEU at the regular-speed defaults (n=2400, k=25, s=2);
* ``high``    — TIMER at the high-speed defaults (n=30000, k=50, s=600);
* ``stock``   — STOCK at the regular defaults with s=24, the query the
  Spark operators run.

Each ``test_sap_stream`` case times ``run_stream("sap-enhanced", …)``
over a few rounds; each ``test_sap_closed_loop`` case times perfbench's
untraced loop on the same stream (``attach``, ``warmup`` and ``topk``,
then ``slide(j)`` and ``topk()`` per window), which samples no
``candidate_count()`` and so shows the cost of a slide alone; each
``test_driver_emission`` case times the stream fed to an
``IncrementalDriver`` in 10 chunks, plus framing its rows as the Spark
operators do (``pd.DataFrame(rows)``). All check every emitted window
against the numpy naive re-sort. A case takes a few seconds, most of it
the naive reference. Run with ``pytest benchmarks/bench_core.py``.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.naive import all_windows_topk
from repro.core.query import TopKQuery
from repro.harness.grids import HIGH_SPEED, REGULAR
from repro.streams.datasets import gen_stream
from repro.streams.incremental import IncrementalDriver
from repro.streams.runner import make_algorithm, run_stream

SHAPES = {
    "regular": ("TIMEU", REGULAR, REGULAR.s_default),
    "high": ("TIMER", HIGH_SPEED, HIGH_SPEED.s_default),
    "stock": ("STOCK", REGULAR, 24),  # one of REGULAR.s_sweep
}


@pytest.mark.parametrize("shape", SHAPES)
def test_sap_stream(benchmark, shape):
    ds, spec, s = SHAPES[shape]
    q = TopKQuery(n=spec.n_default, k=spec.k_default, s=s)
    scores = gen_stream(ds, spec.length, seed=spec.seed)
    result = benchmark.pedantic(
        lambda: run_stream("sap-enhanced", scores, q),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    np.testing.assert_array_equal(result.results, all_windows_topk(scores, q))


@pytest.mark.parametrize("shape", SHAPES)
def test_sap_closed_loop(benchmark, shape):
    ds, spec, s = SHAPES[shape]
    q = TopKQuery(n=spec.n_default, k=spec.k_default, s=s)
    scores = gen_stream(ds, spec.length, seed=spec.seed)

    def closed_loop():
        algo = make_algorithm("sap-enhanced", q)
        algo.attach(scores)
        algo.warmup()
        out = [algo.topk()]
        for j in range(1, q.num_windows(len(scores))):
            algo.slide(j)
            out.append(algo.topk())
        return out

    out = benchmark.pedantic(closed_loop, rounds=5, iterations=1, warmup_rounds=1)
    np.testing.assert_array_equal(out, all_windows_topk(scores, q))


@pytest.mark.parametrize("shape", SHAPES)
def test_driver_emission(benchmark, shape):
    ds, spec, s = SHAPES[shape]
    q = TopKQuery(n=spec.n_default, k=spec.k_default, s=s)
    scores = gen_stream(ds, spec.length, seed=spec.seed)
    chunks = np.array_split(scores, 10)

    def feed_and_frame():
        drv = IncrementalDriver("sap-enhanced", q)
        return [pd.DataFrame(drv.feed(c)) for c in chunks]

    frames = benchmark.pedantic(
        feed_and_frame, rounds=5, iterations=1, warmup_rounds=1
    )
    got = pd.concat(frames)["t"].to_numpy().reshape(-1, q.k)
    np.testing.assert_array_equal(got, all_windows_topk(scores, q))
