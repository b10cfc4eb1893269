"""Fingerprints of every SAP variant on the benchmark's three query shapes.

Each workload of ``perfbench/workloads.py`` is repeated here by its
parameters (dataset, stream length, ``n``, ``k``, ``s``) and run on its
stream 0 of seed 0. Per variant, the test pins the sha256 of the windows
block (little-endian int64, row by row) and of the ``Metrics`` row less
``wall_time_s`` (JSON, keys sorted). A refactor of the core must leave
both unchanged: every emitted top-k and every counter the tables use.
"""
from __future__ import annotations

import functools
import hashlib
import json

import numpy as np
import pytest

from repro.core.query import TopKQuery
from repro.streams.datasets import gen_stream
from repro.streams.runner import run_stream

from .test_metrics import _SAP_VARIANTS

# workload -> (dataset, length, query), as in perfbench/workloads.py
_WORKLOADS = {
    "regular-timeu": ("TIMEU", 24_000, TopKQuery(n=2_400, k=25, s=2)),
    "high-timer": ("TIMER", 60_000, TopKQuery(n=30_000, k=50, s=600)),
    "spark-stock": ("STOCK", 24_000, TopKQuery(n=2_400, k=25, s=24)),
}

# every variant emits the same windows
_WINDOWS_SHA256 = {
    "regular-timeu": "591580868baee97f61d9adaaf5c2aa17992d1a84668a4df952f2f78ec5ca231f",
    "high-timer": "c29168024cd83776109dc900e3c8dbc67af675801a947bb7541b25bec7214c35",
    "spark-stock": "93b02a3872713f1d2998769c7e1824d49f595cb6f1aa9c3c2dde46a83b848030",
}

_ROW_SHA256 = {
    "regular-timeu": {
        "equal": "fac75092108eca7a1e9c55c1a9025c0db0f834c779839003ea4913ed8494d324",
        "equal-nosavl": "fac75092108eca7a1e9c55c1a9025c0db0f834c779839003ea4913ed8494d324",
        "equal-nodelay": "c5affdc79810b9054dae7a46588bf3f4cd63d46cb9e3cf756f5f3b97e594968a",
        "equal-nodelay-nosavl": "12551d79c8b038e593b470be51ee9da339c5e6473b15c0d1f38dda374831e871",
        "dynamic": "02ef35d2450e0cd82c161ba08171a014ac56079d52900f5c5504fd87cf32155f",
        "dynamic-nosavl": "02ef35d2450e0cd82c161ba08171a014ac56079d52900f5c5504fd87cf32155f",
        "dynamic-nodelay": "4db348ed07a182a10f2bee2508897ee23955a6435fe2e8eb63b6a5895525a0a1",
        "dynamic-nodelay-nosavl": "e007308156c1407400f3ec5e30fd32551c791644ef71f6978fe917f186f14221",
        "enhanced": "a049773c82c77679b4bc8048ff3788e5ef18ffab8364aa0f8adfb5a343a2964b",
        "enhanced-nosavl": "a049773c82c77679b4bc8048ff3788e5ef18ffab8364aa0f8adfb5a343a2964b",
        "enhanced-nodelay": "582832fedfefca697c9c86f68af1809478e7b4e9f0c72b895413e7980de349d5",
        "enhanced-nodelay-nosavl": "29a4a97ac76fb5e8f1d94cd166a98574ecca028bc7c6e47f89bb03b51d574a79",
    },
    "high-timer": {
        "equal": "2c4ff757fea6d66f333f01f58b4a34bb54d2013ba2fa59a54fa541106f83a791",
        "equal-nosavl": "4506000188a7b363ccb47972b50f5dae1bd57fa266dfbfe745b53243240242a3",
        "equal-nodelay": "9fbc97ea93271308be60ede263a76884b920b2f29976a8974cbf56c17ee13feb",
        "equal-nodelay-nosavl": "0f027f5d0da85cfe42fabe958265ab902beb14b88697e03b2fe30ac13484b673",
        "dynamic": "cec39690d4020f489350d640bc8ee2e7869341d0c4ad7b922e3a94b939b20876",
        "dynamic-nosavl": "81aa5d2cbfcbf2ab9b02b1056896ecd9652420b8feb0461c681f0f8c7633688c",
        "dynamic-nodelay": "a9851abe019791c1939f8f6091e2a0a50e02bd8acecbd94f1856e104c5b8e811",
        "dynamic-nodelay-nosavl": "b07276a0032068f6548084b5282f8e01cccf3622c364711335bdc296c48d86c9",
        "enhanced": "66b55781bdb98a06dc7dbff11a5a075f00a0f621d7666ad032bd6fa24d71ccac",
        "enhanced-nosavl": "37d104e3374301bf9cec09f0bd2487487479fa8d09d9039cb1ed5272ed5f19bb",
        "enhanced-nodelay": "44f845aacee3b2504d6b93bbfcc6e40818e7a0d6ff274a939135281bcc641ab0",
        "enhanced-nodelay-nosavl": "15f406697aadf28876e173991157aeebde2973cfddd58aee96a8e97e2c7f6f6d",
    },
    "spark-stock": {
        "equal": "0813d69e3fa3b4e9637c6d70fb5bfb0104253d95e800f1a883478cebd6ce14cd",
        "equal-nosavl": "5672b1064a9e43799c9b5f3b504594b94a32736aed9e9145eede2973810c69e7",
        "equal-nodelay": "62520e05da99dd0271a1a0c574149e7b0cb1382c9f2bd692bb9de54ad0613f84",
        "equal-nodelay-nosavl": "811a17818fa2449f6028e1e7412d1e1f7276804a32efc334b8754203215197ab",
        "dynamic": "2a34f9bb02feed0e90f5282a11fe3460f553348638a03b70dc471ce0c720ee6e",
        "dynamic-nosavl": "b77e83c0164283d5ceeb7e2bfd71f7a9d238aa94fc6f782d1b7e9458410b33e0",
        "dynamic-nodelay": "2b066c443880cba7590dac5ff0d7d75271b503bcec33401f45263bc77b0d3f6b",
        "dynamic-nodelay-nosavl": "41cd7cc8f6d046e180af1dbe4edb22b8af4f518601833d2496cbc255afee4a74",
        "enhanced": "447ff8bcb84c3934e242567e7019a24a11110b7b1149a6ed4617193a418d2d70",
        "enhanced-nosavl": "5c3b6a39e3fd1a7b217989bda55bfcfe87f51efd666b040bdfa5cc00c964b3de",
        "enhanced-nodelay": "220764847660471e3576793d4ec0f6b27f51e40a44a217b58b69774970e0f76a",
        "enhanced-nodelay-nosavl": "7d7798fbca89a010d9a12e328b9ccf0f84196c9d3a6d18c57e0930d3ea574068",
    },
}


@functools.cache
def _stream(workload: str) -> np.ndarray:
    ds, length, _ = _WORKLOADS[workload]
    return gen_stream(ds, length, seed=0)


@pytest.mark.parametrize("variant", sorted(_SAP_VARIANTS))
@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_sap_fingerprint_on_workload_query(workload, variant):
    algo, opts = _SAP_VARIANTS[variant]
    r = run_stream(algo, _stream(workload), _WORKLOADS[workload][2], **opts)
    row = r.metrics.as_row()
    del row["wall_time_s"]
    windows = hashlib.sha256(r.results.astype("<i8").tobytes()).hexdigest()
    metrics = hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()
    assert (windows, metrics) == (
        _WINDOWS_SHA256[workload], _ROW_SHA256[workload][variant]
    )
