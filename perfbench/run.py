"""Continuous top-k benchmark: the SAP core, the baselines and the Spark paths.

Run one workload from the repository root::

    python3 perfbench/run.py --workload high-timer --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (spans around every call into ``core``,
``baselines``, ``streams``, ``spark`` and ``oracle``). ``--workload all``
runs every workload in turn. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; ``failed``
counts emitted windows that differ from the naive reference. Files the
run writes (result, spans, Spark scratch) go under ``.perfbench_out/``.
See METRICS.md for what each metric is and which layer should move it.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: set-ups per run, each (imports + stream generation) in a fresh
#: interpreter; setup_s is their median
SETUP_REPEATS = 5
#: the Spark paths get one stream per core, at most this many
MAX_SPARK_STREAMS = 8

#: unit by metric-name suffix; the first match wins
_UNIT_SUFFIXES = (
    ("obj_per_s", "objects/s"),
    ("_us_per_obj", "us/object"),
    ("_us", "us"),
    ("_ms", "ms"),
    ("_s", "s"),
    ("_pct", "%"),
    ("_share", "ratio"),
    ("bytes", "bytes"),
    ("bytes_first", "bytes"),
    ("bytes_last", "bytes"),
)


def unit_of(name: str) -> str:
    for suffix, unit in _UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return "count"


def env_stamp(args, nproc: int, spark_conf: dict) -> dict:
    """What the run ran on; ``spin_ms`` shows how loaded the machine was."""
    import duckdb
    import numpy
    import pandas
    import pyarrow
    import pyspark

    from speed import spin_ms

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env=os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "duckdb": duckdb.__version__,
        "spark_conf": spark_conf,
        "git_commit": commit,
        "spin_ms": spin_ms(20),
    }


def stream_count(wl, trace: int) -> int:
    """Streams a run generates: traced runs need one per Spark core too."""
    n_spark = min(len(os.sched_getaffinity(0)), MAX_SPARK_STREAMS)
    return max(wl.sap_streams, n_spark) if trace else wl.sap_streams


def setup_sample(args) -> tuple[float, float]:
    """Seconds of one set-up (imports + stream generation) in a fresh
    interpreter, as measured and scaled by the spins taken right around it.

    The run's own set-up is not a sample: in a fresh checkout it also
    compiles the bytecode, which only the first run pays."""
    from speed import scale, spin_ms

    before = spin_ms()
    res = subprocess.run(
        [
            sys.executable, __file__, "--setup-only",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--trace", str(args.trace),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=ROOT,
    )
    seconds = float(res.stdout.split()[-1])
    return seconds, seconds * scale(before, spin_ms())


def run_workload(wl, args, imports_s: float) -> dict:
    out_dir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    try:
        return _run(wl, args, imports_s, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _run(wl, args, imports_s: float, out_dir: Path) -> dict:
    import core_phase
    from check import reference_topk
    from spans import Tracer

    nproc = len(os.sched_getaffinity(0))
    n_spark = min(nproc, MAX_SPARK_STREAMS)
    notes: dict[str, object] = {}
    a = time.perf_counter()
    streams = wl.streams(args.seed, stream_count(wl, args.trace))
    notes["own_setup_s"] = imports_s + time.perf_counter() - a

    with ThreadPoolExecutor(nproc) as pool:
        refs: dict[int, object] = {}

        def ref_of(i: int):
            if i not in refs:
                refs[i] = reference_topk(streams[i], wl.q, pool)
            return refs[i]

        if not args.trace:
            samples = [setup_sample(args) for _ in range(SETUP_REPEATS)]
            st = core_phase.measure(wl, streams, ref_of, args.seconds)
            raw, scaled = zip(*samples)
            notes["setup_samples_s"] = raw
            notes["passes"] = st.passes
            notes["report_windows"] = sum(len(x) for x in st.latencies[0])
            notes["unscaled"] = st.end_to_end(scaled=False) | {
                "setup_s": median(raw)
            }
            return {
                "env": env_stamp(args, nproc, {}),
                "attempted": st.windows,
                "failed": st.wrong,
                "metrics": st.end_to_end() | {"setup_s": median(scaled)},
                "notes": notes,
            }
        # the core passes run before the JVM exists, so it cannot disturb them
        tracer = Tracer()
        metrics, attempted, wrong = core_phase.trace(wl, streams, ref_of, tracer)
        spark_refs = [ref_of(i) for i in range(n_spark)]
    m, att, bad, spark_conf = _spark_layers(
        wl, streams[:n_spark], spark_refs, out_dir, tracer, nproc, notes
    )
    metrics |= m
    metrics |= {f"{layer}.self_s": v for layer, v in tracer.self_times().items()}
    return {
        "env": env_stamp(args, nproc, spark_conf),
        "attempted": attempted + att,
        "failed": wrong + bad,
        "metrics": metrics,
        "notes": notes,
        "spans": tracer.dump(),
    }


def _spark_layers(wl, streams, refs, out_dir, tracer, nproc, notes):
    """Traced-run Spark metrics: session set-up, the operator, the streaming
    query, the IncrementalDriver round trip and the Catalyst/DuckDB
    yardsticks. Returns (metrics, windows checked, wrong windows, conf)."""
    from spark_phase import (
        BATCHES,
        SparkBench,
        progress_metrics,
        stage,
        stream_frame,
    )

    metrics: dict[str, float] = {}
    attempted = wrong = 0
    windows = sum(len(r) for r in refs)
    bench = SparkBench(wl, streams, out_dir, tracer, nproc)
    try:
        a = time.perf_counter()
        frame = stream_frame(streams)
        stage(frame, BATCHES, out_dir / "stream-in")
        bench.start()
        bench.prepare(frame)
        cold_s, bad = bench.warm_up(refs)
        metrics["spark.setup_s"] = time.perf_counter() - a
        attempted += windows
        wrong += bad
        spark_conf = bench.conf()

        reps = bench.operator_reps()
        metrics["operator_obj_per_s"] = len(frame) / median(reps)
        metrics["spark.operator.cold_s"] = cold_s
        metrics["spark.operator.warm_s"] = median(reps)
        m, progress, bad = bench.streaming(refs)
        metrics |= m | progress_metrics(progress)
        attempted += windows
        wrong += bad
        notes["operator_reps"] = len(reps)
        notes["micro_batches"] = len(progress)

        m, bad = bench.incremental(refs)
        metrics |= m
        attempted += windows
        wrong += bad
        m, att, bad = bench.yardsticks()
        metrics |= m
        attempted += att
        wrong += bad
    finally:
        bench.stop()
    return metrics, attempted, wrong, spark_conf


def report(wl_name: str, res: dict) -> dict:
    """Print the run's metrics by name and unit; return the result line."""
    print("env " + json.dumps(res["env"], sort_keys=True))
    metrics = {}
    for name, value in res["metrics"].items():
        unit = unit_of(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{wl_name} {name} = {value:.6g} {unit}")
    rate = res["failed"] / res["attempted"]
    print(
        f"{wl_name} wrong_window_rate = {rate:.6g} ratio "
        f"({res['failed']} of {res['attempted']} windows)"
    )
    print(f"{wl_name} notes {json.dumps(res['notes'], sort_keys=True)}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()

    if not (SRC / "repro").is_dir():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # everything the run imports, so that imports_s covers it
    import check  # noqa: F401
    import core_phase  # noqa: F401
    import spark_phase  # noqa: F401
    from workloads import WORKLOADS

    imports_s = time.perf_counter() - _T0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"unknown workload; choose from {list(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.setup_only:
        # one set-up sample: print its seconds and stop
        for name in names:
            WORKLOADS[name].streams(args.seed, stream_count(WORKLOADS[name], args.trace))
        print(time.perf_counter() - _T0)
        return 0
    OUT.mkdir(exist_ok=True)
    lines = []
    for name in names:
        res = run_workload(WORKLOADS[name], args, imports_s)
        line = report(name, res)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        spans = res.pop("spans", None)
        (OUT / f"{stem}.json").write_text(json.dumps(res | {"result": line}))
        if spans is not None:
            with gzip.open(OUT / f"{stem}-spans.json.gz", "wt") as f:
                json.dump(spans, f)
        lines.append(line)
    if len(lines) > 1:
        for name, line in zip(names, lines):
            print(f"{name} " + json.dumps(line))
        line = {
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {
                f"{name}.{m}": v
                for name, x in zip(names, lines)
                for m, v in x["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
