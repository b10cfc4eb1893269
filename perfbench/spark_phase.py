"""The Spark paths: the ``applyInPandas`` operator, the Structured Streaming
operator, the ``IncrementalDriver`` they share, and the Catalyst and DuckDB
yardsticks. All on one ``local[nproc]`` session whose files stay under the
run's output directory.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.oracle import assert_equivalent
from repro.spark.operator import continuous_topk_operator
from repro.spark.streaming_op import continuous_topk_streaming
from repro.spark.topk_sql import continuous_topk_sql, windowed_topk_oracle_sql
from repro.streams.incremental import IncrementalDriver

from check import wrong_windows_frame

SRC = Path(__file__).resolve().parent.parent / "src"

SCHEMA = StructType(
    [
        StructField("stream_id", LongType()),
        StructField("t", LongType()),
        StructField("score", DoubleType()),
    ]
)

#: Spark settings the run stamps into its output (plus spark.master)
STAMPED_CONF = (
    "spark.master",
    "spark.driver.memory",
    "spark.sql.shuffle.partitions",
    "spark.sql.execution.arrow.pyspark.enabled",
    "spark.sql.adaptive.coalescePartitions.enabled",
    "spark.ui.enabled",
)

OPERATOR_REPS = 3
#: staged parquet files, one per micro-batch
BATCHES = 10
STREAM_TIMEOUT_S = 120

#: durationMs keys reported per micro-batch (p50)
BATCH_PHASES = ("addBatch", "getBatch", "queryPlanning", "walCommit", "commitOffsets")


def stream_frame(streams: list[np.ndarray]) -> pd.DataFrame:
    """``(stream_id, t, score)`` rows of every stream, stream by stream."""
    return pd.concat(
        [
            pd.DataFrame(
                {
                    "stream_id": np.full(len(s), i, dtype=np.int64),
                    "t": np.arange(len(s), dtype=np.int64),
                    "score": s,
                }
            )
            for i, s in enumerate(streams)
        ],
        ignore_index=True,
    )


def stage(frame: pd.DataFrame, batches: int, src) -> None:
    """One parquet file per micro-batch, arrival-ordered by mtime."""
    shutil.rmtree(src, ignore_errors=True)
    src.mkdir(parents=True)
    length = int(frame["t"].max()) + 1
    chunk = -(-length // batches)
    now = time.time()
    for b in range(batches):
        part = frame[(frame["t"] >= b * chunk) & (frame["t"] < (b + 1) * chunk)]
        path = src / f"batch-{b:04d}.parquet"
        part.to_parquet(path, index=False)
        # the file source orders by mtime; keep it strictly increasing
        os.utime(path, (now - batches + b, now - batches + b))


class SparkBench:
    """One session plus the workload's Spark inputs."""

    def __init__(self, wl, streams, out_dir, tracer, nproc: int) -> None:
        self.wl = wl
        self.q = wl.q
        self.streams = streams
        self.out_dir = out_dir
        self.tracer = tracer
        self.nproc = nproc
        self.spark: SparkSession | None = None
        self._proc = None

    # -- session lifetime -------------------------------------------------
    def start(self) -> None:
        tmp = self.out_dir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        # executors' Python workers import repro too; keep every temp file
        # inside the output directory
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        os.environ["PYSPARK_PYTHON"] = sys.executable
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = str(tmp)  # pyspark's gateway handshake uses it
        os.environ["PYTHONWARNINGS"] = "ignore::FutureWarning"
        # HotSpot writes its perf-data file to /tmp whatever the tmpdir
        os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
        os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
        self.spark = (
            SparkSession.builder.master(f"local[{self.nproc}]")
            .appName("perfbench")
            .config("spark.driver.memory", "1g")
            .config("spark.driver.host", "127.0.0.1")
            .config(
                "spark.driver.extraJavaOptions",
                f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
            )
            .config("spark.local.dir", str(tmp))
            .config("spark.sql.warehouse.dir", str(self.out_dir / "warehouse"))
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.sql.shuffle.partitions", str(len(self.streams)))
            .config("spark.sql.adaptive.coalescePartitions.enabled", "false")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .getOrCreate()
        )
        self._proc = getattr(self.spark.sparkContext._gateway, "proc", None)
        self.spark.sparkContext.setLogLevel("ERROR")

    def stop(self) -> None:
        """Stop the session, then the JVM, and wait for it to exit."""
        if self.spark is None:
            return
        gateway = self.spark.sparkContext._gateway
        try:
            self.spark.stop()
        finally:
            gateway.shutdown()
            if self._proc is not None:
                self._proc.stdin.close()  # the JVM exits on stdin EOF
                try:
                    self._proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self._proc.kill()
                    self._proc.wait()
            self.spark = None

    def conf(self) -> dict[str, str]:
        got = dict(self.spark.sparkContext.getConf().getAll())
        return {k: got.get(k, "") for k in STAMPED_CONF}

    # -- set-up -----------------------------------------------------------
    def prepare(self, frame: pd.DataFrame) -> None:
        self.frame = frame
        self.df = self.spark.createDataFrame(frame)

    def warm_up(self, refs) -> tuple[float, int]:
        """First operator call on the full input, collected and checked, and
        a small streaming query. Returns (cold operator seconds, wrong
        windows)."""
        a = time.perf_counter()
        with self.tracer.span("spark.operator.continuous_topk_operator"):
            rows = continuous_topk_operator(self.df, self.q).toPandas()
        cold = time.perf_counter() - a
        wrong = wrong_windows_frame(rows, refs, self.q.k)
        small = stream_frame([self.streams[0][: self.q.n + 4 * self.q.s]])
        stage(small, 2, self.out_dir / "warmup-in")
        self.run_streaming(self.out_dir / "warmup-in", "warmup")
        return cold, wrong

    # -- measured ---------------------------------------------------------
    def operator_reps(self) -> list[float]:
        """Warm operator calls, fully materialised into a noop sink."""
        reps: list[float] = []
        for _ in range(OPERATOR_REPS):
            a = time.perf_counter()
            with self.tracer.span("spark.operator.continuous_topk_operator"):
                continuous_topk_operator(self.df, self.q).write.format(
                    "noop"
                ).mode("overwrite").save()
            reps.append(time.perf_counter() - a)
        return reps

    def run_streaming(self, src, name: str):
        """availableNow replay of ``src``: (wall seconds, progress, rows)."""
        sdf = (
            self.spark.readStream.schema(SCHEMA)
            .option("maxFilesPerTrigger", 1)
            .parquet(str(src))
        )
        ckpt = self.out_dir / f"ckpt-{name}"
        shutil.rmtree(ckpt, ignore_errors=True)
        a = time.perf_counter()
        with self.tracer.span("spark.streaming_op.continuous_topk_streaming"):
            query = (
                continuous_topk_streaming(sdf, self.q)
                .writeStream.format("memory")
                .queryName(name)
                .outputMode("append")
                .option("checkpointLocation", str(ckpt))
                .trigger(availableNow=True)
                .start()
            )
            done = query.awaitTermination(STREAM_TIMEOUT_S)
        wall = time.perf_counter() - a
        if not done:
            query.stop()
            raise TimeoutError(f"streaming query {name} did not finish")
        progress = [p for p in query.recentProgress if p["numInputRows"] > 0]
        rows = self.spark.table(name).toPandas()
        return wall, progress, rows

    def streaming(self, refs) -> tuple[dict, list, int]:
        """The measured Structured Streaming replay of the staged batches.
        Returns (metrics, progress, wrong windows)."""
        wall, progress, rows = self.run_streaming(self.out_dir / "stream-in", "topk")
        state = progress[-1]["stateOperators"]
        metrics = {
            "stream_obj_per_s": len(self.frame) / wall,
            "microbatch_p50_ms": float(
                median(p["durationMs"]["triggerExecution"] for p in progress)
            ),
            "state_bytes": float(state[0]["memoryUsedBytes"]) if state else 0.0,
        }
        return metrics, progress, wrong_windows_frame(rows, refs, self.q.k)

    # -- traced-only ------------------------------------------------------
    def incremental(self, refs) -> tuple[dict, int]:
        """``IncrementalDriver`` fed the staged chunks directly, with the
        GroupState round trip (``dumps``/``loads``) per batch."""
        tr = self.tracer
        first = len(tr.names)
        chunk = -(-self.wl.length // BATCHES)
        first_sizes, last_sizes, rows = [], [], []
        for sid, scores in enumerate(self.streams):
            drv = IncrementalDriver("sap-enhanced", self.q)
            blob = None
            for b in range(BATCHES):
                if blob is not None:
                    with tr.span("streams.incremental.loads"):
                        drv = IncrementalDriver.loads(blob)
                with tr.span("streams.incremental.feed"):
                    out = drv.feed(scores[b * chunk : (b + 1) * chunk])
                rows.extend((sid, w, r, t) for w, r, t, _ in out)
                with tr.span("streams.incremental.dumps"):
                    blob = drv.dumps()
                if b == 0:
                    first_sizes.append(len(blob))
            last_sizes.append(len(blob))
        dur = tr.durations(first)
        frame = pd.DataFrame(rows, columns=["stream_id", "window_id", "rank", "t"])
        objects = sum(len(s) for s in self.streams)
        return {
            "streams.incremental.feed_us_per_obj": sum(
                dur["streams.incremental.feed"]
            )
            / objects
            * 1e6,
            "streams.incremental.dumps_us": np.mean(dur["streams.incremental.dumps"])
            * 1e6,
            "streams.incremental.loads_us": np.mean(dur["streams.incremental.loads"])
            * 1e6,
            "streams.incremental.state_bytes_first": float(np.mean(first_sizes)),
            "streams.incremental.state_bytes_last": float(np.mean(last_sizes)),
        }, wrong_windows_frame(frame, refs, self.q.k)

    def yardsticks(self) -> tuple[dict, int, int]:
        """Catalyst on a 25-window prefix of stream 0, then the DuckDB oracle
        on the same rows. Returns (metrics, windows checked, wrong windows)."""
        q = self.q
        prefix = stream_frame([self.streams[0][: q.n + 24 * q.s]])
        df = self.spark.createDataFrame(prefix)
        a = time.perf_counter()
        with self.tracer.span("spark.topk_sql.continuous_topk_sql"):
            continuous_topk_sql(df, q).write.format("noop").mode(
                "overwrite"
            ).save()
        sql_s = time.perf_counter() - a
        windows = q.num_windows(len(prefix))
        a = time.perf_counter()
        wrong = 0
        with self.tracer.span("oracle.assert_equivalent"):
            try:
                assert_equivalent(
                    continuous_topk_sql(df, q),
                    windowed_topk_oracle_sql(q),
                    stream=prefix,
                )
            except AssertionError as exc:
                print(f"oracle mismatch: {exc}", file=sys.stderr)
                wrong = windows
        return {
            "spark.topk_sql.obj_per_s": len(prefix) / sql_s,
            "oracle.check_s": time.perf_counter() - a,
        }, windows, wrong


def progress_metrics(progress: list) -> dict[str, float]:
    """Per-layer p50s of the streaming query's micro-batch progress."""

    def p50(values) -> float:
        values = [v for v in values if v is not None]
        return float(median(values)) if values else 0.0

    out = {
        f"spark.streaming_op.{k}_ms": p50(p["durationMs"].get(k) for p in progress)
        for k in BATCH_PHASES
    }
    ops = [p["stateOperators"][0] for p in progress if p["stateOperators"]]
    out["spark.streaming_op.state_update_ms"] = p50(o["allUpdatesTimeMs"] for o in ops)
    out["spark.streaming_op.state_commit_ms"] = p50(o["commitTimeMs"] for o in ops)
    return out
