"""Every job entrypoint still imports and parses its command line."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
JOBS = sorted(p.name for p in (ROOT / "jobs").glob("run_*.py"))


def test_jobs_found():
    assert "run_all_tables.py" in JOBS


@pytest.mark.parametrize("job", JOBS)
def test_job_help(job):
    # --help exits inside argparse, before any SparkSession starts
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    r = subprocess.run(
        [sys.executable, str(ROOT / "jobs" / job), "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage:")
