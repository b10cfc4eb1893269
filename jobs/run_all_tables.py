"""spark-submit entrypoint: run the table sweeps and render EXPERIMENTS.md.

Runs each named sweep once (all three by default): ``table2`` (Table
2), ``regular`` (Tables 3/6/8) and ``high`` (Tables 5/7/9). Each sweep
is saved as ``results/sweep_<name>.json``; EXPERIMENTS.md is then
re-rendered as ``results/EXPERIMENTS_HEADER.md`` plus the tables built
from every ``results/sweep_*.json``, so re-running one sweep refreshes
the whole document.
"""
import argparse

from common import REPO_ROOT, get_spark

from repro.harness.tables import SWEEPS, run_tables


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    # no ``choices=``: Python 3.11 checks an empty ``nargs="*"`` against it
    p.add_argument(
        "sweeps",
        nargs="*",
        metavar="SWEEP",
        help=f"sweeps to re-run, of {', '.join(SWEEPS)} (default: all)",
    )
    p.add_argument(
        "--preset",
        choices=["bench", "small"],
        default="bench",
        help="parameter grid size (bench = paper-scale grids)",
    )
    p.add_argument(
        "--serial",
        action="store_true",
        help="run cells serially in-process instead of via Spark",
    )
    args = p.parse_args()
    if unknown := sorted(set(args.sweeps) - set(SWEEPS)):
        p.error(f"unknown sweep(s) {unknown}; choose from {', '.join(SWEEPS)}")
    spark = None if args.serial else get_spark("all-tables")
    print(run_tables(REPO_ROOT, args.sweeps or SWEEPS, spark, args.preset))
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
