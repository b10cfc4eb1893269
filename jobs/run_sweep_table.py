"""spark-submit entrypoint: reproduce any of Tables 3/5/6/7/8/9.

Usage: spark-submit jobs/run_sweep_table.py table5 [--preset bench]
"""
from common import RESULTS_DIR, get_spark, table_arg_parser

from repro.harness.tables import (
    TABLE_DEFS,
    TABLE_TITLES,
    cells_sweep,
    markdown_sweep_table,
    pivot_sweep,
    run_cells,
    save_table,
)


def main() -> None:
    p = table_arg_parser(__doc__)
    p.add_argument("table", choices=sorted(TABLE_DEFS))
    args = p.parse_args()
    name = args.table
    spark = None if args.serial else get_spark(name)
    regime, algos, metric, unit = TABLE_DEFS[name]
    df = run_cells(cells_sweep(regime, algos, args.preset), spark)
    md = markdown_sweep_table(
        name, pivot_sweep(df, algos, metric), TABLE_TITLES[name], unit
    )
    save_table(RESULTS_DIR, name, df, md)
    print(md)
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
