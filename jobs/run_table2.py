"""spark-submit entrypoint: reproduce Table 2 (equal partition vs m)."""
from common import RESULTS_DIR, get_spark, table_arg_parser

from repro.harness.tables import (
    cells_table2,
    markdown_table2,
    pivot_table2,
    run_cells,
    save_table,
)


def main() -> None:
    args = table_arg_parser(__doc__).parse_args()
    spark = None if args.serial else get_spark("table2")
    df = run_cells(cells_table2(args.preset), spark)
    md = markdown_table2(pivot_table2(df))
    save_table(RESULTS_DIR, "table2", df, md)
    print(md)
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
