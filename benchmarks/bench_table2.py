"""Table 2 — equal-partition running time vs m (non-delay / Algo 1 / +S-AVL)."""
from repro.harness.tables import (
    cells_table2,
    markdown_table2,
    pivot_table2,
    run_cells,
    save_table,
)

from ._common import RESULTS_DIR, run_once


def test_table2(benchmark, spark):
    df = run_once(benchmark, lambda: run_cells(cells_table2("bench"), spark))
    md = markdown_table2(pivot_table2(df))
    save_table(RESULTS_DIR, "table2", df, md)
    assert (df["wall_time_s"] > 0).all()
