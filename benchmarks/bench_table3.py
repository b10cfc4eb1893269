"""Table 3 — EQUAL vs DYNA vs EN-DYNA running time (regular-speed)."""
from repro.harness.grids import TABLE3_ALGOS
from repro.harness.tables import (
    cells_sweep,
    markdown_sweep_table,
    pivot_sweep,
    run_cells,
    save_table,
)

from ._common import RESULTS_DIR, run_once


def test_table3(benchmark, spark):
    cells = cells_sweep("regular", TABLE3_ALGOS, "bench")
    df = run_once(benchmark, lambda: run_cells(cells, spark))
    piv = pivot_sweep(df, TABLE3_ALGOS, "wall_time_s")
    md = markdown_sweep_table(
        "table3", piv, "Table 3 — EQUAL vs DYNA vs EN-DYNA running time",
        "seconds",
    )
    save_table(RESULTS_DIR, "table3", df, md)
    assert (df["wall_time_s"] > 0).all()
