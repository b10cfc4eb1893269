"""Table 5 — SAP vs minTopK running time (high-speed streams)."""
from repro.harness.grids import HS_ALGOS
from repro.harness.tables import (
    cells_sweep,
    markdown_sweep_table,
    pivot_sweep,
    run_cells,
    save_table,
)

from ._common import RESULTS_DIR, run_once


def test_table5(benchmark, spark):
    cells = cells_sweep("high", HS_ALGOS, "bench")
    df = run_once(benchmark, lambda: run_cells(cells, spark))
    piv = pivot_sweep(df, HS_ALGOS, "wall_time_s")
    md = markdown_sweep_table(
        "table5", piv,
        "Table 5 — SAP vs minTopK running time, high-speed", "seconds",
    )
    save_table(RESULTS_DIR, "table5", df, md)
    # headline shape: SAP faster than minTopK in the bulk of cells
    sap = df[df["algo"] == "sap-enhanced"].set_index(
        ["dataset", "axis", "label"]
    )["wall_time_s"]
    mtk = df[df["algo"] == "mintopk"].set_index(
        ["dataset", "axis", "label"]
    )["wall_time_s"]
    assert (sap < mtk).mean() > 0.9
