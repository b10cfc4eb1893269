"""Table 9 — candidate-structure memory, high-speed: SAP vs minTopK."""
from repro.harness.grids import HS_ALGOS
from repro.harness.tables import (
    cells_sweep,
    markdown_sweep_table,
    pivot_sweep,
    run_cells,
    save_table,
)

from ._common import RESULTS_DIR, run_once


def test_table9(benchmark, spark):
    cells = cells_sweep("high", HS_ALGOS, "bench")
    df = run_once(benchmark, lambda: run_cells(cells, spark))
    piv = pivot_sweep(df, HS_ALGOS, "memory_kb")
    md = markdown_sweep_table(
        "table9", piv,
        "Table 9 — candidate-structure memory, high-speed", "KB",
    )
    save_table(RESULTS_DIR, "table9", df, md)
    sap = df[df["algo"] == "sap-enhanced"].set_index(
        ["dataset", "axis", "label"]
    )["memory_kb"]
    mtk = df[df["algo"] == "mintopk"].set_index(
        ["dataset", "axis", "label"]
    )["memory_kb"]
    assert (sap < mtk).mean() > 0.9
