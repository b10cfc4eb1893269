"""The paper's tables as three timed sweeps, with their shape assertions.

Each sweep of ``repro.harness.tables.SWEEPS`` runs exactly the cells
``jobs/run_all_tables.py`` runs for it (distributed over the session
SparkSession) and is timed once via ``benchmark.pedantic``: cells are
minutes-scale sweeps, so multi-round statistics would be wasteful and
are not what the tables are about. One sweep feeds several tables
(``table2``: Table 2; ``regular``: Tables 3/6/8; ``high``: Tables
5/7/9), and each table's shape assertion runs on its sweep's frame.
Nothing is written: ``jobs/run_all_tables.py`` produces the tables.
"""
import pytest

from repro.harness.tables import SWEEPS, run_cells, sweep_cells


def _sap_and_mintopk(df, column):
    sap = df[df["algo"] == "sap-enhanced"].set_index(
        ["dataset", "axis", "label"]
    )[column]
    mtk = df[df["algo"] == "mintopk"].set_index(
        ["dataset", "axis", "label"]
    )[column]
    return sap, mtk


def check_table2(df):
    assert (df["wall_time_s"] > 0).all()


def check_regular(df):
    # Table 3
    assert (df["wall_time_s"] > 0).all()
    # Table 6
    sap, mtk = _sap_and_mintopk(df, "avg_candidates")
    # SAP wins except where the paper itself says the gap closes
    # (s = 10%*n leaves "very limited space" — Appendix E)
    assert (sap < mtk).mean() >= 0.9
    assert (sap <= mtk * 1.5).all()
    # Table 8
    sap, mtk = _sap_and_mintopk(df, "memory_kb")
    assert (sap < mtk).mean() >= 0.9
    assert (sap <= mtk * 1.5).all()


def check_high(df):
    # Table 5 — headline shape: SAP faster than minTopK in the bulk of cells
    sap, mtk = _sap_and_mintopk(df, "wall_time_s")
    assert (sap < mtk).mean() > 0.9
    # Table 7 — same Appendix E caveat as Table 6
    sap, mtk = _sap_and_mintopk(df, "avg_candidates")
    assert (sap < mtk).mean() >= 0.75
    assert (sap <= mtk * 1.5).all()
    # Table 9
    sap, mtk = _sap_and_mintopk(df, "memory_kb")
    assert (sap < mtk).mean() > 0.9


CHECKS = {"table2": check_table2, "regular": check_regular, "high": check_high}


@pytest.mark.parametrize("sweep", SWEEPS)
def test_sweep(benchmark, spark, sweep):
    cells = sweep_cells(sweep, "bench")
    df = benchmark.pedantic(
        lambda: run_cells(cells, spark), rounds=1, iterations=1, warmup_rounds=0
    )
    CHECKS[sweep](df)
