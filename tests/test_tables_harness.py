"""Table harness tests: grids, cell builders, pivots, markdown, paper data."""
import pathlib
import shutil

import pandas as pd
import pytest

from repro.harness import paper_numbers as paper
from repro.harness.grids import (
    ALL_DATASETS,
    HS_ALGOS,
    TABLE2_VARIANTS,
    spec_for,
)
from repro.harness.tables import (
    SWEEPS,
    TABLE_DEFS,
    build_markdown,
    cells_sweep,
    cells_table2,
    load_sweeps,
    markdown_sweep_table,
    pivot_sweep,
    pivot_table2,
    render_experiments,
    run_cells,
    run_tables,
    sweep_cells,
)
from repro.spark.sweep import CELL_FIELDS, PARAM_FIELDS

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE_HEADINGS = ("Table 2", "Table 3", "Table 5", "Table 6", "Table 7",
                  "Table 8", "Table 9", "Shape checks")


def test_specs_valid():
    for preset in ("bench", "small"):
        for regime in ("regular", "high"):
            spec = spec_for(preset, regime)
            assert spec.n_default % spec.s_default == 0
            for axis, label, n, k, s in spec.axis_cells():
                assert n % s == 0, (axis, label)
                assert k <= n
    with pytest.raises(KeyError):
        spec_for("huge", "regular")


def test_cells_table2_structure():
    cells = cells_table2("bench")
    assert len(cells) == len(ALL_DATASETS) * len(TABLE2_VARIANTS) * len(
        paper.TABLE2_M
    )
    assert all(c["axis"] == "m" for c in cells)


def test_cells_sweep_structure():
    cells = cells_sweep("high", HS_ALGOS, "bench")
    spec = spec_for("bench", "high")
    assert len(cells) == len(ALL_DATASETS) * len(HS_ALGOS) * len(
        spec.axis_cells()
    )
    assert len({c["cell_id"] for c in cells}) == len(cells)


def test_paper_tables_shape():
    for name, tab in paper.PAPER_TABLES.items():
        if name == "table2":
            continue
        axes = paper.PAPER_AXES[name]
        for ds, algos in tab.items():
            assert ds in ALL_DATASETS
            for algo, series in algos.items():
                for axis, vals in series.items():
                    assert len(vals) == len(axes[axis]), (name, ds, algo, axis)


def test_table2_paper_shape():
    for ds, variants in paper.TABLE2.items():
        for variant, vals in variants.items():
            assert len(vals) == len(paper.TABLE2_M)


def test_table_defs_reference_known_metrics():
    from repro.core.metrics import METRIC_COLUMNS

    for name, (regime, algos, metric, unit) in TABLE_DEFS.items():
        assert regime in ("regular", "high")
        assert metric in METRIC_COLUMNS


@pytest.fixture(scope="module")
def tiny_root(tmp_path_factory):
    """A scratch root: the committed header, then every small sweep run."""
    root = tmp_path_factory.mktemp("tables")
    (root / "results").mkdir()
    shutil.copy(ROOT / "results" / "EXPERIMENTS_HEADER.md", root / "results")
    run_tables(root, preset="small")
    return root


@pytest.fixture(scope="module")
def tiny_results(tiny_root):
    return load_sweeps(tiny_root / "results")


def test_run_all_tables_small(tiny_results):
    assert set(tiny_results) == {"table2", "regular", "high"}
    for df in tiny_results.values():
        assert isinstance(df, pd.DataFrame) and len(df) > 0
        assert (df["wall_time_s"] > 0).all()


def test_pivot_table2(tiny_results):
    piv = pivot_table2(tiny_results["table2"])
    for ds in ALL_DATASETS:
        for variant in TABLE2_VARIANTS:
            labels, vals = piv[ds][variant]
            assert len(labels) == len(vals) > 0


def test_pivot_sweep_and_markdown(tiny_results):
    for name, (regime, algos, metric, unit) in TABLE_DEFS.items():
        piv = pivot_sweep(tiny_results[regime], algos, metric)
        md = markdown_sweep_table(name, piv, f"{name} test", unit)
        assert "paper" in md and "ours" in md


def test_build_markdown_complete(tiny_results):
    md = build_markdown(tiny_results)
    for t in TABLE_HEADINGS:
        assert t in md


def test_run_tables_writes_sweeps_and_document(tiny_root):
    results = tiny_root / "results"
    assert sorted(p.name for p in results.glob("sweep_*.json")) == sorted(
        f"sweep_{name}.json" for name in SWEEPS
    )
    doc = (tiny_root / "EXPERIMENTS.md").read_text()
    assert doc == render_experiments(results)
    for t in TABLE_HEADINGS:
        assert t in doc


def test_rerun_one_sweep_refreshes_document(tiny_root, tmp_path):
    root = tmp_path / "root"
    shutil.copytree(tiny_root, root)
    results = root / "results"
    others = {
        name: (results / f"sweep_{name}.json").read_bytes()
        for name in ("regular", "high")
    }
    (root / "EXPERIMENTS.md").write_text("stale\n")
    doc = run_tables(root, ["table2"], preset="small")
    for name, before in others.items():
        assert (results / f"sweep_{name}.json").read_bytes() == before
    assert (root / "EXPERIMENTS.md").read_text() == doc
    assert doc == render_experiments(results)
    for t in TABLE_HEADINGS:
        assert t in doc


def test_committed_experiments_md_matches_sweeps():
    # EXPERIMENTS.md is the only rendered copy of the committed sweeps
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    assert doc == render_experiments(ROOT / "results")


@pytest.mark.parametrize("name", SWEEPS)
def test_committed_sweeps_match_cells(name):
    # the committed frames stay valid only while the cells are unchanged
    cols = list(CELL_FIELDS + PARAM_FIELDS)
    df = load_sweeps(ROOT / "results")[name]
    cells = [{c: cell[c] for c in cols} for cell in sweep_cells(name)]
    assert df[cols].to_dict("records") == cells


def test_run_cells_serial_matches_structure(tiny_results):
    # one small serial batch: columns complete
    from repro.spark.sweep import RESULT_SCHEMA

    cols = {f.name for f in RESULT_SCHEMA.fields}
    assert cols.issubset(set(tiny_results["high"].columns))
