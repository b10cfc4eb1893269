"""Build every evaluation table: cells → sweep → pivot → markdown.

One sweep per speed regime feeds several tables (they are different
metric columns of the same runs):

* ``table2``  — its own sweep (equal partition × m × ablation variants),
* ``regular`` — Tables 3 (time), 6 (candidates), 8 (memory),
* ``high``    — Tables 5 (time), 7 (candidates), 9 (memory).

``run_tables`` executes the named sweeps (distributed via
:func:`repro.spark.sweep.run_sweep` when given a SparkSession, serially
otherwise), saves each as ``results/sweep_<name>.json`` and re-renders
EXPERIMENTS.md from every sweep file on disk: the pivots put the metric
of interest back into the paper's dataset × algorithm × axis layout and
the markdown pairs it with the paper's numbers, plus shape-check
summaries.
"""
from __future__ import annotations

import json
import pathlib
from collections.abc import Iterable

import pandas as pd
from pyspark.sql import SparkSession

from repro.spark.sweep import make_cell, run_cell, run_sweep

from . import paper_numbers as paper
from .grids import (
    ALL_DATASETS,
    CAND_ALGOS,
    HS_ALGOS,
    REGULAR_ALGOS,
    TABLE2_VARIANTS,
    TABLE3_ALGOS,
    SweepSpec,
    spec_for,
)

#: the three sweeps behind every table, in the order they are run
SWEEPS = ("table2", "regular", "high")
#: table name -> (sweep regime, algo-label map, metric column, unit)
TABLE_DEFS = {
    "table3": ("regular", TABLE3_ALGOS, "wall_time_s", "seconds"),
    "table5": ("high", HS_ALGOS, "wall_time_s", "seconds"),
    "table6": ("regular", CAND_ALGOS, "avg_candidates", "candidates"),
    "table7": ("high", HS_ALGOS, "avg_candidates", "candidates"),
    "table8": ("regular", CAND_ALGOS, "memory_kb", "KB"),
    "table9": ("high", HS_ALGOS, "memory_kb", "KB"),
}
TABLE_TITLES = {
    "table3": "Table 3 — EQUAL vs DYNA vs EN-DYNA running time",
    "table5": "Table 5 — SAP vs minTopK running time, high-speed",
    "table6": "Table 6 — average candidate count",
    "table7": "Table 7 — average candidate count, high-speed",
    "table8": "Table 8 — candidate-structure memory",
    "table9": "Table 9 — candidate-structure memory, high-speed",
}


def cells_table2(preset: str = "bench") -> list[dict]:
    """Cells for Table 2: equal partition, m sweep × ablation variants."""
    spec = spec_for(preset, "regular")
    m_values: Iterable[int] = (
        paper.TABLE2_M if preset == "bench" else (3, 5, 9)
    )
    cells = []
    cid = 0
    for ds in ALL_DATASETS:
        for variant, vopts in TABLE2_VARIANTS.items():
            for m in m_values:
                cells.append(
                    make_cell(
                        cid,
                        "table2",
                        ds,
                        "sap-equal",
                        length=spec.length,
                        n=spec.n_default,
                        k=spec.k_default,
                        s=spec.s_default,
                        seed=spec.seed,
                        opts={"m": m, **vopts},
                        axis="m",
                        label=str(m),
                        repeats=5 if preset == "bench" else 1,
                    )
                )
                cid += 1
    return cells


def cells_sweep(
    regime: str, algo_labels: dict[str, str], preset: str = "bench"
) -> list[dict]:
    """Cells for one speed regime's n/k/s sweeps × a set of algorithms."""
    spec: SweepSpec = spec_for(preset, regime)
    cells = []
    cid = 0
    for ds in ALL_DATASETS:
        for label, algo in algo_labels.items():
            for axis, axis_label, n, k, s in spec.axis_cells():
                cells.append(
                    make_cell(
                        cid,
                        regime,
                        ds,
                        algo,
                        length=spec.length,
                        n=n,
                        k=k,
                        s=s,
                        seed=spec.seed,
                        opts={},
                        axis=axis,
                        label=axis_label,
                        repeats=3 if preset == "bench" else 1,
                    )
                )
                cid += 1
    return cells


def run_cells(
    cells: list[dict], spark: SparkSession | None = None
) -> pd.DataFrame:
    """Execute cells — distributed on Spark when available, else serial."""
    if spark is not None:
        return run_sweep(spark, cells)
    return pd.DataFrame([run_cell(c) for c in cells])


def sweep_cells(name: str, preset: str = "bench") -> list[dict]:
    """Cells of one of the ``SWEEPS``."""
    if name == "table2":
        return cells_table2(preset)
    algos = {"regular": REGULAR_ALGOS, "high": HS_ALGOS}[name]
    return cells_sweep(name, algos, preset)


def load_sweeps(results_dir: pathlib.Path) -> dict[str, pd.DataFrame]:
    """Read every ``sweep_<name>.json`` back into its raw metric frame."""
    return {
        name: pd.read_json(
            results_dir / f"sweep_{name}.json",
            dtype={"label": str, "opts": str},
        )
        for name in SWEEPS
    }


def render_experiments(results_dir: pathlib.Path) -> str:
    """EXPERIMENTS.md: the hand-written header + tables from the sweep files."""
    header = (results_dir / "EXPERIMENTS_HEADER.md").read_text()
    return header + build_markdown(load_sweeps(results_dir)) + "\n"


def run_tables(
    root: pathlib.Path,
    sweeps: Iterable[str] = SWEEPS,
    spark: SparkSession | None = None,
    preset: str = "bench",
) -> str:
    """Run each named sweep once and re-render ``root/EXPERIMENTS.md``.

    Each sweep's frame goes to ``root/results/sweep_<name>.json``; the
    document is then rendered from all sweep files there, so re-running
    one sweep refreshes every table. Returns the document.
    """
    results_dir = root / "results"
    results_dir.mkdir(exist_ok=True)
    for name in sweeps:
        df = run_cells(sweep_cells(name, preset), spark)
        df.to_json(
            results_dir / f"sweep_{name}.json", orient="records", indent=1
        )
    doc = render_experiments(results_dir)
    (root / "EXPERIMENTS.md").write_text(doc)
    return doc


# ------------------------------------------------------------------ pivots
def _series(
    df: pd.DataFrame, dataset: str, algo: str, axis: str, value: str
) -> tuple[list[str], list[float]]:
    sel = df[
        (df["dataset"] == dataset) & (df["algo"] == algo) & (df["axis"] == axis)
    ].sort_values("cell_id")
    return list(sel["label"]), [float(v) for v in sel[value]]


def pivot_table2(df: pd.DataFrame) -> dict:
    """Table-2 layout: dataset -> variant -> (m labels, values)."""
    out: dict = {}
    for ds in ALL_DATASETS:
        out[ds] = {}
        for variant, vopts in TABLE2_VARIANTS.items():
            sel = df[(df["dataset"] == ds)].sort_values("cell_id")
            rows = [
                r
                for r in sel.to_dict("records")
                if {
                    kk: vv
                    for kk, vv in json.loads(r["opts"]).items()
                    if kk != "m"
                }
                == vopts
            ]
            out[ds][variant] = (
                [r["label"] for r in rows],
                [float(r["wall_time_s"]) for r in rows],
            )
    return out


def pivot_sweep(df: pd.DataFrame, algo_labels: dict[str, str], value: str) -> dict:
    """Sweep layout: dataset -> algo label -> axis -> (labels, values)."""
    out: dict = {}
    for ds in ALL_DATASETS:
        out[ds] = {}
        for label, algo in algo_labels.items():
            out[ds][label] = {
                axis: _series(df, ds, algo, axis, value)
                for axis in ("n", "k", "s")
            }
    return out


# ---------------------------------------------------------------- markdown
def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000:
        return f"{v:.0f}"
    if abs(v) >= 10:
        return f"{v:.1f}"
    return f"{v:.3g}"


def markdown_table2(ours: dict) -> str:
    """Paper-vs-ours markdown for Table 2."""
    lines = [
        "#### Table 2 — equal partition running time vs m (seconds)",
        "",
        "| dataset | variant | source | " + " | ".join(
            f"m={m}" for m in paper.TABLE2_M
        ) + " |",
        "|---|---|---|" + "---|" * len(paper.TABLE2_M),
    ]
    for ds in ALL_DATASETS:
        for variant in TABLE2_VARIANTS:
            labels, vals = ours[ds][variant]
            lines.append(
                f"| {ds} | {variant} | ours (m="
                + ",".join(labels)
                + ") | "
                + " | ".join(_fmt(v) for v in vals)
                + " |"
            )
            pvals = paper.TABLE2[ds][variant]
            lines.append(
                f"| {ds} | {variant} | paper | "
                + " | ".join(_fmt(v) for v in pvals)
                + " |"
            )
    return "\n".join(lines)


def markdown_sweep_table(name: str, ours: dict, title: str, unit: str) -> str:
    """Paper-vs-ours markdown for one of Tables 3/5/6/7/8/9."""
    axes = paper.PAPER_AXES[name]
    ptab = paper.PAPER_TABLES[name]
    lines = [f"#### {title} ({unit})", ""]
    for axis in ("n", "k", "s"):
        pcols = axes[axis]
        lines.append(f"**{axis} sweep** — paper columns: {', '.join(pcols)}")
        lines.append("")
        header_written = False
        for ds in ALL_DATASETS:
            if ds not in ptab:
                continue
            for algo_label in ptab[ds]:
                if algo_label not in ours.get(ds, {}):
                    continue
                labels, vals = ours[ds][algo_label][axis]
                if not header_written:
                    ncols = max(len(labels), len(pcols))
                    lines.append(
                        "| dataset | algo | source | "
                        + " | ".join(f"c{i+1}" for i in range(ncols))
                        + " |"
                    )
                    lines.append("|---|---|---|" + "---|" * ncols)
                    header_written = True
                lines.append(
                    f"| {ds} | {algo_label} | ours ({','.join(labels)}) | "
                    + " | ".join(_fmt(v) for v in vals)
                    + " |"
                )
                pvals = ptab[ds][algo_label][axis]
                lines.append(
                    f"| {ds} | {algo_label} | paper ({','.join(pcols)}) | "
                    + " | ".join(_fmt(v) for v in pvals)
                    + " |"
                )
        lines.append("")
    return "\n".join(lines)


def shape_checks(results: dict[str, pd.DataFrame]) -> list[str]:
    """Cross-run orderings the paper claims, verified on our numbers."""
    checks: list[str] = []

    def frac(cond: pd.Series) -> str:
        return f"{100.0 * cond.mean():.0f}% of {len(cond)} cells"

    reg, high = results["regular"], results["high"]

    def metric_of(df: pd.DataFrame, algo: str, col: str) -> pd.Series:
        sel = df[df["algo"] == algo].set_index(["dataset", "axis", "label"])
        return sel[col]

    for colname, label in [
        ("wall_time_s", "running time"),
        ("avg_candidates", "candidate count"),
        ("memory_kb", "memory"),
    ]:
        sap = metric_of(reg, "sap-enhanced", colname)
        mtk = metric_of(reg, "mintopk", colname)
        ksb = metric_of(reg, "kskyband", colname)
        both = sap.index.intersection(mtk.index)
        checks.append(
            f"regular {label}: SAP < minTopK on "
            + frac(sap.loc[both] < mtk.loc[both])
            + f"; mean minTopK/SAP = {(mtk.loc[both] / sap.loc[both]).mean():.2f}×"
        )
        both2 = mtk.index.intersection(ksb.index)
        checks.append(
            f"regular {label}: minTopK ≤ k-skyband on "
            + frac(mtk.loc[both2] <= ksb.loc[both2] * 1.001)
            + f"; mean k-skyband/minTopK = {(ksb.loc[both2] / mtk.loc[both2]).mean():.2f}×"
        )
    eq = metric_of(reg, "sap-equal", "wall_time_s")
    dy = metric_of(reg, "sap-dynamic", "wall_time_s")
    en = metric_of(reg, "sap-enhanced", "wall_time_s")
    idx = eq.index.intersection(dy.index).intersection(en.index)
    checks.append(
        "regular time: EN-DYNA ≤ DYNA on "
        + frac(en.loc[idx] <= dy.loc[idx] * 1.05)
        + "; DYNA ≤ EQUAL on "
        + frac(dy.loc[idx] <= eq.loc[idx] * 1.05)
    )
    hsap = metric_of(high, "sap-enhanced", "wall_time_s")
    hmtk = metric_of(high, "mintopk", "wall_time_s")
    hidx = hsap.index.intersection(hmtk.index)
    checks.append(
        "high-speed time: SAP < minTopK on "
        + frac(hsap.loc[hidx] < hmtk.loc[hidx])
        + f"; mean minTopK/SAP = {(hmtk.loc[hidx] / hsap.loc[hidx]).mean():.2f}×"
    )
    return checks


def build_markdown(results: dict[str, pd.DataFrame]) -> str:
    """Full EXPERIMENTS table section from the three sweep frames."""
    parts = [markdown_table2(pivot_table2(results["table2"]))]
    for name, (regime, algos, metric, unit) in TABLE_DEFS.items():
        ours = pivot_sweep(results[regime], algos, metric)
        parts.append(
            markdown_sweep_table(name, ours, TABLE_TITLES[name], unit)
        )
    parts.append("#### Shape checks\n")
    parts.extend(f"* {c}" for c in shape_checks(results))
    return "\n\n".join(parts)
