"""DuckDB correctness oracle.

``assert_equivalent(spark_df, sql, **tables)`` runs ``sql`` in DuckDB
over ``tables`` and asserts the sorted rows match ``spark_df`` (the
Spark result). This catches wrong results from a rewritten plan or a
custom operator — "it ran" is not "it is correct".

``tables`` may be Spark or pandas DataFrames; Spark inputs are
collected via ``.toPandas()``. Alias every output column identically
on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.

Nullable pandas columns (``Float64``, ``Int64``, …) are cast to numpy
``float64``/``int64`` before DuckDB sees them, a missing value becoming
NaN: DuckDB 1.0 reads a ``pd.NA`` set into such a column as the value it
replaced, so the oracle would answer over a score the frame does not
hold.
"""
import pandas as pd
from pyspark.sql import DataFrame


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def _numpy_columns(pdf: pd.DataFrame) -> pd.DataFrame:
    """Nullable numeric columns as numpy float64 (int64 when none is NA)."""
    cast = {
        c: "int64" if dt.kind in "iu" and not pdf[c].isna().any() else "float64"
        for c, dt in pdf.dtypes.items()
        if isinstance(dt, pd.api.extensions.ExtensionDtype) and dt.kind in "fiu"
    }
    return pdf.astype(cast) if cast else pdf


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    # imported on use: perfbench imports this module in every timed set-up,
    # which should not pay DuckDB's 20-30 ms import
    import duckdb

    con = duckdb.connect()
    try:
        for name, t in tables.items():
            pdf = t.toPandas() if isinstance(t, DataFrame) else t
            con.register(name, _numpy_columns(pdf))
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = spark_df.toPandas()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )
