"""Scaled parameter grids for the paper's evaluation tables.

The paper streams 10⁶–10⁸ C++ objects; we stream 24k (regular-speed,
Tables 2/3/6/8) and 60k (high-speed, Tables 5/7/9) objects through the
Python implementations, preserving the paper's *relative*
parameterisation (DESIGN.md §3):

* ``n`` is swept as a fraction of the stream, ``s`` as a fraction of
  ``n`` (snapped so ``s | n``), ``k`` scaled by 1/4 (regular) and 1/20
  (high-speed) of the paper's values.
* Defaults mirror the paper's bolded defaults: regular ``n = 0.1%``-
  equivalent (2 400), ``k = 100→25``, ``s = 0.1%·n``; high-speed
  ``n = 50%·|D|`` (30 000), ``k = 1000→50``, ``s = 2%·n``.

Each sweep cell is tagged with the axis (``n``/``k``/``s``) and a label
(the actual parameter value) so table builders can pivot the sweep
results back into the paper's table layout. A ``small`` preset shrinks
everything ~10× for unit tests.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.streams.datasets import DATASETS

TABLE2_VARIANTS = {
    "non-delay": {"delay": False},
    "algo1": {"use_savl": False},
    "algo1+savl": {},
}
TABLE3_ALGOS = {
    "EN-DYNA": "sap-enhanced",
    "DYNA": "sap-dynamic",
    "EQUAL": "sap-equal",
}
CAND_ALGOS = {
    "SAP": "sap-enhanced",
    "minTopK": "mintopk",
    "k-skyband": "kskyband",
}
HS_ALGOS = {"SAP": "sap-enhanced", "minTopK": "mintopk"}
# the regular sweep runs each algorithm of Tables 3/6/8 once; this order
# fixes the sweep's cell ids
REGULAR_ALGOS = {
    "EN-DYNA": "sap-enhanced",
    "DYNA": "sap-dynamic",
    "EQUAL": "sap-equal",
    "minTopK": "mintopk",
    "k-skyband": "kskyband",
}


@dataclass(frozen=True)
class SweepSpec:
    """One speed regime's stream length, defaults and sweep axes."""

    length: int
    n_default: int
    k_default: int
    s_default: int
    # (n, s) pairs: the n sweep keeps s at its default *fraction* of n
    n_sweep: tuple[tuple[int, int], ...]
    k_sweep: tuple[int, ...]
    s_sweep: tuple[int, ...]
    seed: int = 0

    def axis_cells(self) -> list[tuple[str, str, int, int, int]]:
        """All (axis, label, n, k, s) combos of the three sweeps."""
        out = []
        for n, s in self.n_sweep:
            out.append(("n", str(n), n, self.k_default, s))
        for k in self.k_sweep:
            out.append(("k", str(k), self.n_default, k, self.s_default))
        for s in self.s_sweep:
            out.append(("s", str(s), self.n_default, self.k_default, s))
        return out


REGULAR = SweepSpec(
    length=24_000,
    n_default=2_400,
    k_default=25,
    s_default=2,
    n_sweep=((240, 1), (1_200, 1), (2_400, 2), (4_800, 5), (9_600, 10)),
    k_sweep=(10, 25, 50, 100, 200),
    s_sweep=(1, 2, 24, 120, 240),
)

HIGH_SPEED = SweepSpec(
    length=60_000,
    n_default=30_000,
    k_default=50,
    s_default=600,
    n_sweep=(
        (6_000, 120),
        (12_000, 240),
        (18_000, 360),
        (24_000, 480),
        (30_000, 600),
    ),
    k_sweep=(25, 50, 250, 500, 1_250),
    s_sweep=(3, 30, 300, 600, 1_500, 3_000),
)

# ~10× smaller grids for unit tests (same structure, minutes → seconds)
REGULAR_SMALL = SweepSpec(
    length=2_400,
    n_default=240,
    k_default=8,
    s_default=2,
    n_sweep=((120, 1), (240, 2), (480, 4)),
    k_sweep=(4, 8, 16),
    s_sweep=(1, 2, 24),
)

HIGH_SPEED_SMALL = SweepSpec(
    length=6_000,
    n_default=3_000,
    k_default=10,
    s_default=60,
    n_sweep=((1_200, 24), (3_000, 60)),
    k_sweep=(5, 10, 50),
    s_sweep=(30, 60, 300),
)


def spec_for(preset: str, regime: str) -> SweepSpec:
    """Look up a sweep spec by preset ('bench'/'small') and regime."""
    table = {
        ("bench", "regular"): REGULAR,
        ("bench", "high"): HIGH_SPEED,
        ("small", "regular"): REGULAR_SMALL,
        ("small", "high"): HIGH_SPEED_SMALL,
    }
    try:
        return table[(preset, regime)]
    except KeyError as exc:
        raise KeyError(f"unknown preset/regime {(preset, regime)}") from exc


ALL_DATASETS = DATASETS
