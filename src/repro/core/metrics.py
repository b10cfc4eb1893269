"""Operation counters and the memory model shared by all algorithms.

The paper evaluates (a) running time, (b) average candidate-set size,
and (c) memory consumption. Our Python wall-times carry different
constant factors than the paper's C++: every algorithm runs in the
interpreter on the same ``CandidateSet``, so per-operation overhead sets
the time ratios. Every run therefore also records abstract operation
counts — the quantities the paper's cost model (§2.1, §4.1) actually
reasons about.

Memory model (Appendix F of the paper): memory is dominated by the
candidate structures. We charge 32 bytes per candidate entry
(score + id + counter + list slot), plus algorithm-specific overhead:
MinTopK keeps an ``lbp`` pointer per predicted window (``n/s`` × 8 B),
k-skyband keeps a dominance counter per candidate (8 B).
"""
from __future__ import annotations

from dataclasses import dataclass, field

_ENTRY_BYTES = 32.0
_POINTER_BYTES = 8.0


@dataclass
class Metrics:
    """Mutable counter bundle filled in by an algorithm run."""

    insertions: int = 0  # entries added to a candidate structure
    deletions: int = 0  # entries removed (expiry, refine, eviction)
    examined: int = 0  # objects touched by scans / dominance updates
    rescans: int = 0  # full-window re-scans (SMA)
    rescan_examined: int = 0  # objects examined during re-scans
    m_formations: int = 0  # meaningful-object-set constructions (SAP)
    units_skipped: int = 0  # unit scans avoided by UBSA/L_i (EN-DYNA)
    partitions_sealed: int = 0  # partitions created (SAP)
    wall_time_s: float = 0.0  # summed per window by StreamTopK.windows

    # size of the candidate structures, one sample per emitted window
    # (see sample): their sum, their number and their maximum
    candidate_total: int = 0
    windows_sampled: int = 0
    peak_candidates: int = 0

    # per-window sizes kept by a caller that wants them all (the traced
    # loop of perfbench/core_phase.py); StreamTopK.windows only calls
    # sample()
    candidate_samples: list[int] = field(default_factory=list)

    # constant per-run overhead entries (e.g. MinTopK's n/s lbp slots)
    overhead_pointers: int = 0
    counter_entries_flag: bool = False  # candidates carry dom counters

    def sample(self, count: int) -> None:
        """Record the candidate-structure size at one emitted window."""
        self.candidate_total += count
        self.windows_sampled += 1
        self.peak_candidates = max(self.peak_candidates, count)

    @property
    def avg_candidates(self) -> float:
        """Average candidate-structure size over all emitted windows."""
        if not self.windows_sampled:
            return 0.0
        return self.candidate_total / self.windows_sampled

    @property
    def memory_kb(self) -> float:
        """Candidate-structure footprint in KB under the shared model."""
        per_entry = _ENTRY_BYTES + (
            _POINTER_BYTES if self.counter_entries_flag else 0.0
        )
        return (
            self.avg_candidates * per_entry
            + self.overhead_pointers * _POINTER_BYTES
        ) / 1024.0

    def as_row(self) -> dict[str, float]:
        """Flatten to a plain dict for DataFrame/JSON serialisation."""
        return {
            "wall_time_s": self.wall_time_s,
            "insertions": float(self.insertions),
            "deletions": float(self.deletions),
            "examined": float(self.examined),
            "rescans": float(self.rescans),
            "rescan_examined": float(self.rescan_examined),
            "m_formations": float(self.m_formations),
            "units_skipped": float(self.units_skipped),
            "partitions_sealed": float(self.partitions_sealed),
            "avg_candidates": self.avg_candidates,
            "peak_candidates": float(self.peak_candidates),
            "memory_kb": self.memory_kb,
        }


#: the columns of ``Metrics.as_row()``, in its order
METRIC_COLUMNS: tuple[str, ...] = tuple(Metrics().as_row())
