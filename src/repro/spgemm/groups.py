"""Row groups of one kernel stage (paper Fig. 3).

After row analysis, the productive rows of ``A`` are handed to the
kernel as a :class:`RowGroup`; a stage's groups form a
:class:`RowGrouping`.  The paper bins rows into several groups by work
size (dense accumulation for dense rows, power-of-two hash buckets for
the rest).  Both kernels here (:mod:`repro.spgemm.kernels`) size their
work per row internally, so each stage runs one group; the grouping
still records the stage's kernel launches and covers every productive
row exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["RowGroup", "RowGrouping"]


@dataclass(frozen=True)
class RowGroup:
    """A set of rows processed by one (simulated) kernel launch."""

    rows: np.ndarray  # int64 row indices, ascending
    method: str  # accumulator name, a key of kernels.ACCUMULATORS

    def __len__(self) -> int:
        return int(self.rows.size)


@dataclass(frozen=True)
class RowGrouping:
    """All groups of one symbolic or numeric pass."""

    groups: Tuple[RowGroup, ...]
    n_rows: int

    def __iter__(self):
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)

    def num_kernels(self) -> int:
        """Kernel launches this grouping costs (one per non-empty group)."""
        return sum(1 for g in self.groups if len(g) > 0)

    def coverage(self) -> np.ndarray:
        """Group index of every row; -1 marks rows with zero work
        (they are skipped entirely — their output rows are empty)."""
        out = np.full(self.n_rows, -1, dtype=np.int64)
        for gi, g in enumerate(self.groups):
            out[g.rows] = gi
        return out
