"""Numeric phase: place output values into an exactly-sized allocation.

"The second phase is called numeric phase, which starts with the knowledge
of the number of non-zero elements in the output matrix, and thus, space
allocation is now feasible."  The kernels (:mod:`repro.spgemm.kernels`)
are fused: their symbolic pass already produced each group's values, so
this phase fixes the output layout from the exact counts and scatters
every group's cached rows into their slots of the shared output arrays —
mirroring how the GPU kernels write disjoint ranges of one pre-allocated
buffer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE
from .accumulators import RowResults
from .groups import RowGrouping

__all__ = ["numeric_grouped"]


def numeric_grouped(
    a: CSRMatrix,
    b: CSRMatrix,
    row_nnz: np.ndarray,
    grouping: RowGrouping,
    results: Sequence[RowResults],
) -> CSRMatrix:
    """Scatter each group's cached results into the exact allocation.

    ``row_nnz`` are the exact symbolic counts; they fix the output layout
    (``row_offsets``) before any group is placed, so groups fill their
    rows independently and in any order.  ``results`` (parallel to
    ``grouping.groups``) are the :class:`RowResults` the symbolic pass
    computed for each group.
    """
    row_nnz = np.asarray(row_nnz, dtype=INDEX_DTYPE)
    if row_nnz.size != a.n_rows:
        raise ValueError("row_nnz length must equal the number of A rows")
    if len(results) != len(grouping.groups):
        raise ValueError("results must align with grouping.groups")

    row_offsets = np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(row_nnz, out=row_offsets[1:])
    nnz = int(row_offsets[-1])
    col_ids = np.empty(nnz, dtype=INDEX_DTYPE)
    data = np.empty(nnz, dtype=VALUE_DTYPE)

    for g, res in zip(grouping, results):
        if len(g) == 0:
            continue
        if not np.array_equal(res.counts, row_nnz[g.rows]):
            raise RuntimeError(
                "numeric phase disagrees with symbolic counts — "
                "accumulator inconsistency"
            )
        # scatter the group's concatenated rows into their global slots
        starts = row_offsets[g.rows]
        local = res.offsets()
        src_n = res.nnz
        dest = np.repeat(starts - local[:-1], res.counts) + np.arange(
            src_n, dtype=INDEX_DTYPE
        )
        col_ids[dest] = res.col_ids
        data[dest] = res.values

    return CSRMatrix(a.n_rows, b.n_cols, row_offsets, col_ids, data, check=False)
