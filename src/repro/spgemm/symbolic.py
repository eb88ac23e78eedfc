"""Symbolic phase: exact nnz of every output row (paper Section II.B).

"The first phase is the symbolic phase, where they first count the number
of non-zero elements of each row in the output matrix."  Knowing the counts
makes exact output allocation possible before any value is computed.

``symbolic_sort`` (expand + lexsort + unique) is the oracle and the
profiling path; it is batched over rows so peak memory is bounded.  The
kernels' own symbolic pass lives in :mod:`repro.spgemm.twophase`, where
the fused accumulators produce counts and values together.
"""

from __future__ import annotations

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE
from .expand import expand_products, row_batches
from .upperbound import row_upper_bound

__all__ = [
    "row_batches",
    "symbolic_sort",
    "symbolic_row_nnz",
]

#: default cap on intermediate products materialized at once
PRODUCT_BATCH = 1 << 23


def symbolic_sort(
    a: CSRMatrix, b: CSRMatrix, *, batch_products: int = PRODUCT_BATCH
) -> np.ndarray:
    """Exact output-row nnz via expand + sort + unique (oracle path)."""
    ppr = row_upper_bound(a, b)  # products per row
    out = np.zeros(a.n_rows, dtype=INDEX_DTYPE)
    for lo, hi in row_batches(ppr, batch_products):
        rows, cols, _ = expand_products(a, b, lo, hi)
        if rows.size == 0:
            continue
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        new = np.empty(rows.size, dtype=bool)
        new[0] = True
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        np.add.at(out, rows[new], 1)
    return out


def symbolic_row_nnz(a: CSRMatrix, b: CSRMatrix, method: str = "sort") -> np.ndarray:
    """Exact nnz per output row of ``A x B``.

    ``method`` is ``"sort"`` (the oracle); no other method remains.
    """
    if method == "sort":
        return symbolic_sort(a, b)
    raise ValueError(f"unknown symbolic method {method!r}")
