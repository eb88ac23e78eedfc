"""Tests for the numeric phase: scatter of cached group results."""

import numpy as np
import pytest

from repro.sparse.generators import random_csr
from repro.spgemm.accumulators import esc_accumulate_rows
from repro.spgemm.groups import RowGroup, RowGrouping
from repro.spgemm.numeric import numeric_grouped
from repro.spgemm.symbolic import symbolic_row_nnz
from tests.conftest import assert_equals_scipy_product


def _grouping(a, groups):
    return RowGrouping(
        groups=tuple(RowGroup(rows=np.asarray(r, dtype=np.int64), method="esc")
                     for r in groups),
        n_rows=a.n_rows,
    )


def numeric_phase(a, b, row_nnz, groups=None):
    """Numeric phase over ``groups`` (default: every row in one group),
    each group's values computed by the ESC accumulator."""
    if groups is None:
        groups = [np.arange(a.n_rows)]
    grouping = _grouping(a, groups)
    results = [esc_accumulate_rows(a, b, g.rows) for g in grouping]
    return numeric_grouped(a, b, row_nnz, grouping, results)


class TestNumericPhase:
    def test_matches_scipy(self, sample_matrix):
        a = sample_matrix
        row_nnz = symbolic_row_nnz(a, a)
        c = numeric_phase(a, a, row_nnz)
        assert_equals_scipy_product(c, a, a)

    def test_rectangular(self):
        a = random_csr(10, 14, 35, seed=21)
        b = random_csr(14, 9, 30, seed=22)
        c = numeric_phase(a, b, symbolic_row_nnz(a, b))
        assert_equals_scipy_product(c, a, b)

    def test_output_layout_fixed_by_counts(self, sample_matrix):
        a = sample_matrix
        row_nnz = symbolic_row_nnz(a, a)
        c = numeric_phase(a, a, row_nnz)
        np.testing.assert_array_equal(np.diff(c.row_offsets), row_nnz)

    def test_grouping_order_irrelevant(self, sample_matrix):
        a = sample_matrix
        row_nnz = symbolic_row_nnz(a, a)
        default = numeric_phase(a, a, row_nnz)
        # odd rows first, then even rows: each group lands in its slots
        rows = np.arange(a.n_rows)
        split = numeric_phase(a, a, row_nnz, groups=[rows[1::2], rows[::2]])
        assert default == split

    def test_bad_counts_length(self, sample_matrix):
        with pytest.raises(ValueError, match="length"):
            numeric_phase(sample_matrix, sample_matrix, np.zeros(3, dtype=np.int64))

    def test_results_must_align_with_groups(self, sample_matrix):
        a = sample_matrix
        grouping = _grouping(a, [np.arange(a.n_rows)])
        with pytest.raises(ValueError, match="align"):
            numeric_grouped(a, a, symbolic_row_nnz(a, a), grouping, [])

    def test_inconsistent_counts_detected(self, sample_matrix):
        a = sample_matrix
        row_nnz = symbolic_row_nnz(a, a).copy()
        nonzero = np.flatnonzero(row_nnz)
        row_nnz[nonzero[0]] += 1  # lie about one row
        with pytest.raises(RuntimeError, match="disagrees"):
            numeric_phase(a, a, row_nnz)
