"""Tests for the OCEAN-style sampled output-size estimator."""

import numpy as np
import pytest

from repro.core.chunks import ChunkGrid
from repro.device.kernels import default_cost_model
from repro.device.specs import v100_node
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, random_csr, rmat
from repro.spgemm.estimate import (
    ChunkEstimates,
    RowNnzEstimate,
    estimate_chunks,
    estimate_row_nnz,
    hybrid_ratio_from_estimate,
)
from repro.spgemm.flops import flops_per_row, total_flops
from repro.spgemm.twophase import spgemm_twophase


def true_row_nnz(a, b):
    c = spgemm_twophase(a, b).matrix
    return np.diff(c.row_offsets).astype(np.float64)


def _pair(m):
    return m, m


MATRICES = [
    ("rmat", lambda: _pair(rmat(10, 8.0, seed=3))),
    ("banded", lambda: _pair(banded(500, 6, seed=7))),
    ("rect", lambda: (random_csr(200, 150, 1200, seed=11),
                      random_csr(150, 120, 900, seed=12))),
]


class TestEstimatorBounds:
    """The invariants the planner and governor rely on."""

    @pytest.mark.parametrize("name,make", MATRICES, ids=[n for n, _ in MATRICES])
    def test_hi_never_exceeds_hard_ceiling(self, name, make):
        a, b = make()
        est = estimate_row_nnz(a, b, seed=0)
        ceiling = np.minimum(est.ub, est.width)
        assert np.all(est.row_nnz_hi <= ceiling + 1e-9)
        assert np.all(est.row_nnz <= est.row_nnz_hi + 1e-9)
        assert np.all(est.row_nnz_lo <= est.row_nnz + 1e-9)
        assert np.all(est.row_nnz_lo >= 0)

    @pytest.mark.parametrize("name,make", MATRICES, ids=[n for n, _ in MATRICES])
    def test_active_rows_estimated_at_least_one(self, name, make):
        a, b = make()
        est = estimate_row_nnz(a, b, seed=0)
        active = est.ub > 0
        assert np.all(est.row_nnz[active] >= 1.0)
        assert np.all(est.row_nnz_hi[active] >= 1.0)
        assert np.all(est.row_nnz[~active] == 0.0)

    @pytest.mark.parametrize("name,make", MATRICES, ids=[n for n, _ in MATRICES])
    def test_sampled_rows_are_exact(self, name, make):
        a, b = make()
        est = estimate_row_nnz(a, b, seed=0)
        truth = true_row_nnz(a, b)
        s = est.sampled_rows
        assert s.size > 0
        np.testing.assert_allclose(est.row_nnz[s], truth[s])
        np.testing.assert_allclose(est.row_nnz_lo[s], truth[s])
        np.testing.assert_allclose(est.row_nnz_hi[s], truth[s])

    @pytest.mark.parametrize("name,make", MATRICES, ids=[n for n, _ in MATRICES])
    def test_true_total_within_confidence_band(self, name, make):
        a, b = make()
        est = estimate_row_nnz(a, b, seed=0)
        truth = float(true_row_nnz(a, b).sum())
        assert est.total_nnz_lo <= truth <= est.total_nnz_hi
        # and the point estimate is a real improvement over the UB
        ub_total = float(est.ub.sum())
        assert est.total_nnz <= ub_total

    @pytest.mark.parametrize("name,make", MATRICES, ids=[n for n, _ in MATRICES])
    def test_full_sample_is_exact(self, name, make):
        a, b = make()
        est = estimate_row_nnz(a, b, sample_fraction=1.0, seed=0)
        truth = true_row_nnz(a, b)
        np.testing.assert_allclose(est.row_nnz, truth)
        np.testing.assert_allclose(est.row_nnz_lo, truth)
        np.testing.assert_allclose(est.row_nnz_hi, truth)
        assert est.sample_fraction <= 1.0

    def test_deterministic_for_fixed_seed(self):
        a = rmat(9, 8.0, seed=5)
        e1 = estimate_row_nnz(a, a, seed=42)
        e2 = estimate_row_nnz(a, a, seed=42)
        np.testing.assert_array_equal(e1.row_nnz, e2.row_nnz)
        np.testing.assert_array_equal(e1.sampled_rows, e2.sampled_rows)

    def test_empty_matrix(self):
        a = CSRMatrix.empty(8, 8)
        est = estimate_row_nnz(a, a, seed=0)
        assert est.total_nnz == 0.0
        assert est.total_nnz_hi == 0.0
        assert est.sampled_rows.size == 0

    def test_invalid_fraction_rejected(self):
        a = banded(20, 2, seed=0)
        with pytest.raises(ValueError, match="sample_fraction"):
            estimate_row_nnz(a, a, sample_fraction=0.0)
        with pytest.raises(ValueError, match="sample_fraction"):
            estimate_row_nnz(a, a, sample_fraction=1.5)

    def test_ratio_in_unit_interval(self):
        a = rmat(9, 8.0, seed=1)
        est = estimate_row_nnz(a, a, seed=0)
        assert np.all(est.ratio() >= 0.0)
        assert np.all(est.ratio() <= 1.0 + 1e-9)
        assert np.all(est.ratio_hi() <= 1.0 + 1e-9)


class TestChunkEstimates:
    def test_chunk_totals_consistent(self):
        a = rmat(9, 8.0, seed=2)
        est = estimate_row_nnz(a, a, seed=0)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 3, 4)
        ce = estimate_chunks(a, a, grid, est)
        # products split exactly; estimates split proportionally
        assert int(ce.products.sum()) == total_flops(a, a) // 2
        assert ce.nnz.sum() <= est.total_nnz + 1e-6
        assert np.all(ce.nnz_hi >= ce.nnz - 1e-9)

    def test_chunk_hi_respects_dense_extent_and_products(self):
        a = rmat(9, 8.0, seed=2)
        est = estimate_row_nnz(a, a, seed=0)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 4, 4)
        ce = estimate_chunks(a, a, grid, est)
        rows = np.diff(grid.row_bounds).astype(np.int64)
        cols = np.diff(grid.col_bounds).astype(np.int64)
        dense = rows[:, None] * cols[None, :]
        assert np.all(ce.nnz_hi <= np.minimum(ce.products, dense) + 1e-9)

    def test_estimated_bytes_below_upper_bound_bytes(self):
        """The whole point: estimated footprints undercut UB footprints
        on a compressing matrix."""
        from repro.core.chunks import csr_bytes
        from repro.core.memcheck import chunk_device_bytes

        a = rmat(11, 8.0, seed=3)
        est = estimate_row_nnz(a, a, seed=0)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 2, 2)
        ce = estimate_chunks(a, a, grid, est)
        rows = np.diff(grid.row_bounds).astype(np.int64)
        cols = np.diff(grid.col_bounds).astype(np.int64)
        dense = rows[:, None] * cols[None, :]
        ub_nnz = np.minimum(ce.products, dense)
        est_dev = ce.device_bytes()
        est_host = ce.host_bytes()
        cid = 0
        ub_dev = np.empty_like(est_dev)
        ub_host = np.empty_like(est_host)
        for rp in range(grid.num_row_panels):
            for cp in range(grid.num_col_panels):
                ub_dev[cid] = chunk_device_bytes(int(rows[rp]), int(ce.products[rp, cp]))
                ub_host[cid] = csr_bytes(int(rows[rp]), int(ub_nnz[rp, cp]))
                cid += 1
        assert np.all(est_dev <= ub_dev)
        assert np.all(est_host <= ub_host)
        # strict improvement in aggregate on an RMAT output
        assert est_dev.sum() < ub_dev.sum()

    def test_true_chunk_nnz_within_hi_in_aggregate(self):
        a = banded(300, 5, seed=4)
        est = estimate_row_nnz(a, a, seed=0)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 3, 3)
        ce = estimate_chunks(a, a, grid, est)
        truth = float(true_row_nnz(a, a).sum())
        assert truth <= ce.nnz_hi.sum() + 1e-6


class TestKernelAndRatioChoice:
    def test_hybrid_ratio_in_unit_interval(self):
        a = rmat(9, 8.0, seed=10)
        est = estimate_row_nnz(a, a, seed=0)
        cost = default_cost_model(v100_node())
        ratio = hybrid_ratio_from_estimate(est, total_flops(a, a), cost)
        assert 0.0 <= ratio <= 1.0
