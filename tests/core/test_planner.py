"""Tests for panel-count planning."""

import numpy as np
import pytest

from repro.core.planner import (
    chunk_footprint_bytes,
    plan_grid,
    resident_input_bytes,
    working_set_bytes,
)
from repro.device.specs import v100_node
from repro.sparse.generators import banded, rmat


@pytest.fixture(scope="module")
def matrix():
    return rmat(10, 8.0, seed=91)


class TestFootprints:
    def test_chunk_footprint_grows_with_flops(self):
        assert chunk_footprint_bytes(100, 2_000_000) > chunk_footprint_bytes(100, 1_000_000)

    def test_resident_inputs_grow_with_panels(self, matrix):
        assert resident_input_bytes(matrix, matrix, 8) > resident_input_bytes(matrix, matrix, 1)

    def test_working_set_exceeds_output(self):
        ws = working_set_bytes(1000, 5000, 200_000, 60_000)
        assert ws > 60_000 * 16


class TestPlanGrid:
    def test_plan_fits(self, matrix):
        node = v100_node(64 << 20)
        report = plan_grid(matrix, matrix, node)
        assert report.fits
        assert report.worst_chunk_bytes <= report.budget_bytes

    def test_more_memory_coarser_grid(self, matrix):
        small = plan_grid(matrix, matrix, v100_node(48 << 20))
        large = plan_grid(matrix, matrix, v100_node(1 << 30))
        assert large.grid.num_chunks <= small.grid.num_chunks

    def test_huge_memory_single_chunk(self, matrix):
        report = plan_grid(matrix, matrix, v100_node(8 << 30))
        assert report.grid.num_chunks == 1

    def test_too_small_device_raises(self, matrix):
        with pytest.raises(ValueError, match="no grid"):
            plan_grid(matrix, matrix, v100_node(1 << 20), max_panels=4)

    def test_resident_inputs_over_device_named(self):
        m = banded(n=2000, bandwidth=5, fill=0.5, seed=1)
        with pytest.raises(ValueError, match=(
            r"^no grid up to 64x64 fits the device budget; the resident "
            r"inputs alone take \d+ of the 1000 device bytes$"
        )):
            plan_grid(m, m, v100_node(1000))

    def test_no_per_candidate_recount(self, matrix, monkeypatch):
        """Grid search reads one count table per row count; it never
        re-splits B per candidate grid."""
        import sys

        import repro.sparse.partition as partition

        calls = []
        real = partition.build_col_offsets

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # every module that bound the name, not just its home module
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(
                    module, "build_col_offsets", None) is real:
                monkeypatch.setattr(module, "build_col_offsets", counted)
        report = plan_grid(matrix, matrix, v100_node(8 << 20))
        assert report.grid.num_chunks == 16
        assert calls == []

    def test_report_carries_chunk_flops(self, matrix):
        from repro.core.chunks import chunk_flops
        from repro.spgemm.estimate import estimate_row_nnz

        for estimate in (None, estimate_row_nnz(matrix, matrix, seed=0)):
            report = plan_grid(matrix, matrix, v100_node(8 << 20),
                               estimate=estimate)
            expect = chunk_flops(matrix, matrix, report.grid)
            assert report.flops.dtype == expect.dtype
            np.testing.assert_array_equal(report.flops, expect)

    def test_banded_prefers_valid_rectangles(self):
        m = banded(2000, 6, seed=1, fill=0.8)
        report = plan_grid(m, m, v100_node(8 << 20))
        g = report.grid
        # aspect-ratio constraint holds
        assert max(g.num_row_panels, g.num_col_panels) <= 4 * min(
            g.num_row_panels, g.num_col_panels
        )

    def test_bad_safety(self, matrix):
        with pytest.raises(ValueError):
            plan_grid(matrix, matrix, v100_node(), safety=0.0)

    def test_buffers_halve_budget(self, matrix):
        one = plan_grid(matrix, matrix, v100_node(64 << 20), buffers=1)
        two = plan_grid(matrix, matrix, v100_node(64 << 20), buffers=2)
        assert two.budget_bytes <= one.budget_bytes
        assert two.grid.num_chunks >= one.grid.num_chunks


class TestEstimatedPlanning:
    """plan_grid with a sampled estimate: coarser grids, UB still a ceiling."""

    def _est(self, m):
        from repro.spgemm.estimate import estimate_row_nnz

        return estimate_row_nnz(m, m, seed=0)

    def test_estimate_never_coarsens_past_ub_ceiling(self):
        """Estimated worst-chunk bytes are capped by the UB footprint."""
        from repro.core.planner import _grid_costs
        from repro.core.chunks import ChunkGrid

        m = rmat(10, 8.0, seed=91)
        grid = ChunkGrid.regular(m.n_rows, m.n_cols, 3, 3)
        with_est, _ = _grid_costs(m, m, grid, self._est(m))
        without, _ = _grid_costs(m, m, grid)
        assert with_est <= without

    def test_estimated_grid_no_finer_than_ub_grid(self):
        m = rmat(11, 8.0, seed=91)
        node = v100_node(24 << 20)
        ub_report = plan_grid(m, m, node)
        est_report = plan_grid(m, m, node, estimate=self._est(m))
        assert est_report.grid.num_chunks <= ub_report.grid.num_chunks
        assert est_report.estimated
        assert not ub_report.estimated

    def test_estimated_worst_chunk_fits_budget(self):
        m = rmat(10, 8.0, seed=91)
        report = plan_grid(m, m, v100_node(24 << 20), estimate=self._est(m))
        assert report.worst_chunk_bytes <= report.budget_bytes

    def test_footprint_helper_monotone(self):
        from repro.core.planner import estimated_chunk_footprint_bytes

        assert estimated_chunk_footprint_bytes(10, 100.0) < (
            estimated_chunk_footprint_bytes(10, 10_000.0)
        )


class TestPlanAutotuned:
    def test_autotune_bundles_consistent_choices(self):
        from repro.core.planner import plan_autotuned
        from repro.spgemm.kernels import KernelSpec

        m = rmat(10, 8.0, seed=91)
        node = v100_node(24 << 20)
        at = plan_autotuned(m, m, node, seed=0)
        assert at.report.estimated
        assert at.grid is at.report.grid
        assert 0.0 <= at.ratio <= 1.0
        # the kernel is the resolved default, never the "auto" policy
        assert at.kernel == KernelSpec().resolved()
        assert at.kernel.kind in ("native", "esc")
        # same seed, same plan
        again = plan_autotuned(m, m, node, seed=0)
        assert again.grid.num_chunks == at.grid.num_chunks
        assert again.ratio == at.ratio

    def test_autotune_executes_identically(self):
        """The tuned grid/kernel must not change the assembled product."""
        import numpy as np

        from repro.core.assemble import assemble_chunks
        from repro.core.executor import execute_chunk_grid
        from repro.core.planner import plan_autotuned, plan_grid

        m = rmat(9, 8.0, seed=92)
        node = v100_node(24 << 20)
        default_grid = plan_grid(m, m, node).grid
        at = plan_autotuned(m, m, node, seed=0)
        _, base_out = execute_chunk_grid(m, m, default_grid, keep_outputs=True)
        _, at_out = execute_chunk_grid(
            m, m, at.grid, keep_outputs=True, kernel=at.kernel.encode()
        )
        c0 = assemble_chunks(base_out)
        c1 = assemble_chunks(at_out)
        assert np.array_equal(c0.row_offsets, c1.row_offsets)
        assert np.array_equal(c0.col_ids, c1.col_ids)
        assert np.array_equal(c0.data, c1.data)


#: grid shapes chosen at the time planning moved to count tables, on
#: every suite matrix: (UB grid, grid with estimate_row_nnz(seed=0))
PINNED_GRIDS = {
    "lj2008": ((9, 3), (4, 4)),
    "com-lj": ((4, 8), (4, 4)),
    "soc-lj": ((4, 6), (4, 4)),
    "stokes": ((2, 5), (1, 3)),
    "uk-2002": ((2, 5), (1, 2)),
    "wiki0206": ((4, 4), (4, 2)),
    "nlp": ((2, 5), (1, 1)),
    "wiki1104": ((4, 4), (4, 2)),
    "wiki0925": ((4, 4), (2, 4)),
}


@pytest.mark.parametrize("abbr", sorted(PINNED_GRIDS))
def test_suite_grid_choices_pinned(abbr):
    from repro.experiments.runner import get_matrix, get_node
    from repro.spgemm.estimate import estimate_row_nnz

    m, node = get_matrix(abbr), get_node(abbr)
    shapes = tuple(
        (rep.grid.num_row_panels, rep.grid.num_col_panels)
        for rep in (plan_grid(m, m, node),
                    plan_grid(m, m, node, estimate=estimate_row_nnz(m, m, seed=0)))
    )
    assert shapes == PINNED_GRIDS[abbr]
