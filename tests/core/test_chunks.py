"""Tests for the chunk grid and profiling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunks import (
    ChunkGrid, ChunkProfile, chunk_flops, count_table, csr_bytes, table_flops,
)
from repro.sparse.generators import random_csr
from repro.sparse.partition import panel_boundaries
from repro.spgemm.flops import total_flops
from repro.spgemm.reference import spgemm_scipy


class TestGrid:
    def test_regular_grid(self):
        g = ChunkGrid.regular(10, 12, 2, 3)
        np.testing.assert_array_equal(g.row_bounds, [0, 5, 10])
        np.testing.assert_array_equal(g.col_bounds, [0, 4, 8, 12])
        assert g.num_chunks == 6

    def test_chunk_id_row_major(self):
        g = ChunkGrid.regular(10, 10, 2, 3)
        assert g.chunk_id(1, 2) == 5
        assert g.panel_of(5) == (1, 2)

    def test_roundtrip_ids(self):
        g = ChunkGrid.regular(20, 20, 4, 5)
        for cid in range(g.num_chunks):
            rp, cp = g.panel_of(cid)
            assert g.chunk_id(rp, cp) == cid


class TestChunkFlops:
    def test_sums_to_total(self, workload):
        a, grid, profile, _ = workload
        f = chunk_flops(a, a, grid)
        assert f.sum() == total_flops(a, a)

    def test_matches_profile(self, workload):
        a, grid, profile, _ = workload
        f = chunk_flops(a, a, grid)
        for ch in profile.chunks:
            assert f[ch.row_panel, ch.col_panel] == ch.flops

    def test_single_chunk_grid(self):
        a = random_csr(10, 10, 30, seed=81)
        g = ChunkGrid.regular(10, 10, 1, 1)
        assert chunk_flops(a, a, g)[0, 0] == total_flops(a, a)


@st.composite
def products_and_grids(draw):
    """Rectangular A x B with arbitrary panel cuts (empty panels too)."""
    m, k, n = (draw(st.integers(1, 24)) for _ in range(3))
    a = random_csr(m, k, draw(st.integers(0, 3 * m)), seed=draw(st.integers(0, 9999)))
    b = random_csr(k, n, draw(st.integers(0, 3 * k)), seed=draw(st.integers(0, 9999)))

    def bounds(size):
        cuts = draw(st.lists(st.integers(0, size), min_size=0, max_size=8))
        return np.array([0, *sorted(cuts), size], dtype=np.int64)

    return a, b, ChunkGrid(row_bounds=bounds(m), col_bounds=bounds(n))


def brute_force_flops(a, b, grid):
    """Expand every (A element, B element) product and bin it by chunk."""
    out = np.zeros((grid.num_row_panels, grid.num_col_panels), dtype=np.int64)
    for i in range(a.n_rows):
        rp = np.searchsorted(grid.row_bounds, i, side="right") - 1
        for k in a.col_ids[a.row_offsets[i]:a.row_offsets[i + 1]]:
            for j in b.col_ids[b.row_offsets[k]:b.row_offsets[k + 1]]:
                out[rp, np.searchsorted(grid.col_bounds, j, side="right") - 1] += 2
    return out


class TestCountTable:
    @given(case=products_and_grids())
    @settings(max_examples=150, deadline=None)
    def test_chunk_flops_equals_brute_force(self, case):
        a, b, grid = case
        got = chunk_flops(a, b, grid)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, brute_force_flops(a, b, grid))

    def test_one_table_prices_every_column_partition(self):
        a = random_csr(30, 20, 90, seed=5)
        b = random_csr(20, 40, 70, seed=6)
        for r in range(1, 10):
            table = count_table(a, b, panel_boundaries(a.n_rows, r))
            for c in range(1, 10):
                grid = ChunkGrid.regular(a.n_rows, b.n_cols, r, c)
                np.testing.assert_array_equal(
                    table_flops(table, grid.col_bounds), brute_force_flops(a, b, grid))


class TestProfile:
    def test_chunk_nnz_sums_to_product_nnz(self, workload):
        a, _, profile, _ = workload
        assert profile.total_nnz_out == spgemm_scipy(a, a).nnz

    def test_total_flops(self, workload):
        a, _, profile, _ = workload
        assert profile.total_flops == total_flops(a, a)

    def test_chunk_stats_filled(self, workload):
        _, _, profile, _ = workload
        for ch in profile.chunks:
            assert ch.executed
            assert ch.output_bytes >= 0
            assert ch.analysis_bytes == ch.rows * 8

    def test_outputs_grid_shape(self, workload):
        _, grid, _, outputs = workload
        assert len(outputs) == grid.num_row_panels
        assert all(len(row) == grid.num_col_panels for row in outputs)

    def test_compression_ratio(self, workload):
        _, _, profile, _ = workload
        assert profile.compression_ratio() == pytest.approx(
            profile.total_flops / profile.total_nnz_out
        )

    def test_orders(self, workload):
        _, _, profile, _ = workload
        desc = profile.order_by_flops_desc()
        flops = [profile.chunks[i].flops for i in desc]
        assert flops == sorted(flops, reverse=True)
        assert sorted(desc) == profile.natural_order()

    def test_cr_requires_execution(self):
        from repro.core.chunks import ChunkStats

        ch = ChunkStats(
            chunk_id=0, row_panel=0, col_panel=0, rows=5, width=5, flops=10,
            a_panel_bytes=0, b_panel_bytes=0, input_nnz=0,
        )
        assert not ch.executed
        with pytest.raises(ValueError):
            _ = ch.cr

    def test_serialization_roundtrip(self, workload):
        _, _, profile, _ = workload
        back = ChunkProfile.from_dict(profile.to_dict())
        assert back.name == profile.name
        np.testing.assert_array_equal(back.grid.row_bounds, profile.grid.row_bounds)
        assert back.chunks == profile.chunks

    def test_json_compatible(self, workload):
        import json

        _, _, profile, _ = workload
        payload = json.loads(json.dumps(profile.to_dict()))
        assert ChunkProfile.from_dict(payload).chunks == profile.chunks


class TestCsrBytes:
    def test_formula(self):
        assert csr_bytes(10, 100) == 11 * 8 + 100 * 16
