"""Equivalence battery for sharded multi-device execution.

The sharding contract is absolute: for any operands, any shard count,
any backend, and any kernel, ``run_sharded`` produces the same bits as
the 1-shard run — which itself matches the scipy oracle.  Sharding may
only change *where* chunks execute, never *what* they compute.
"""

import numpy as np
import pytest

from repro.core.chunks import ChunkGrid, chunk_flops
from repro.core.governor import GovernorConfig
from repro.distributed.shard import (
    ShardConfig,
    plan_shards,
    run_sharded,
)
from repro.sparse.generators import erdos_renyi, random_csr, rmat
from tests.conftest import assert_equals_scipy_product, needs_native


@pytest.fixture(scope="module")
def operands():
    a = rmat(8, 6.0, seed=81)            # power-law rows
    b = random_csr(a.n_cols, 180, 4 * a.n_cols, seed=82)
    return a, b


class TestPlanShards:
    def grid(self, rows=97, cols=40, rp=7, cp=3):
        return ChunkGrid.regular(rows, cols, rp, cp)

    def test_spans_partition_the_panels(self):
        grid = self.grid()
        spans = plan_shards(grid, 3)
        assert spans[0].rp_lo == 0
        assert spans[-1].rp_hi == grid.num_row_panels
        for prev, cur in zip(spans, spans[1:]):
            assert cur.rp_lo == prev.rp_hi       # contiguous, no gaps
        assert all(s.num_row_panels >= 1 for s in spans)

    def test_clamps_to_panel_count(self):
        grid = self.grid(rp=3)
        spans = plan_shards(grid, 8)
        assert len(spans) == 3

    def test_flops_balance_on_skew(self):
        # all the work in the top rows: flops-balanced cuts must not
        # hand shard 0 everything the way equal-panel cuts would
        a = random_csr(90, 90, 900, seed=5)
        top = a.row_slice(0, 30)
        from repro.sparse.ops import vstack

        skewed = vstack([top, top, top])  # uniform-ish baseline
        grid = ChunkGrid.regular(90, 90, 6, 2)
        flops = chunk_flops(skewed, skewed, grid)
        spans = plan_shards(grid, 3, flops, "flops")
        weights = flops.sum(axis=1)
        loads = [int(weights[s.rp_lo:s.rp_hi].sum()) for s in spans]
        assert len(loads) == 3 and all(l > 0 for l in loads)
        assert max(loads) <= 2 * (sum(loads) // 3) + int(weights.max())

    def test_zero_flops_falls_back_to_panels(self):
        grid = self.grid()
        flops = np.zeros((grid.num_row_panels, grid.num_col_panels),
                         dtype=np.int64)
        spans = plan_shards(grid, 4, flops, "flops")
        sizes = [s.num_row_panels for s in spans]
        assert max(sizes) - min(sizes) <= 1


class TestConfigValidation:
    def test_bad_counts(self):
        with pytest.raises(ValueError):
            ShardConfig(num_shards=0)
        with pytest.raises(ValueError):
            ShardConfig(workers=0)
        with pytest.raises(ValueError):
            ShardConfig(balance="magic")

    def test_dimension_mismatch(self):
        a = random_csr(10, 8, 20, seed=1)
        with pytest.raises(ValueError, match="mismatch"):
            run_sharded(a, a, ShardConfig(num_shards=2))


class TestBackendKernelGrid:
    """N-shard == 1-shard == scipy across the backend x kernel grid."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("kernel", [
        None, "esc", pytest.param("native", marks=needs_native),
    ])
    def test_bit_identical_across_grid(self, operands, backend, kernel):
        if backend == "process" and kernel is not None:
            pytest.skip("process x kernel covered by the default-kernel case")
        a, b = operands
        base = run_sharded(
            a, b, ShardConfig(num_shards=1, kernel=kernel), name="base")
        res = run_sharded(
            a, b,
            ShardConfig(num_shards=3, workers=2, backend=backend,
                        kernel=kernel),
            name=f"eq-{backend}-{kernel}",
        )
        assert res.num_shards == 3
        assert res.matrix == base.matrix      # exact, not allclose
        assert_equals_scipy_product(res.matrix, a, b)

    def test_shards_share_one_budget(self, operands):
        a, b = operands
        res = run_sharded(
            a, b,
            ShardConfig(num_shards=3, workers=2,
                        governor=GovernorConfig(host_mem_budget_bytes=1 << 26)),
        )
        assert res.ledger_budget_bytes == 1 << 26
        assert res.ledger_peak_bytes > 0
        assert_equals_scipy_product(res.matrix, a, b)


class TestPropertySweep:
    """Seeded sweep over RMAT / power-law-ish random operands."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("num_shards", [2, 5])
    def test_random_operands(self, seed, num_shards):
        rng = np.random.default_rng([20260806, seed])
        scale = int(rng.integers(6, 9))
        a = rmat(scale, float(rng.uniform(3.0, 8.0)), seed=100 + seed)
        n_out = int(rng.integers(40, 160))
        b = random_csr(a.n_cols, n_out, 3 * a.n_cols, seed=200 + seed)
        base = run_sharded(a, b, ShardConfig(num_shards=1))
        res = run_sharded(a, b, ShardConfig(num_shards=num_shards, workers=2))
        assert res.matrix == base.matrix
        assert_equals_scipy_product(res.matrix, a, b)

    def test_sparse_er_operands(self):
        a = erdos_renyi(230, 4.0, seed=17)
        base = run_sharded(a, a, ShardConfig(num_shards=1))
        res = run_sharded(a, a, ShardConfig(num_shards=4))
        assert res.matrix == base.matrix
        assert_equals_scipy_product(res.matrix, a, a)

    def test_empty_operand(self):
        from repro.sparse.formats import CSRMatrix

        a = CSRMatrix.empty(60, 50)
        b = random_csr(50, 40, 100, seed=3)
        res = run_sharded(a, b, ShardConfig(num_shards=3))
        assert res.matrix.nnz == 0
        assert res.profile.total_flops == 0


class TestObservability:
    def test_profile_merges_globally(self, operands):
        a, b = operands
        grid = ChunkGrid.regular(a.n_rows, b.n_cols, 6, 2)
        base = run_sharded(a, b, ShardConfig(num_shards=1), grid=grid)
        res = run_sharded(a, b, ShardConfig(num_shards=3), grid=grid)
        assert len(res.profile.chunks) == grid.num_chunks
        # global ids in row-major order, workload identical to 1-shard
        for cid, st in enumerate(res.profile.chunks):
            assert st.chunk_id == cid
            assert (st.row_panel, st.col_panel) == grid.panel_of(cid)
        assert res.profile.total_flops == base.profile.total_flops
        assert res.profile.total_nnz_out == base.profile.total_nnz_out

    def test_transfer_model_shape(self, operands):
        a, b = operands
        res = run_sharded(a, b, ShardConfig(num_shards=4))
        recs = {r.shard_id: r for r in res.records}
        assert recs[0].transfer_bytes == 0       # co-located with host
        for t in range(1, 4):
            # broadcast of B at minimum, plus its C strip unless empty
            assert recs[t].transfer_bytes >= b.nbytes()
        assert res.sim_makespan > 0
        for rec in res.records:
            assert 0.0 <= rec.utilization <= 1.0

    def test_single_shard_has_no_transfers(self, operands):
        a, b = operands
        res = run_sharded(a, b, ShardConfig(num_shards=1))
        assert res.transfer_bytes_total == 0

    def test_trace_events_merge_streams(self, operands):
        a, b = operands
        res = run_sharded(a, b, ShardConfig(
            num_shards=2, governor=GovernorConfig(host_mem_budget_bytes=1 << 26)))
        assert set(res.tracers) == {"node", "shard0", "shard1"}
        events = res.trace_events()
        names = {e["args"]["name"] for e in events
                 if e.get("ph") == "M" and e["name"] == "process_name"}
        assert {"node", "shard0", "shard1"}.issubset(names)
        assert any("simulated" in n for n in names)
        pids = {e["pid"] for e in events}
        assert len(pids) == 4  # three tracer streams + the sim timeline
