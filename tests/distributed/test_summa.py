"""Tests for Sparse SUMMA: the pure simulation and the executed path."""

import numpy as np
import pytest

from repro.distributed.summa import (
    NetworkModel,
    SummaExecution,
    distribute_blocks,
    sparse_summa,
)
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import random_csr, rmat
from repro.sparse.ops import hstack, vstack
from tests.conftest import assert_equals_scipy_product, needs_native


class TestDistribute:
    def test_blocks_reassemble(self, sample_matrix):
        grid = distribute_blocks(sample_matrix, 3)
        strips = [hstack(list(row)) for row in grid.blocks]
        assert vstack(strips) == sample_matrix

    def test_single_process(self, sample_matrix):
        grid = distribute_blocks(sample_matrix, 1)
        assert grid.block(0, 0) == sample_matrix

    def test_bad_grid(self, sample_matrix):
        with pytest.raises(ValueError):
            distribute_blocks(sample_matrix, 0)


class TestCorrectness:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_product_exact(self, sample_matrix, q):
        result = sparse_summa(sample_matrix, sample_matrix, q)
        assert_equals_scipy_product(result.assemble(), sample_matrix, sample_matrix)

    def test_rectangular(self):
        a = random_csr(30, 20, 90, seed=31)
        b = random_csr(20, 25, 70, seed=32)
        result = sparse_summa(a, b, 2)
        assert_equals_scipy_product(result.assemble(), a, b)

    def test_empty(self):
        a = CSRMatrix.empty(9, 9)
        result = sparse_summa(a, a, 3)
        assert result.assemble().nnz == 0

    def test_dimension_mismatch(self):
        a = random_csr(4, 5, 8, seed=1)
        with pytest.raises(ValueError, match="mismatch"):
            sparse_summa(a, a, 2)


class TestTiming:
    @pytest.fixture(scope="class")
    def matrix(self):
        return rmat(9, 6.0, seed=41)

    def test_more_processes_faster(self, matrix):
        t1 = sparse_summa(matrix, matrix, 1).elapsed
        t3 = sparse_summa(matrix, matrix, 3).elapsed
        assert t3 < t1

    def test_pipelining_helps(self, matrix):
        piped = sparse_summa(matrix, matrix, 3, pipelined=True)
        serial = sparse_summa(matrix, matrix, 3, pipelined=False)
        assert piped.elapsed <= serial.elapsed
        # pipelining overlaps a NIC with its CPU somewhere on the grid
        overlap = sum(
            piped.timeline.overlap_time(f"nic{i}.{j}", f"cpu{i}.{j}")
            for i in range(3) for j in range(3)
        )
        assert overlap > 0

    def test_stage_order_per_process(self, matrix):
        result = sparse_summa(matrix, matrix, 2)
        labels = [f"gemm[0.0@{k}]" for k in range(2)]
        assert result.timeline.order_of(labels) == labels

    def test_network_model_sensitivity(self, matrix):
        fast = sparse_summa(matrix, matrix, 2,
                            network=NetworkModel(bandwidth=100e9))
        slow = sparse_summa(matrix, matrix, 2,
                            network=NetworkModel(bandwidth=1e9))
        assert fast.elapsed < slow.elapsed

    def test_gflops_positive(self, matrix):
        result = sparse_summa(matrix, matrix, 2)
        assert result.gflops > 0
        assert result.total_flops > 0


class TestExecutedPath:
    """``sparse_summa(..., execution=...)`` promotes the simulation to a
    real sharded execution: measured gemm walls, per-process tracer
    streams, an optional shared host-memory ledger — and a product that
    stays bit-identical to the pure simulation."""

    @pytest.fixture(scope="class")
    def operands(self):
        a = rmat(8, 5.0, seed=51)
        b = random_csr(a.n_cols, 140, 4 * a.n_cols, seed=52)
        return a, b

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_bit_identical_to_simulation(self, operands, q):
        a, b = operands
        sim = sparse_summa(a, b, q)
        ex = sparse_summa(a, b, q, execution=SummaExecution())
        assert ex.executed and not sim.executed
        # stage accumulation order is identical, so this is exact ==
        assert ex.assemble() == sim.assemble()
        for i in range(q):
            for j in range(q):
                assert ex.c_blocks[i][j] == sim.c_blocks[i][j]
        assert ex.total_flops == sim.total_flops
        assert_equals_scipy_product(ex.assemble(), a, b)

    @pytest.mark.parametrize("kernel", [
        "esc", pytest.param("native", marks=needs_native),
    ])
    def test_kernel_dispatch(self, operands, kernel):
        a, b = operands
        ex = sparse_summa(a, b, 2,
                          execution=SummaExecution(kernel=kernel))
        assert_equals_scipy_product(ex.assemble(), a, b)

    def test_sequential_workers_same_bits(self, operands):
        a, b = operands
        pool = sparse_summa(a, b, 2, execution=SummaExecution(workers=0))
        seq = sparse_summa(a, b, 2, execution=SummaExecution(workers=1))
        assert pool.assemble() == seq.assemble()

    def test_empty_operand(self):
        a = CSRMatrix.empty(12, 12)
        ex = sparse_summa(a, a, 3, execution=SummaExecution())
        assert ex.assemble().nnz == 0
        assert ex.total_flops == 0
        assert ex.timeline.makespan() >= 0.0

    def test_zero_flop_stages(self):
        # bottom-half rows of A empty: every stage of the bottom process
        # row multiplies an empty block — zero flops, but the stages
        # still exist in the schedule and the product is still exact
        top = random_csr(20, 40, 120, seed=53)
        a = vstack([top, CSRMatrix.empty(20, 40)])
        b = random_csr(40, 30, 100, seed=54)
        sim = sparse_summa(a, b, 2)
        ex = sparse_summa(a, b, 2, execution=SummaExecution())
        assert ex.assemble() == sim.assemble()
        assert_equals_scipy_product(ex.assemble(), a, b)
        for k in range(2):
            (rec,) = ex.timeline.with_label(f"gemm[1.0@{k}]")
            assert rec.meta["flops"] == 0
        assert ex.c_blocks[1][0].nnz == ex.c_blocks[1][1].nnz == 0

    def test_timeline_grounded_in_measured_walls(self, operands):
        a, b = operands
        ex = sparse_summa(a, b, 2, execution=SummaExecution())
        gemms = ex.timeline.with_label("gemm[")
        assert len(gemms) == 2 * 2 * 2  # q cells x q stages
        assert all(r.meta.get("measured") for r in gemms)
        assert all(r.duration > 0 for r in gemms)
        # comm ops still come from the alpha-beta model, not the clock
        recvs = ex.timeline.with_label("recv[")
        assert not any(r.meta.get("measured") for r in recvs)
        # per-process stage order is preserved in the rebuilt schedule
        labels = [f"gemm[0.0@{k}]" for k in range(2)]
        assert ex.timeline.order_of(labels) == labels

    def test_tracer_streams_merge(self, operands):
        a, b = operands
        ex = sparse_summa(a, b, 2, execution=SummaExecution())
        assert set(ex.tracers) == {f"p{i}.{j}"
                                   for i in range(2) for j in range(2)}
        events = ex.trace_events()
        names = {e["args"]["name"] for e in events
                 if e.get("ph") == "M" and e["name"] == "process_name"}
        assert {"p0.0", "p1.1"}.issubset(names)
        assert any("summa" in n for n in names)
        assert len({e["pid"] for e in events}) == 5  # 4 cells + sim grid
        # trace=False keeps the executed path but drops the streams
        quiet = sparse_summa(a, b, 2,
                             execution=SummaExecution(trace=False))
        assert quiet.tracers is None
        assert quiet.assemble() == ex.assemble()

    def test_shared_ledger(self, operands):
        a, b = operands
        ex = sparse_summa(
            a, b, 2,
            execution=SummaExecution(host_mem_budget_bytes=1 << 24))
        assert ex.ledger_peak_bytes > 0
        assert ex.ledger_overcommits == 0
        assert_equals_scipy_product(ex.assemble(), a, b)
        # a one-byte budget completes via minimum progress, counted
        tiny = sparse_summa(
            a, b, 2, execution=SummaExecution(host_mem_budget_bytes=1))
        assert tiny.ledger_overcommits > 0
        assert tiny.assemble() == ex.assemble()

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            SummaExecution(workers=-1)


class TestNetworkModel:
    def test_broadcast_zero_fanout(self):
        assert NetworkModel().t_broadcast(1000, 0) == 0.0

    def test_broadcast_grows_with_fanout(self):
        net = NetworkModel()
        assert net.t_broadcast(1 << 20, 7) > net.t_broadcast(1 << 20, 1)

    def test_compute(self):
        net = NetworkModel(compute_rate=1e9)
        assert net.t_compute(10**9) == pytest.approx(1.0)
