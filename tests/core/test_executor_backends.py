"""Tests for the pluggable executor backends (serial / thread / process).

The load-bearing property is three-way equivalence: every backend must
produce bit-identical chunk matrices and identical profiles (up to the
wall-clock fields) for any worker count, window, lane split, and sink
configuration.  The process backend additionally must not leak a single
shared-memory segment — even when a worker is hard-killed mid-chunk.
"""

import glob
import threading

import numpy as np
import pytest

from repro.core.chunks import ChunkGrid, chunk_flops
from repro.core.executor import (
    EXECUTOR_BACKENDS,
    ChunkPlan,
    WorkerCrashed,
    execute_chunk_grid,
    plan_hybrid_lanes,
    resolve_backend_name,
)
from repro.core.executor.procworker import KILL_CHUNK_ENV
from repro.sparse.generators import rmat

PARALLEL_BACKENDS = ("thread", "process")


def assert_outputs_identical(lhs, rhs):
    for row_l, row_r in zip(lhs, rhs):
        for m_l, m_r in zip(row_l, row_r):
            np.testing.assert_array_equal(m_l.row_offsets, m_r.row_offsets)
            np.testing.assert_array_equal(m_l.col_ids, m_r.col_ids)
            np.testing.assert_array_equal(m_l.data, m_r.data)


def assert_profiles_identical(lhs, rhs):
    """Chunk sets equal in everything but the measured wall clocks."""
    assert len(lhs.chunks) == len(rhs.chunks)
    for s, p in zip(lhs.chunks, rhs.chunks):
        assert s.chunk_id == p.chunk_id
        assert (s.row_panel, s.col_panel) == (p.row_panel, p.col_panel)
        assert s.flops == p.flops
        assert s.input_nnz == p.input_nnz
        assert s.nnz_out == p.nnz_out
        assert s.output_bytes == p.output_bytes
        assert s.analysis_bytes == p.analysis_bytes
        assert s.symbolic_bytes == p.symbolic_bytes
        assert s.symbolic_kernels == p.symbolic_kernels
        assert s.numeric_kernels == p.numeric_kernels


def leaked_shm():
    return glob.glob("/dev/shm/repro-*")


@pytest.fixture(scope="module")
def problem():
    a = rmat(10, 8.0, seed=5)
    grid = ChunkGrid.regular(a.n_rows, a.n_cols, 3, 3)
    return a, grid


@pytest.fixture(scope="module")
def serial(problem):
    a, grid = problem
    return execute_chunk_grid(a, a, grid, backend="serial", keep_outputs=True)


class TestBackendResolution:
    def test_legacy_defaults(self):
        assert resolve_backend_name(None, 1, False) == "serial"
        assert resolve_backend_name(None, 4, False) == "thread"
        assert resolve_backend_name(None, 1, True) == "thread"

    def test_explicit_names_pass_through(self):
        for name in EXECUTOR_BACKENDS:
            assert resolve_backend_name(name, 2, False) == name

    def test_unknown_backend_rejected(self, problem):
        a, grid = problem
        with pytest.raises(ValueError, match="backend"):
            execute_chunk_grid(a, a, grid, backend="gpu")

    def test_serial_rejects_multiple_workers(self, problem):
        a, grid = problem
        with pytest.raises(ValueError, match="serial"):
            execute_chunk_grid(a, a, grid, backend="serial", workers=4)


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_outputs_and_profiles_match_serial(self, problem, serial, backend):
        a, grid = problem
        serial_profile, serial_out = serial
        profile, out = execute_chunk_grid(
            a, a, grid, workers=3, backend=backend, keep_outputs=True
        )
        assert_outputs_identical(serial_out, out)
        assert_profiles_identical(serial_profile, profile)
        assert not leaked_shm()

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_tiny_window_matches_serial(self, problem, serial, backend):
        a, grid = problem
        _, serial_out = serial
        _, out = execute_chunk_grid(
            a, a, grid, workers=2, window=1, backend=backend, keep_outputs=True
        )
        assert_outputs_identical(serial_out, out)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_hybrid_lanes_match_serial(self, problem, serial, backend):
        a, grid = problem
        serial_profile, serial_out = serial
        planned = plan_hybrid_lanes(chunk_flops(a, a, grid), 2, 0.65)
        profile, out = execute_chunk_grid(
            a, a, grid, keep_outputs=True, backend=backend,
            plan=ChunkPlan.from_hybrid(planned),
        )
        assert_outputs_identical(serial_out, out)
        assert_profiles_identical(serial_profile, profile)
        assert not leaked_shm()

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_chunk_sink_sees_every_chunk_once(self, problem, backend):
        a, grid = problem
        seen = []
        lock = threading.Lock()

        def sink(rp, cp, matrix):
            with lock:
                seen.append((rp, cp))

        workers = 1 if backend == "serial" else 2
        execute_chunk_grid(a, a, grid, workers=workers, backend=backend,
                           chunk_sink=sink)
        assert sorted(seen) == [
            (rp, cp)
            for rp in range(grid.num_row_panels)
            for cp in range(grid.num_col_panels)
        ]
        assert not leaked_shm()

    def test_process_backend_single_worker(self, problem, serial):
        a, grid = problem
        _, serial_out = serial
        _, out = execute_chunk_grid(
            a, a, grid, workers=1, backend="process", keep_outputs=True
        )
        assert_outputs_identical(serial_out, out)


class TestProcessTracing:
    def test_worker_spans_merged_into_parent_trace(self, problem):
        from repro.observability import Tracer

        a, grid = problem
        tracer = Tracer()
        execute_chunk_grid(a, a, grid, workers=2, backend="process",
                           tracer=tracer)
        cats = {s.cat for s in tracer.spans}
        # kernel phases run inside workers; their spans must still appear
        assert {"analysis", "symbolic", "numeric", "queue"} <= cats
        # every chunk's numeric phase made it back
        numeric = [s for s in tracer.spans if s.cat == "numeric"]
        assert len(numeric) == grid.num_chunks
        assert all(s.end >= s.start >= 0.0 for s in tracer.spans)
        # worker slice-cache gauges and parent shm occupancy gauges merged
        gauge_names = {g.name for g in tracer.gauges}
        assert any(n.startswith("slice_cache[") for n in gauge_names)
        assert any(n.startswith("shm[") for n in gauge_names)

    def test_tracing_does_not_change_results(self, problem, serial):
        from repro.observability import Tracer

        a, grid = problem
        _, serial_out = serial
        _, out = execute_chunk_grid(a, a, grid, workers=2, backend="process",
                                    keep_outputs=True, tracer=Tracer())
        assert_outputs_identical(serial_out, out)


class TestCrashCleanup:
    def test_worker_crash_aborts_run_without_leaking(self, problem, monkeypatch):
        """A worker hard-killed mid-chunk (after creating its result
        segment) must abort the run with WorkerCrashed and leave zero
        segments in /dev/shm — the run-prefix sweep reclaims the one the
        dead worker could not."""
        a, grid = problem
        monkeypatch.setenv(KILL_CHUNK_ENV, "0")
        with pytest.raises(WorkerCrashed):
            execute_chunk_grid(a, a, grid, workers=2, backend="process")
        assert not leaked_shm()

    def test_sink_exception_cleans_up(self, problem):
        a, grid = problem

        def sink(rp, cp, matrix):
            raise RuntimeError("sink boom")

        with pytest.raises(RuntimeError, match="sink boom"):
            execute_chunk_grid(a, a, grid, workers=2, backend="process",
                               chunk_sink=sink)
        assert not leaked_shm()

    def test_normal_run_leaves_no_segments(self, problem):
        a, grid = problem
        execute_chunk_grid(a, a, grid, workers=2, backend="process")
        assert not leaked_shm()


class TestPublicThreading:
    def test_backend_param_with_workers(self, problem, serial):
        a, grid = problem
        _, serial_out = serial
        _, out = execute_chunk_grid(a, a, grid, keep_outputs=True, workers=2,
                                    backend="process")
        assert_outputs_identical(serial_out, out)

    def test_run_hybrid_backend_param(self, problem):
        from repro.core.api import run_hybrid
        from repro.device.specs import v100_node

        a, grid = problem
        base = run_hybrid(a, a, v100_node(), grid=grid, workers=1)
        result = run_hybrid(a, a, v100_node(), grid=grid, workers=2,
                            backend="process")
        np.testing.assert_array_equal(base.matrix.data, result.matrix.data)
        np.testing.assert_array_equal(base.matrix.col_ids, result.matrix.col_ids)
        assert not leaked_shm()
