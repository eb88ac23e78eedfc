"""Tests for the memory-accounting replay."""

import pytest

from repro.core.memcheck import replay_dynamic, replay_pool


class TestReplayPool:
    def test_planned_workload_fits(self, workload, node):
        _, _, profile, _ = workload
        replay = replay_pool(profile, node.gpu.device_memory_bytes)
        assert replay.fits, replay
        assert 0 < replay.peak_bytes <= replay.capacity
        assert replay.allocator == "pool"

    def test_tiny_device_fails(self, workload):
        _, _, profile, _ = workload
        replay = replay_pool(profile, 1 << 20)
        assert not replay.fits
        assert replay.failed_chunk is not None

    def test_single_buffer_needs_less(self, workload, node):
        _, _, profile, _ = workload
        dbl = replay_pool(profile, node.gpu.device_memory_bytes, buffers=2)
        single = replay_pool(profile, node.gpu.device_memory_bytes, buffers=1)
        assert single.peak_bytes <= dbl.peak_bytes

    def test_utilization(self, workload, node):
        _, _, profile, _ = workload
        replay = replay_pool(profile, node.gpu.device_memory_bytes)
        assert 0.0 < replay.utilization <= 1.0


class TestPoolPrimitives:
    def test_undersized_pool_raises_typed_oom(self):
        from repro.device.memory import DeviceOutOfMemory, MemoryPool

        pool = MemoryPool(1024)
        pool.alloc(512, tag="a")
        with pytest.raises(DeviceOutOfMemory):
            pool.alloc(1024, tag="b")

    def test_replay_reports_failed_chunk_not_exception(self, workload):
        # the replay converts the pool's DeviceOutOfMemory into a
        # diagnosable verdict instead of letting it propagate
        _, _, profile, _ = workload
        replay = replay_pool(profile, 1 << 12)
        assert not replay.fits
        assert replay.failed_chunk == 0  # first chunk already overflows


class TestPoolGauges:
    def test_double_buffer_replay_emits_utilization_gauges(self, workload,
                                                           node):
        from repro.observability.tracer import Tracer

        _, _, profile, _ = workload
        tracer = Tracer()
        replay = replay_pool(profile, node.gpu.device_memory_bytes,
                             buffers=2, tracer=tracer)
        assert replay.fits
        samples = [g for g in tracer.gauges if g.name == "device_pool"]
        assert len(samples) == len(profile.chunks)  # one per chunk
        for g in samples:
            assert 0 < g.values["used"] <= g.values["high_water"]
            assert g.values["high_water"] <= g.values["capacity"]
            assert g.values["capacity"] == replay.capacity
        high_water = max(g.values["high_water"] for g in samples)
        assert high_water == replay.peak_bytes

    def test_null_tracer_emits_nothing(self, workload, node):
        from repro.observability.tracer import NULL_TRACER

        _, _, profile, _ = workload
        replay = replay_pool(profile, node.gpu.device_memory_bytes,
                             buffers=2, tracer=NULL_TRACER)
        assert replay.fits
        assert NULL_TRACER.gauges == ()


class TestReplayDynamic:
    def test_planned_workload_fits(self, workload, node):
        _, _, profile, _ = workload
        replay = replay_dynamic(profile, node.gpu.device_memory_bytes)
        assert replay.fits
        assert replay.allocator == "dynamic"

    def test_dynamic_peak_below_pool_peak(self, workload, node):
        """One chunk in flight (sync) needs less than double buffering."""
        _, _, profile, _ = workload
        pool = replay_pool(profile, node.gpu.device_memory_bytes, buffers=2)
        dyn = replay_dynamic(profile, node.gpu.device_memory_bytes)
        assert dyn.peak_bytes <= pool.peak_bytes

    def test_tiny_device_fails(self, workload):
        _, _, profile, _ = workload
        assert not replay_dynamic(profile, 1 << 20).fits


class TestPlannerConsistency:
    def test_planner_grid_passes_replay(self):
        """End-to-end: a grid the planner accepts must fit the replay."""
        from repro.core.executor import execute_chunk_grid
        from repro.core.planner import plan_grid
        from repro.device.specs import v100_node
        from repro.sparse.generators import rmat

        a = rmat(9, 8.0, seed=13)
        node = v100_node(48 << 20)
        report = plan_grid(a, a, node)
        profile, _ = execute_chunk_grid(a, a, report.grid)
        replay = replay_pool(profile, node.gpu.device_memory_bytes)
        assert replay.fits, (report, replay)
