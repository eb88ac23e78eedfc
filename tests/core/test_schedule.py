"""Tests for the schedule builders — the paper's Sections III-IV semantics."""

import pytest

from repro.core.schedule import (
    CPU,
    D2H,
    GPU,
    H2D,
    add_cpu_chunks,
    build_async_schedule,
    build_sync_schedule,
    new_engine,
)


class TestSyncSchedule:
    def test_fully_serialized(self, workload, cost):
        _, _, profile, _ = workload
        tl = build_sync_schedule(profile, cost).run()
        # one stream: nothing ever overlaps
        assert tl.overlap_time(GPU, D2H) == pytest.approx(0.0, abs=1e-12)
        assert tl.overlap_time(GPU, H2D) == pytest.approx(0.0, abs=1e-12)

    def test_per_chunk_phase_order(self, workload, cost):
        _, _, profile, _ = workload
        tl = build_sync_schedule(profile, cost).run()
        for cid in range(len(profile.chunks)):
            labels = [
                f"analysis[{cid}]", f"d2h_info1[{cid}]", f"symbolic[{cid}]",
                f"d2h_info2[{cid}]", f"numeric[{cid}]", f"d2h_out[{cid}]",
            ]
            assert tl.order_of(labels) == labels

    def test_has_malloc_ops(self, workload, cost):
        """The sync baseline keeps spECK's dynamic allocations."""
        _, _, profile, _ = workload
        tl = build_sync_schedule(profile, cost).run()
        mallocs = [r for r in tl.records if r.meta.get("kind") == "malloc"]
        assert len(mallocs) == 3 * len(profile.chunks)

    def test_input_loads_off_by_default(self, workload, cost):
        _, _, profile, _ = workload
        tl = build_sync_schedule(profile, cost).run()
        assert len(tl.ops_on(H2D)) == 0

    def test_resident_mode_loads_once_per_panel(self, workload, cost):
        _, grid, profile, _ = workload
        tl = build_sync_schedule(profile, cost, input_mode="resident").run()
        h2d = tl.ops_on(H2D)
        assert len(h2d) == grid.num_row_panels + grid.num_col_panels

    def test_streamed_mode_reloads_panels(self, workload, cost):
        """Row-major order re-loads the B panel at every chunk but keeps
        the A panel across a row of chunks (single-panel cache)."""
        _, grid, profile, _ = workload
        tl = build_sync_schedule(profile, cost, input_mode="streamed").run()
        b_loads = [r for r in tl.records if r.meta.get("kind") == "h2d_b"]
        a_loads = [r for r in tl.records if r.meta.get("kind") == "h2d_a"]
        assert len(b_loads) == grid.num_chunks
        assert len(a_loads) == grid.num_row_panels

    def test_streamed_slower_than_resident(self, workload, cost):
        _, _, profile, _ = workload
        resident = build_sync_schedule(profile, cost, input_mode="resident").run()
        streamed = build_sync_schedule(profile, cost, input_mode="streamed").run()
        assert streamed.makespan() > resident.makespan()

    def test_bad_input_mode(self, workload, cost):
        _, _, profile, _ = workload
        with pytest.raises(ValueError, match="input mode"):
            build_sync_schedule(profile, cost, input_mode="bogus")

    def test_rejects_unexecuted_profile(self, workload, cost):
        from repro.core.chunks import ChunkProfile, ChunkStats

        _, grid, _, _ = workload
        raw = ChunkProfile(
            grid=grid,
            chunks=(ChunkStats(0, 0, 0, 5, 5, 10, 0, 0, 0),),
        )
        with pytest.raises(ValueError, match="executed"):
            build_sync_schedule(raw, cost)


class TestAsyncSchedule:
    def test_overlaps_compute_with_transfers(self, workload, cost):
        _, _, profile, _ = workload
        tl = build_async_schedule(profile, cost).run()
        assert tl.overlap_time(GPU, D2H) > 0.0

    def test_faster_than_sync(self, workload, cost):
        _, _, profile, _ = workload
        sync = build_sync_schedule(profile, cost).run()
        asy = build_async_schedule(profile, cost).run()
        assert asy.makespan() < sync.makespan()

    def test_fig6_divided_transfer_order(self, workload, cost):
        """Fig. 6 on the D2H engine: info1(i), out-part1(i-1), info2(i),
        out-part2(i-1)."""
        _, _, profile, _ = workload
        order = profile.order_by_flops_desc()
        tl = build_async_schedule(profile, cost, order=order).run()
        c_prev, c_cur = order[0], order[1]
        expected = [
            f"d2h_info1[{c_cur}]",
            f"d2h_out1[{c_prev}]",
            f"d2h_info2[{c_cur}]",
            f"d2h_out2[{c_prev}]",
        ]
        assert tl.order_of(expected) == expected

    def test_result_transfer_after_numeric(self, workload, cost):
        _, _, profile, _ = workload
        order = profile.order_by_flops_desc()
        tl = build_async_schedule(profile, cost, order=order).run()
        recs = {r.label: r for r in tl.records}
        for cid in order:
            assert recs[f"d2h_out1[{cid}]"].start >= recs[f"numeric[{cid}]"].end

    def test_pool_mode_has_no_mallocs(self, workload, cost):
        _, _, profile, _ = workload
        tl = build_async_schedule(profile, cost, allocator="pool").run()
        assert not [r for r in tl.records if r.meta.get("kind") == "malloc"]

    def test_dynamic_allocator_serializes(self, workload, cost):
        """Malloc barriers destroy the overlap (the paper's motivation for
        pre-allocation)."""
        _, _, profile, _ = workload
        pool = build_async_schedule(profile, cost, allocator="pool").run()
        dyn = build_async_schedule(profile, cost, allocator="dynamic").run()
        assert dyn.makespan() > pool.makespan()
        assert dyn.overlap_time(GPU, D2H) < pool.overlap_time(GPU, D2H)

    def test_monolithic_transfers_slower(self, workload, cost):
        """Fig. 5: one big result transfer blocks the next chunk's info
        transfers on the single D2H engine.  Compared at zero per-transfer
        latency so the structural blocking effect is isolated (dividing a
        transfer otherwise costs one extra latency per chunk)."""
        from dataclasses import replace

        _, _, profile, _ = workload
        cm = replace(cost, node=replace(cost.node, transfer_latency=0.0))
        divided = build_async_schedule(profile, cm, divided_transfers=True).run()
        mono = build_async_schedule(profile, cm, divided_transfers=False).run()
        assert mono.makespan() >= divided.makespan()

    def test_split_bytes_conserved(self, workload, cost):
        _, _, profile, _ = workload
        tl = build_async_schedule(profile, cost, split=0.33).run()
        for ch in profile.chunks:
            parts = [
                r.meta["bytes"] for r in tl.records
                if r.meta.get("kind") == "output" and r.meta.get("chunk") == ch.chunk_id
            ]
            assert sum(parts) == ch.output_bytes

    def test_default_order_is_flops_desc(self, workload, cost):
        _, _, profile, _ = workload
        tl = build_async_schedule(profile, cost).run()
        order = profile.order_by_flops_desc()
        labels = [f"numeric[{cid}]" for cid in order]
        assert tl.order_of(labels) == labels

    def test_invalid_args(self, workload, cost):
        _, _, profile, _ = workload
        with pytest.raises(ValueError):
            build_async_schedule(profile, cost, num_streams=0)
        with pytest.raises(ValueError):
            build_async_schedule(profile, cost, split=0.0)
        with pytest.raises(ValueError):
            build_async_schedule(profile, cost, allocator="bogus")

    def test_single_chunk_workload(self, cost):
        from repro.core.chunks import ChunkGrid
        from repro.core.executor import execute_chunk_grid
        from repro.sparse.generators import random_csr

        a = random_csr(40, 40, 200, seed=5)
        grid = ChunkGrid.regular(40, 40, 1, 1)
        profile, _ = execute_chunk_grid(a, a, grid)
        tl = build_async_schedule(profile, cost).run()
        assert tl.makespan() > 0

    def test_double_buffering_constraint(self, workload, cost):
        """Chunk t reuses the stream (buffer) of chunk t-2, so its first op
        cannot start before chunk t-2's result transfer completes."""
        _, _, profile, _ = workload
        order = profile.order_by_flops_desc()
        tl = build_async_schedule(profile, cost, order=order).run()
        recs = {r.label: r for r in tl.records}
        for pos in range(2, len(order)):
            freed = recs[f"d2h_out2[{order[pos - 2]}]"].end
            assert recs[f"analysis[{order[pos]}]"].start >= freed - 1e-12


class TestCpuChunks:
    def test_cpu_chunks_on_cpu_resource(self, workload, cost):
        _, _, profile, _ = workload
        eng = new_engine()
        add_cpu_chunks(eng, profile, cost, [0, 1, 2])
        tl = eng.run()
        assert len(tl.ops_on(CPU)) == 3

    def test_cpu_serial(self, workload, cost):
        _, _, profile, _ = workload
        eng = new_engine()
        add_cpu_chunks(eng, profile, cost, range(len(profile.chunks)))
        tl = eng.run()
        total = sum(r.duration for r in tl.ops_on(CPU))
        assert tl.makespan() == pytest.approx(total)
