"""Tests for the tracing & observability layer.

The load-bearing properties: tracing is a no-op by default (the null
tracer records nothing and allocates nothing per call), results are
bit-identical with tracing on or off, and the exported trace is valid
Chrome-trace-event JSON that round-trips through the validator.
"""

import json
import threading

import numpy as np
import pytest

from repro.core.chunks import ChunkGrid
from repro.core.executor import execute_chunk_grid
from repro.observability import (
    MEASURED_PID,
    NULL_TRACER,
    SIMULATED_PID,
    NullTracer,
    Tracer,
    as_tracer,
    category_breakdown,
    critical_path,
    lane_utilization,
    render_summary,
    timeline_events,
    tracer_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sparse.generators import rmat


@pytest.fixture(scope="module")
def problem():
    a = rmat(9, 8.0, seed=11)
    grid = ChunkGrid.regular(a.n_rows, a.n_cols, 2, 3)
    return a, grid


@pytest.fixture(scope="module")
def traced_run(problem):
    a, grid = problem
    tracer = Tracer()
    profile, outputs = execute_chunk_grid(
        a, a, grid, workers=3, keep_outputs=True, tracer=tracer
    )
    return tracer, profile, outputs


class TestTracer:
    def test_span_records_interval(self):
        tracer = Tracer()
        with tracer.span("work", "numeric", chunk=7):
            pass
        (span,) = tracer.spans
        assert span.name == "work"
        assert span.cat == "numeric"
        assert span.end >= span.start
        assert span.args == {"chunk": 7}
        assert span.lane == threading.current_thread().name

    def test_add_span_explicit_times(self):
        tracer = Tracer()
        tracer.add_span("q", "queue", 1.0, 2.5, lane="gpu-w_0")
        (span,) = tracer.spans
        assert span.lane == "gpu-w_0"
        assert span.duration == pytest.approx(1.5)

    def test_gauges_record_series(self):
        tracer = Tracer()
        tracer.gauge("lane[gpu]", queue_depth=3, in_flight=2)
        (g,) = tracer.gauges
        assert g.values == {"queue_depth": 3.0, "in_flight": 2.0}

    def test_thread_safety(self):
        tracer = Tracer()

        def worker(i):
            for _ in range(200):
                with tracer.span(f"s{i}", "numeric"):
                    pass
                tracer.gauge("g", v=i)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.spans) == 800
        assert len(tracer.gauges) == 800


class TestNullTracer:
    def test_records_nothing(self):
        nt = NullTracer()
        with nt.span("x", "numeric"):
            pass
        nt.add_span("y", "queue", 0.0, 1.0)
        nt.gauge("g", v=1)
        assert nt.spans == ()
        assert nt.gauges == ()
        assert nt.wall_seconds() == 0.0
        assert not nt.enabled

    def test_span_handle_is_shared_singleton(self):
        """No per-call allocation: every span() returns one module-level
        no-op context manager — the zero-cost-when-disabled guarantee."""
        nt = NullTracer()
        h1 = nt.span("a", "numeric")
        h2 = nt.span("b", "queue", chunk=3)
        assert h1 is h2
        assert h1 is NULL_TRACER.span("c", "sink")

    def test_as_tracer_normalizes_none(self):
        assert as_tracer(None) is NULL_TRACER
        t = Tracer()
        assert as_tracer(t) is t


class TestExecutorTracing:
    def test_bit_identical_with_tracing(self, problem, traced_run):
        a, grid = problem
        _, _, traced_out = traced_run
        _, plain_out = execute_chunk_grid(a, a, grid, workers=1, keep_outputs=True)
        for row_t, row_p in zip(traced_out, plain_out):
            for m_t, m_p in zip(row_t, row_p):
                np.testing.assert_array_equal(m_t.row_offsets, m_p.row_offsets)
                np.testing.assert_array_equal(m_t.col_ids, m_p.col_ids)
                np.testing.assert_array_equal(m_t.data, m_p.data)

    def test_chunk_lifecycle_spans_present(self, problem, traced_run):
        a, grid = problem
        tracer, _, _ = traced_run
        cats = {s.cat for s in tracer.spans}
        assert {"queue", "analysis", "symbolic", "numeric", "sink"} <= cats
        # one span per chunk and phase
        for cat in ("analysis", "symbolic", "numeric", "sink"):
            chunks = sorted(
                int(s.name.split("[")[1].rstrip("]"))
                for s in tracer.spans if s.cat == cat
            )
            assert chunks == list(range(grid.num_chunks)), cat

    def test_gauges_sampled(self, traced_run):
        tracer, _, _ = traced_run
        names = {g.name for g in tracer.gauges}
        assert any(n.startswith("lane[") for n in names)
        assert any(n.startswith("slice_cache[") for n in names)

    def test_untraced_run_default_has_no_tracer_state(self, problem):
        """The default (no tracer) path goes through the null tracer."""
        a, grid = problem
        profile, _ = execute_chunk_grid(a, a, grid, workers=2)
        assert profile.has_measured_times  # timing still recorded
        assert NULL_TRACER.spans == ()


class TestSummary:
    def test_lane_utilization_and_critical_path(self, traced_run):
        tracer, _, _ = traced_run
        usages = lane_utilization(tracer)
        assert usages
        wall = tracer.wall_seconds()
        for u in usages:
            assert 0.0 <= u.utilization(wall) <= 1.0
            assert u.busy_seconds <= wall + 1e-9
        crit = critical_path(tracer)
        assert crit["lane"] in {u.lane for u in usages}
        assert crit["busy_seconds"] + crit["idle_seconds"] == pytest.approx(
            crit["wall_seconds"]
        )

    def test_category_breakdown_sorted_desc(self, traced_run):
        tracer, _, _ = traced_run
        totals = list(category_breakdown(tracer).values())
        assert totals == sorted(totals, reverse=True)
        assert all(t >= 0 for t in totals)

    def test_render_summary_mentions_lanes_and_critical_path(self, traced_run):
        tracer, _, _ = traced_run
        text = render_summary(tracer)
        assert "util %" in text
        assert "critical path" in text

    def test_empty_tracer_summary(self):
        text = render_summary(Tracer())
        assert "traced wall time" in text
        assert critical_path(Tracer())["lane"] is None


class TestChromeExport:
    def test_roundtrip_valid_chrome_trace(self, traced_run, tmp_path):
        """Exported JSON is structurally valid Chrome-trace-event format
        and survives a disk round trip."""
        tracer, _, _ = traced_run
        events = tracer_events(tracer)
        validate_chrome_trace(events)
        path = tmp_path / "t.json"
        write_chrome_trace(path, events, metadata={"k": "v"})
        payload = json.loads(path.read_text())
        assert payload["metadata"] == {"k": "v"}
        back = validate_chrome_trace(payload)
        assert [e["name"] for e in back] == [e["name"] for e in events]

    def test_span_events_have_microsecond_times(self, traced_run):
        tracer, _, _ = traced_run
        events = tracer_events(tracer)
        xs = [e for e in events if e["ph"] == "X"]
        assert xs
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert e["pid"] == MEASURED_PID

    def test_thread_metadata_per_lane(self, traced_run):
        tracer, _, _ = traced_run
        events = tracer_events(tracer)
        thread_names = {e["args"]["name"] for e in events
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        assert thread_names == {s.lane for s in tracer.spans}

    def test_simulated_timeline_as_sibling_process(self, problem):
        from repro.core.api import simulate_out_of_core
        from repro.core.executor import execute_chunk_grid
        from repro.core.schedule import export_chrome_events

        a, grid = problem
        profile, _ = execute_chunk_grid(a, a, grid, name="sim")
        result = simulate_out_of_core(profile)
        events = export_chrome_events(result.timeline)
        validate_chrome_trace(events)
        assert all(e["pid"] == SIMULATED_PID for e in events)
        assert events == timeline_events(result.timeline)

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"nope": []})
        with pytest.raises(ValueError, match="required key"):
            validate_chrome_trace([{"ph": "X"}])
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace(
                [{"name": "a", "ph": "Z", "pid": 0, "tid": 0}]
            )
        with pytest.raises(ValueError, match="negative"):
            validate_chrome_trace(
                [{"name": "a", "ph": "X", "pid": 0, "tid": 0,
                  "ts": -1.0, "dur": 2.0}]
            )


class TestStoreTracing:
    def test_memory_store_spans_and_bytes_gauge(self, problem):
        from repro.core.spill import MemoryChunkStore

        a, grid = problem
        tracer = Tracer()
        store = MemoryChunkStore(tracer=tracer)
        execute_chunk_grid(a, a, grid, workers=2, chunk_sink=store.put,
                           tracer=tracer)
        puts = [s for s in tracer.spans if s.name.startswith("store_put")]
        assert len(puts) == grid.num_chunks
        store.get(0, 0)
        assert any(s.name.startswith("store_get") for s in tracer.spans)
        gauges = [g for g in tracer.gauges if g.name == "chunk_store_bytes"]
        assert gauges
        assert gauges[-1].values["held"] == store.nbytes()

    def test_disk_store_traced(self, problem, tmp_path):
        from repro.core.spill import DiskChunkStore

        a, grid = problem
        tracer = Tracer()
        store = DiskChunkStore(tmp_path / "chunks", tracer=tracer)
        try:
            execute_chunk_grid(a, a, grid, chunk_sink=store.put, tracer=tracer)
            store.get(0, 0)
            cats = {s.cat for s in tracer.spans}
            assert "store" in cats
        finally:
            store.close()

    def test_stores_default_untraced(self, problem):
        from repro.core.spill import DiskChunkStore, MemoryChunkStore

        mem = MemoryChunkStore()
        disk = DiskChunkStore()
        try:
            assert mem._tracer is NULL_TRACER
            assert disk._tracer is NULL_TRACER
        finally:
            disk.close()


class TestTraceStreams:
    """Per-run trace streams: concurrent jobs each get their own tracer
    stamped with a stream label, and the combined Chrome export keeps
    one process row per stream instead of interleaving spans."""

    def test_tracer_stamps_its_stream_on_spans_and_gauges(self):
        tracer = Tracer(stream="job7")
        with tracer.span("multiply", "numeric", chunk=0):
            pass
        tracer.gauge("host_mem", reserved=10)
        assert all(s.stream == "job7" for s in tracer.spans)
        assert all(g.stream == "job7" for g in tracer.gauges)
        # default tracers keep the empty stream (single-run traces are
        # unchanged by the field)
        plain = Tracer()
        with plain.span("multiply", "numeric"):
            pass
        assert plain.spans[0].stream == ""

    def test_concurrent_tracers_stay_separate(self, problem):
        # two overlapping engine runs on their own tracers: no span
        # bleeds across, and each export validates on its own
        a, grid = problem
        tracers = {f"job{i}": Tracer(stream=f"job{i}") for i in (1, 2)}

        def run(label):
            execute_chunk_grid(a, a, grid, workers=2, backend="thread",
                               keep_outputs=False, tracer=tracers[label])

        threads = [threading.Thread(target=run, args=(label,))
                   for label in tracers]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        for label, tracer in tracers.items():
            assert tracer.spans, f"{label} recorded nothing"
            assert all(s.stream == label for s in tracer.spans)
            validate_chrome_trace(tracer_events(tracer))

    def test_multi_tracer_events_one_pid_per_stream(self, tmp_path):
        from repro.observability import multi_tracer_events

        tracers = {}
        for label in ("job1", "job2", "server"):
            tracer = Tracer(stream=label)
            with tracer.span("work", "numeric", chunk=0):
                pass
            tracers[label] = tracer
        events = multi_tracer_events(tracers, base_pid=0)
        validate_chrome_trace(events)
        # one distinct Chrome pid per stream, named after it
        pids_by_name = {
            e["args"]["name"]: e["pid"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert set(pids_by_name) == {"job1", "job2", "server"}
        assert len(set(pids_by_name.values())) == 3
        # every X event lands under its stream's pid
        for label, tracer in tracers.items():
            pid = pids_by_name[label]
            owned = [e for e in events
                     if e["pid"] == pid and e["ph"] == "X"]
            assert len(owned) == len(tracer.spans)
        # and the combined payload round-trips through the file writer
        path = tmp_path / "multi.json"
        write_chrome_trace(path, events)
        with open(path) as fh:
            assert validate_chrome_trace(json.load(fh))


class TestNoOpOverhead:
    def test_null_tracer_overhead_is_negligible(self, problem):
        """Instrumentation with the null tracer costs ~a method call: the
        traced-but-disabled executor path must not measurably regress.
        Compare span-call cost directly (robust against machine noise)."""
        import time

        nt = NULL_TRACER
        n = 20000
        t0 = time.perf_counter()
        for _ in range(n):
            with nt.span("x", "numeric", chunk=1):
                pass
        per_call = (time.perf_counter() - t0) / n
        # generous bound: even slow CI boxes do a no-op CM in << 10 µs
        assert per_call < 10e-6