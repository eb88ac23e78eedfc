"""End-to-end tests for the asyncio job server (repro.serve.server).

Each test spins a real server on an ephemeral TCP port inside one
``asyncio.run`` and talks to it with the hand-rolled client — the same
wire path ``repro serve-bench`` and the CI smoke job exercise.
"""

import asyncio
import glob
import json

import numpy as np
import pytest

from repro.core.assemble import assemble_chunks
from repro.core.chunks import ChunkGrid
from repro.core.executor import execute_chunk_grid
from repro.core.governor.integrity import crc32_matrix
from repro.core.verify import verify_product
from repro.observability import validate_chrome_trace
from repro.sparse.formats import CSRMatrix
from repro.serve import ServeClient, ServeError, ServerConfig, SpgemmServer
from repro.serve.jobs import resolve_operand

A_SPEC = {"gen": {"family": "banded", "n": 256, "bandwidth": 4, "seed": 1}}
B_SPEC = {"gen": {"family": "banded", "n": 256, "bandwidth": 4, "seed": 2}}
GRID = [2, 1]


def serve(coro_fn, config=None):
    """Run ``await coro_fn(server, client)`` against a live server."""

    async def main():
        server = SpgemmServer(config or ServerConfig(slots=4))
        await server.start()
        client = ServeClient(*server.address)
        try:
            return await coro_fn(server, client)
        finally:
            await server.stop()

    return asyncio.run(main())


def job_payload(**overrides):
    payload = {"a": A_SPEC, "b": B_SPEC, "grid": GRID}
    payload.update(overrides)
    return payload


def local_product():
    a = resolve_operand(A_SPEC)
    b = resolve_operand(B_SPEC)
    grid = ChunkGrid.regular(a.n_rows, b.n_cols, *GRID)
    _, outputs = execute_chunk_grid(a, b, grid, workers=1, keep_outputs=True)
    return a, b, assemble_chunks(outputs)


class TestEndToEnd:
    def test_ten_concurrent_jobs_shared_operands(self):
        # ten overlapping jobs over one operand pair: every result must
        # match the single-run engine bit-for-bit and the repeated
        # operands must come out of the cache, not be rebuilt
        async def run(server, client):
            health = await client.health()
            assert health["ok"] is True
            payloads = [job_payload(tenant=f"t{i % 3}") for i in range(10)]
            snapshots = await asyncio.gather(
                *(client.submit_job(p) for p in payloads)
            )
            # the done event fires before the scheduler's bookkeeping
            # finishes; drain it so the counters below are final
            await asyncio.get_running_loop().run_in_executor(
                None, server.scheduler.wait_idle, 10.0
            )
            stats = await client.stats()
            return snapshots, stats

        snapshots, stats = serve(run)
        _, _, expected = local_product()
        expected_crc = crc32_matrix(expected)
        assert len(snapshots) == 10
        for snap in snapshots:
            assert snap["state"] == "done", snap.get("error")
            assert snap["result"]["crc32"] == expected_crc
            assert snap["result"]["nnz"] == expected.nnz
            assert snap["chunks_done"] == snap["chunks_total"] == 2
        # 20 operand resolutions, only the first build of each side may
        # miss; concurrent first arrivals dedup inside get_or_put
        assert stats["cache"]["hit_rate"] > 0.5
        assert stats["scheduler"]["completed"] == 10
        assert stats["scheduler"]["overcommits"] == 0
        assert (stats["host_mem_peak_reserved"]
                <= stats["scheduler"]["host_budget_bytes"])

    def test_result_matches_scipy_oracle(self):
        async def run(server, client):
            return await client.submit_job(job_payload(return_result=True))

        snap = serve(run)
        assert snap["state"] == "done"
        arrays = snap["result"]["matrix"]
        got = CSRMatrix(*arrays["shape"],
                        np.asarray(arrays["row_offsets"]),
                        np.asarray(arrays["col_ids"]),
                        np.asarray(arrays["data"]))
        a, b, expected = local_product()
        assert got == expected
        assert verify_product(got, a, b)

    def test_wait_false_returns_queued_then_polls_to_done(self):
        async def run(server, client):
            queued = await client.submit_job(job_payload(wait=False))
            assert queued["state"] in ("queued", "admitted", "running",
                                       "done")
            job_id = queued["job_id"]
            for _ in range(200):
                snap = await client.job(job_id)
                if snap["state"] in ("done", "failed"):
                    return snap
                await asyncio.sleep(0.02)
            return snap

        snap = serve(run)
        assert snap["state"] == "done"

    def test_unix_socket_transport(self, tmp_path):
        sock = str(tmp_path / "serve.sock")

        async def run(server, client):
            unix_client = ServeClient(unix_socket=sock)
            snap = await unix_client.submit_job(job_payload())
            assert snap["state"] == "done"
            return await unix_client.health()

        health = serve(run, ServerConfig(slots=2, unix_socket=sock))
        assert health["ok"] is True


class TestStreaming:
    def test_event_stream_order_and_chunk_feed(self):
        async def run(server, client):
            events = []
            async for event in client.stream_job(job_payload()):
                events.append(event)
            return events

        events = serve(run)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"
        # lifecycle events arrive in causal order with one chunk event
        # per completed chunk in between
        assert kinds.index("queued") < kinds.index("admitted") \
            < kinds.index("started") < kinds.index("done")
        assert kinds.count("chunk") == GRID[0] * GRID[1]
        done = events[-1]
        assert done["result"]["nnz"] > 0


class TestOperandUpload:
    def test_hash_spec_round_trip(self):
        async def run(server, client):
            first = await client.upload_operand(A_SPEC)
            again = await client.upload_operand(A_SPEC)
            assert first["hash"] == again["hash"]
            assert not first["cached"] and again["cached"]
            snap = await client.submit_job(
                job_payload(a={"hash": first["hash"]})
            )
            return snap

        snap = serve(run)
        assert snap["state"] == "done"
        assert snap["cache"]["a"] is True

    def test_unknown_hash_rejects(self):
        async def run(server, client):
            with pytest.raises(ServeError) as exc_info:
                await client.submit_job(job_payload(a={"hash": "f" * 64}))
            return exc_info.value

        err = serve(run)
        assert err.status == 400
        assert "not in the cache" in err.payload["error"]


class TestValidation:
    def test_unknown_field_rejects(self):
        async def run(server, client):
            with pytest.raises(ServeError) as exc_info:
                await client.submit_job(job_payload(frobnicate=1))
            return exc_info.value

        err = serve(run)
        assert err.status == 400

    def test_mismatched_shapes_reject(self):
        async def run(server, client):
            bad_b = {"gen": {"family": "banded", "n": 128}}
            with pytest.raises(ServeError) as exc_info:
                await client.submit_job(job_payload(b=bad_b))
            return exc_info.value

        err = serve(run)
        assert err.status == 400
        assert "do not chain" in err.payload["error"]

    @pytest.mark.parametrize("field,value", [
        ("kernel", "bogus"), ("kernel", "hash"), ("backend", "gpu"),
    ])
    def test_unknown_kernel_or_backend_rejects_before_submit(self, field,
                                                             value):
        async def run(server, client):
            before = (await client.stats())["scheduler"]["submitted"]
            with pytest.raises(ServeError) as exc_info:
                await client.submit_job(job_payload(**{field: value}))
            after = (await client.stats())["scheduler"]["submitted"]
            return exc_info.value, before, after

        err, before, after = serve(run)
        assert err.status == 400
        assert repr(value) in err.payload["error"]
        assert after == before

    def test_unknown_routes_404(self):
        async def run(server, client):
            with pytest.raises(ServeError) as exc_info:
                await client.request("GET", "/v1/nope")
            assert exc_info.value.status == 404
            with pytest.raises(ServeError) as exc_info:
                await client.job(999999)
            assert exc_info.value.status == 404

        serve(run)


class TestObservability:
    def test_per_job_chrome_trace_is_valid(self, tmp_path):
        async def run(server, client):
            return await client.submit_job(job_payload(trace=True))

        snap = serve(run, ServerConfig(slots=2, trace_dir=str(tmp_path)))
        assert snap["state"] == "done"
        trace_path = snap["result"]["trace"]
        with open(trace_path) as fh:
            events = validate_chrome_trace(json.load(fh))
        assert events, "trace exported no events"

    def test_server_stop_leaves_no_shm_segments(self):
        async def run(server, client):
            await client.submit_job(job_payload())
            return server.cache.prefix

        prefix = serve(run)
        assert not glob.glob(f"/dev/shm/{prefix}*")
