"""End-to-end socket transport: real worker processes, bit-identity.

``run_sharded`` with ``transport="socket"`` spawns genuine ``repro
shard-worker`` processes and drives each span over the wire.  The
contract under test: the product is bit-identical to the local
transport and to scipy (chunks are deterministic, so *where* they run
cannot change *what* they compute), the transfer walls in the records
and timeline are measured rather than alpha-beta-modeled, and the
remote failure path carries worker-side tracebacks home.
"""

import socket

import numpy as np
import pytest

from repro.core.executor import RetryPolicy
from repro.core.governor import GovernorConfig
from repro.distributed import (
    RemoteShardPool,
    RemoteWorker,
    ShardConfig,
    ShardedRunError,
    run_sharded,
)
from repro.distributed.transport import (
    RemoteShardError,
    recv_frame,
    run_settings,
    send_frame,
    settings_record,
)
from repro.sparse.generators import random_csr, rmat
from tests.conftest import assert_equals_scipy_product


@pytest.fixture(scope="module")
def operands():
    a = rmat(7, 4.0, seed=31)
    b = random_csr(a.n_cols, 96, 3 * a.n_cols, seed=32)
    return a, b


@pytest.fixture(scope="module")
def oracle(operands):
    a, b = operands
    return run_sharded(a, b, ShardConfig(num_shards=1)).matrix


@pytest.fixture(scope="module")
def unix_pool():
    with RemoteShardPool.spawn(2, kind="unix") as pool:
        yield pool


class TestSocketEquivalence:
    @pytest.mark.parametrize("kind", ["unix", "tcp"])
    def test_bit_identical_both_socket_kinds(self, operands, oracle, kind):
        a, b = operands
        res = run_sharded(
            a, b, ShardConfig(num_shards=2, transport="socket",
                              socket_kind=kind))
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)
        assert all(r.transport == "socket" for r in res.records)
        assert all(r.failover == "" for r in res.records)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_bit_identical_across_worker_backends(self, operands, oracle,
                                                  unix_pool, backend):
        a, b = operands
        res = run_sharded(
            a, b, ShardConfig(num_shards=2, transport="socket",
                              backend=backend, workers=2),
            worker_pool=unix_pool)
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)

    def test_more_shards_than_workers_round_robin(self, operands, oracle,
                                                  unix_pool):
        a, b = operands
        res = run_sharded(
            a, b, ShardConfig(num_shards=4, transport="socket"),
            worker_pool=unix_pool)
        assert res.num_shards == 4
        assert res.matrix == oracle

    def test_external_pool_not_closed_by_run(self, operands, unix_pool):
        a, b = operands
        run_sharded(a, b, ShardConfig(num_shards=2, transport="socket"),
                    worker_pool=unix_pool)
        # the pool the caller owns survives the run and stays usable
        assert all(w.alive for w in unix_pool.workers)
        res = run_sharded(a, b,
                          ShardConfig(num_shards=2, transport="socket"),
                          worker_pool=unix_pool)
        assert res.matrix is not None


class TestMeasuredTransfers:
    def test_records_carry_measured_walls(self, operands, unix_pool):
        a, b = operands
        res = run_sharded(
            a, b, ShardConfig(num_shards=2, transport="socket"),
            worker_pool=unix_pool)
        for rec in res.records:
            # every span ships operands and gathers chunks over the wire,
            # so both measured legs must have nonzero wall and bytes
            assert rec.bcast_seconds > 0.0
            assert rec.gather_seconds > 0.0
            assert rec.bytes_sent > 0
            assert rec.bytes_received > 0
            assert rec.transfer_bytes == rec.bytes_sent + rec.bytes_received
            d = rec.as_dict()
            assert d["transport"] == "socket"
            assert d["bcast_seconds"] == rec.bcast_seconds
        assert res.measured_transfer_seconds > 0.0
        assert res.transport == "socket"

    def test_timeline_uses_measured_walls(self, operands, unix_pool):
        a, b = operands
        res = run_sharded(
            a, b, ShardConfig(num_shards=2, transport="socket"),
            worker_pool=unix_pool)
        spans = {r.label: r for r in res.timeline.records}
        for rec in res.records:
            t = rec.shard_id
            bcast = spans[f"bcast-B[shard{t}]"]
            gather = spans[f"gather-C[shard{t}]"]
            assert bcast.duration == pytest.approx(rec.bcast_seconds,
                                                   abs=1e-9)
            assert gather.duration == pytest.approx(rec.gather_seconds,
                                                    abs=1e-9)

    def test_transfer_spans_in_merged_trace(self, operands, unix_pool):
        a, b = operands
        res = run_sharded(
            a, b, ShardConfig(num_shards=2, transport="socket"),
            worker_pool=unix_pool)
        events = res.trace_events()
        names = [e.get("name", "") for e in events]
        # the shard tracer streams carry the measured transfer spans ...
        assert any(n.startswith("bcast-B[") for n in names)
        assert any(n.startswith("gather-C[") for n in names)
        # ... and the timeline process renders them as well
        assert any(n.startswith("remote[") for n in names)

    def test_local_transport_still_modeled(self, operands):
        a, b = operands
        res = run_sharded(a, b, ShardConfig(num_shards=2))
        assert res.transport == "local"
        assert res.measured_transfer_seconds == 0.0
        for rec in res.records:
            assert "bcast_seconds" not in rec.as_dict()


class TestRemoteFailurePath:
    def test_remote_compute_error_carries_traceback(self, operands,
                                                    unix_pool):
        a, b = operands
        # an injected raise inside the remote executor is a *compute*
        # failure: no failover (it would fail identically elsewhere),
        # and the worker-side traceback must come home on the error
        with pytest.raises(ShardedRunError) as exc_info:
            run_sharded(
                a, b, ShardConfig(num_shards=2, transport="socket"),
                worker_pool=unix_pool,
                shard_faults={1: "numeric:raise:times=-1"})
        err = exc_info.value
        assert set(err.failures) == {1}
        assert isinstance(err.failures[1], RemoteShardError)
        assert err.failures[1].exc_type == "InjectedFault"
        # the structured traceback is the worker's, not the node's
        assert "InjectedFault" in err.tracebacks[1]
        assert "execute_chunk_grid" in err.tracebacks[1]
        assert err.__cause__ is err.failures[1]

    def test_other_shards_complete_around_remote_failure(self, operands,
                                                         unix_pool):
        a, b = operands
        with pytest.raises(ShardedRunError) as exc_info:
            run_sharded(
                a, b, ShardConfig(num_shards=2, transport="socket"),
                worker_pool=unix_pool,
                shard_faults={0: "numeric:raise:times=-1"})
        assert exc_info.value.completed == [1]
        # the failed worker's connection survives a clean error frame:
        # the pool stays fully usable
        res = run_sharded(a, b,
                          ShardConfig(num_shards=2, transport="socket"),
                          worker_pool=unix_pool)
        assert res.matrix is not None


class TestLostWorkerHook:
    def test_raising_hook_is_counted_and_warned(self):
        pool = RemoteShardPool([RemoteWorker(7, "unix:/nonexistent")])

        def hook(worker_id, reason):
            raise KeyError("placement table")

        pool.on_worker_lost = hook
        with pytest.warns(RuntimeWarning, match=r"worker 7: KeyError"):
            pool.mark_lost(pool.workers[0], "reconnect budget exhausted")
        assert pool.workers[0].alive is False
        assert pool.hook_errors == 1


class TestLocalErrorTracebacks:
    def test_local_sharded_error_carries_tracebacks(self, operands):
        a, b = operands
        with pytest.raises(ShardedRunError) as exc_info:
            run_sharded(a, b, ShardConfig(num_shards=2),
                        shard_faults={0: "numeric:raise:times=-1"})
        err = exc_info.value
        # the in-process collection keeps the thread's traceback too
        assert "InjectedFault" in err.tracebacks[0]
        assert "shard_main" in err.tracebacks[0] or \
            "execute_chunk_grid" in err.tracebacks[0]


class TestRunSettingsOverTheWire:
    def test_retry_and_governor_round_trip(self):
        """Every RetryPolicy and GovernorConfig field survives frame
        encode and decode under its own name."""
        retry = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.02,
                            backoff=3.0, jitter=0.0)
        governor = GovernorConfig(deadline_seconds=30.0,
                                  heartbeat_interval=0.5,
                                  host_mem_budget_bytes=1 << 26,
                                  device_pool_bytes=1 << 24,
                                  max_resplit_depth=5)
        config = {"workers": 2, "backend": "thread", "crash_budget": 1,
                  "retry": settings_record(retry),
                  "governor": settings_record(governor)}
        node, worker = socket.socketpair()
        with node, worker:
            send_frame(node, "run", {"config": config})
            frame = recv_frame(worker)
        settings = run_settings(frame.meta["config"])
        assert settings["retry"] == retry
        assert settings["governor"].config == governor
        assert (settings["workers"], settings["backend"],
                settings["crash_budget"]) == (2, "thread", 1)

    def test_custom_retryable_rejected_before_any_shard(self, operands):
        """A predicate is code and cannot cross the wire: refuse it up
        front instead of silently retrying under the default."""
        class UntouchedPool:
            def __getattr__(self, name):
                raise AssertionError(f"a shard started: pool.{name}")

        a, b = operands
        retry = RetryPolicy(max_attempts=2, retryable=lambda exc: False)
        with pytest.raises(ValueError, match="retryable"):
            run_sharded(a, b, ShardConfig(num_shards=2, transport="socket"),
                        retry=retry, worker_pool=UntouchedPool())
