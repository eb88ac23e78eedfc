"""Chaos battery for the socket shard transport.

Three failure families, each pinned to the exact recovery the design
promises, and every recovery checked bit-for-bit against an unfailed
run and scipy:

* **worker death** (SIGKILL / ``os._exit`` mid-run) → reconnect
  exhausts → failover re-placement onto a survivor, or degrade to an
  in-process local span (with ``TransportDegradedWarning``) when no
  survivor exists;
* **severed socket** (half a frame followed by an RST) → reconnect to
  the same worker with a skip-set resume — completed chunks are never
  recomputed;
* **stalled heartbeat** (worker alive but wedged holding its send
  lock) → lease expiry fires the same reconnect path even though the
  TCP connection never errored.

Chaos hooks are stripped from any re-sent or re-placed run, so a
recovered worker is never re-killed — each scenario injects exactly
one failure and must converge.
"""

import os
import threading
import time
from pathlib import Path

import pytest

from repro.distributed import (
    RemoteShardPool,
    ShardConfig,
    run_sharded,
)
from repro.distributed.transport import TransportDegradedWarning
from repro.sparse.generators import random_csr, rmat
from tests.conftest import assert_equals_scipy_product
from tests.core.test_executor_backends import leaked_shm


@pytest.fixture(scope="module")
def operands():
    a = rmat(8, 5.0, seed=91)
    b = random_csr(a.n_cols, 120, 3 * a.n_cols, seed=92)
    return a, b


@pytest.fixture(scope="module")
def oracle(operands):
    a, b = operands
    return run_sharded(a, b, ShardConfig(num_shards=1)).matrix


def processes_started_from(directory):
    """PIDs of live processes whose command line names ``directory``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if directory.encode() in cmdline:
            pids.append(int(entry.name))
    return pids


def socket_config(**kw):
    kw.setdefault("num_shards", 2)
    kw.setdefault("transport", "socket")
    kw.setdefault("backend", "serial")
    return ShardConfig(**kw)


class TestWorkerKill:
    def test_kill_fails_over_to_survivor(self, operands, oracle):
        """An in-worker ``os._exit`` mid-span: reconnect attempts hit a
        dead process, the span re-places onto the surviving worker with
        a skip-set, and the bits match an unfailed run."""
        a, b = operands
        res = run_sharded(
            a, b, socket_config(),
            shard_faults={1: "numeric:kill:times=1"})
        by_id = {r.shard_id: r for r in res.records}
        assert by_id[1].failover == "worker0"
        assert by_id[1].reconnects >= 1
        assert by_id[0].failover == ""
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)

    def test_external_sigkill_process_backend(self, operands, oracle):
        """SIGKILL from outside (the pool's own kill switch) while the
        worker grinds through a delay-stretched span, with the worker
        running a process executor pool — the transport must fail over
        and the dead worker's /dev/shm segments must not leak."""
        a, b = operands
        before = leaked_shm()
        with RemoteShardPool.spawn(2, kind="unix") as pool:
            socket_dir = os.path.dirname(
                pool.workers[0].address.partition(":")[2])
            timer = threading.Timer(0.6, pool.kill_worker, args=(1,))
            timer.start()
            try:
                res = run_sharded(
                    a, b,
                    socket_config(backend="process", workers=1),
                    worker_pool=pool,
                    shard_faults={1: "numeric:delay:times=-1:delay=0.1"})
            finally:
                timer.cancel()
        by_id = {r.shard_id: r for r in res.records}
        # the timer may lose the race on a fast machine; when it fires
        # mid-span the record must show the failover chain
        if by_id[1].failover:
            assert by_id[1].failover == "worker0"
            assert by_id[1].reconnects >= 1
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)
        time.sleep(0.2)
        assert leaked_shm() == before
        # the killed worker's process-pool children inherit its command
        # line; they must notice the orphaning and exit, not outlive the
        # pool blocked on their task queue
        deadline = time.monotonic() + 10.0
        while (processes_started_from(socket_dir)
               and time.monotonic() < deadline):
            time.sleep(0.1)
        assert processes_started_from(socket_dir) == []

    def test_no_survivors_degrades_to_local(self, operands, oracle):
        """With every worker dead the span re-places in-process — loudly
        (one warning), correctly (same bits), and the record says so."""
        a, b = operands
        with pytest.warns(TransportDegradedWarning):
            res = run_sharded(
                a, b, socket_config(num_shards=1),
                shard_faults={0: "numeric:kill:times=1"})
        assert res.records[0].failover == "local"
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)


class TestSeveredSocket:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_sever_mid_message_reconnects(self, operands, oracle, backend):
        """The worker cuts the connection half-way through a frame (RST,
        no FIN): the node sees a mid-frame close, reconnects to the same
        still-alive worker, and resumes from its skip-set."""
        a, b = operands
        before = leaked_shm()
        res = run_sharded(
            a, b, socket_config(backend=backend,
                                workers=2 if backend != "serial" else 1),
            shard_debug={0: {"sever_after": 2}})
        by_id = {r.shard_id: r for r in res.records}
        assert by_id[0].reconnects >= 1
        assert by_id[0].failover == ""  # same worker, no re-placement
        assert by_id[1].reconnects == 0
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)
        assert leaked_shm() == before


class TestStalledHeartbeat:
    def test_stall_expires_lease_and_reconnects(self, operands, oracle):
        """The worker wedges its heartbeat thread while holding the send
        lock: the socket stays open but goes silent, so only the lease
        watchdog can notice.  The span is delay-stretched so the stall
        engages mid-run."""
        a, b = operands
        res = run_sharded(
            a, b,
            socket_config(transport_heartbeat=0.05, lease_grace=2.0),
            shard_faults={0: "numeric:delay:times=-1:delay=0.15"},
            shard_debug={0: {"heartbeat_stall": 1.0}})
        by_id = {r.shard_id: r for r in res.records}
        assert by_id[0].reconnects >= 1
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)
