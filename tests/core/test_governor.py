"""Runtime governor tests: deadlines, host-memory backpressure, OOM
re-splitting, and the process watchdog.

Covers the four governor subsystems end to end:

1. **Watchdog / deadlines** — a delayed chunk trips its cooperative
   deadline (serial/thread) or the parent watchdog (process), the
   attempt is retried, and the product stays bit-identical.  A genuinely
   frozen worker (``SIGSTOP``) is detected from stalled heartbeats
   within the 2x-heartbeat grace window.
2. **Host-memory admission** — reservations + store bytes never exceed
   the budget, blocked dispatch wakes on release, and pressure squeezes
   a spillable store to disk instead of overcommitting.
3. **Device-OOM re-splitting** — chunks whose predicted footprint
   overflows the device pool are recursively halved and reassembled
   bit-identically on every backend.
4. **Stale-death dedupe** — a worker dying *after* its result was
   delivered is respawned without charging the crash budget.
"""

import os
import signal
import threading
import time

import pytest

from repro.core import (
    ChunkGrid,
    Governor,
    GovernorConfig,
    SpillableChunkStore,
    assemble_chunks,
    execute_chunk_grid,
    run_out_of_core,
)
from repro.core.chunks import chunk_flops
from repro.core.executor import RetryPolicy
from repro.core.executor.plan import chunk_output_estimates
from repro.core.executor.procpool import ProcessLanePool, resolve_mp_context
from repro.core.executor.procworker import KILL_AFTER_RESULT_ENV
from repro.core.governor import as_governor
from repro.core.governor.hostmem import HostMemoryGovernor
from repro.core.governor.watchdog import ChunkTimeout
from repro.core.memcheck import chunk_device_bytes
from repro.observability.tracer import Tracer
from repro.sparse.generators import rmat
from repro.sparse.shm import SharedCSR, cleanup_segments, run_prefix

from .test_executor_backends import assert_outputs_identical, leaked_shm

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)

ALL_BACKENDS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def problem():
    a = rmat(9, 8.0, seed=21)
    b = rmat(9, 8.0, seed=22)
    grid = ChunkGrid.regular(a.shape[0], b.shape[1], 3, 3)
    return a, b, grid


@pytest.fixture(scope="module")
def baseline(problem):
    a, b, grid = problem
    _, outputs = execute_chunk_grid(a, b, grid, keep_outputs=True)
    return outputs


def governed_run(problem, backend, gov, *, retry=FAST_RETRY, faults=None,
                 crash_budget=0, tracer=None):
    a, b, grid = problem
    workers = 1 if backend == "serial" else 2
    return execute_chunk_grid(
        a, b, grid, workers=workers, backend=backend, keep_outputs=True,
        retry=retry, crash_budget=crash_budget, faults=faults,
        tracer=tracer, governor=gov,
    )


# ----------------------------------------------------------------------
# GovernorConfig / Governor plumbing
# ----------------------------------------------------------------------
class TestGovernorConfig:
    def test_defaults_disabled(self):
        cfg = GovernorConfig()
        assert not cfg.enabled
        assert Governor(cfg).hostmem is None

    def test_any_limit_enables(self):
        assert GovernorConfig(deadline_seconds=1.0).enabled
        assert GovernorConfig(heartbeat_interval=0.1).enabled
        assert GovernorConfig(host_mem_budget_bytes=1 << 20).enabled
        assert GovernorConfig(device_pool_bytes=1 << 20).enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            GovernorConfig(deadline_seconds=0.0)
        with pytest.raises(ValueError):
            GovernorConfig(heartbeat_interval=-1.0)
        with pytest.raises(ValueError):
            GovernorConfig(host_mem_budget_bytes=0)
        with pytest.raises(ValueError):
            GovernorConfig(device_pool_bytes=-1)
        with pytest.raises(ValueError):
            GovernorConfig(max_resplit_depth=0)

    def test_as_governor_normalization(self):
        assert as_governor(None) is None
        gov = Governor(GovernorConfig(deadline_seconds=1.0))
        assert as_governor(gov) is gov
        cfg = GovernorConfig(host_mem_budget_bytes=1 << 20)
        wrapped = as_governor(cfg)
        assert isinstance(wrapped, Governor)
        assert wrapped.hostmem is not None
        with pytest.raises(TypeError):
            as_governor(object())

    def test_hostmem_created_iff_budget(self):
        assert Governor(GovernorConfig(deadline_seconds=1.0)).hostmem is None
        gov = Governor(GovernorConfig(host_mem_budget_bytes=4096))
        assert gov.hostmem is not None
        assert gov.hostmem.budget_bytes == 4096

    def test_device_fits(self):
        gov = Governor(GovernorConfig(device_pool_bytes=1 << 30))
        assert gov.device_fits(10, 100)
        tight = Governor(GovernorConfig(device_pool_bytes=64))
        assert not tight.device_fits(10, 100)
        # no pool configured -> everything "fits" (no re-split pressure)
        assert Governor(GovernorConfig()).device_fits(10 ** 6, 10 ** 9)


# ----------------------------------------------------------------------
# Host-memory admission control (unit)
# ----------------------------------------------------------------------
class TestHostMemoryGovernor:
    def test_admit_reserves_and_release_frees(self):
        gov = HostMemoryGovernor(1000)
        assert gov.admit(0, 400, may_wait=False)
        assert gov.admit(1, 400, may_wait=False)
        assert gov.held_bytes() == 800
        gov.release(0)
        assert gov.held_bytes() == 400
        gov.release(1)
        assert gov.held_bytes() == 0

    def test_admit_idempotent_per_chunk(self):
        gov = HostMemoryGovernor(1000)
        assert gov.admit(0, 400, may_wait=False)
        assert gov.admit(0, 400, may_wait=False)
        assert gov.held_bytes() == 400
        gov.release(0)
        # releasing twice is harmless
        gov.release(0)
        assert gov.held_bytes() == 0

    def test_backpressure_denial_without_wait(self):
        gov = HostMemoryGovernor(1000)
        assert gov.admit(0, 800, may_wait=False)
        # would overflow and the ledger is non-empty: deny, do not block
        assert not gov.admit(1, 800, may_wait=False)
        assert gov.held_bytes() == 800

    def test_oversized_chunk_force_admitted_on_empty_ledger(self):
        # a single chunk larger than the whole budget must not deadlock:
        # with nothing left to wait for it is admitted as an overcommit
        gov = HostMemoryGovernor(100)
        assert gov.admit(0, 5000, may_wait=True)
        assert gov.overcommits == 1
        gov.release(0)

    def test_blocked_admit_woken_by_release(self):
        gov = HostMemoryGovernor(1000)
        assert gov.admit(0, 900, may_wait=False)
        admitted = threading.Event()

        def blocked():
            assert gov.admit(1, 900, may_wait=True)
            admitted.set()

        t = threading.Thread(target=blocked)
        t.start()
        # the waiter must actually block while chunk 0 holds the budget
        assert not admitted.wait(0.15)
        gov.release(0)
        assert admitted.wait(2.0), "release did not wake the blocked admit"
        t.join()
        assert gov.held_bytes() == 900

    def test_pressure_spills_attached_store(self, tmp_path, baseline):
        store = SpillableChunkStore(tmp_path / "spill")
        for rp, row in enumerate(baseline):
            for cp, chunk in enumerate(row):
                store.put(rp, cp, chunk)
        stored = store.held_bytes
        assert stored > 0
        gov = HostMemoryGovernor(stored + 64)
        gov.attach_store(store)
        # admission would overflow -> the governor squeezes the store
        # to disk instead of blocking or overcommitting
        assert gov.admit(0, stored // 2, may_wait=True)
        assert gov.overcommits == 0
        assert gov.spill_requests >= 1
        assert store.spilled_bytes_total > 0
        # spilled chunks are still served transparently
        assert_outputs_identical(
            [[store.get(rp, cp) for cp in range(3)] for rp in range(3)],
            baseline,
        )


# ----------------------------------------------------------------------
# Deadlines end to end
# ----------------------------------------------------------------------
class TestDeadlines:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_cooperative_deadline_retried(self, problem, baseline, backend):
        # the symbolic-stage delay outlives the deadline; the next stage
        # hook notices and raises ChunkTimeout, which is retryable
        gov = Governor(GovernorConfig(deadline_seconds=0.15))
        tracer = Tracer()
        _, outputs = governed_run(
            problem, backend, gov, tracer=tracer,
            faults="symbolic:delay:chunk=4:delay=0.4",
        )
        assert_outputs_identical(outputs, baseline)
        assert tracer.counters("faults").get("timeouts", 0) >= 1
        assert tracer.counters("faults").get("retries", 0) >= 1

    def test_deadline_exhausts_retries(self, problem):
        gov = Governor(GovernorConfig(deadline_seconds=0.1))
        with pytest.raises(ChunkTimeout) as exc_info:
            governed_run(
                problem, "serial", gov, retry=None,
                faults="symbolic:delay:chunk=4:delay=0.3",
            )
        assert exc_info.value.chunk_id == 4

    def test_watchdog_kills_hung_worker_process(self, problem, baseline,
                                                tmp_path):
        # the worker sleeps past the deadline; the parent watchdog kills
        # it, surfaces ChunkTimeout, and the retry completes cleanly
        # (latch: exactly once machine-wide, so the respawn is clean)
        gov = Governor(GovernorConfig(deadline_seconds=0.3,
                                      heartbeat_interval=0.1))
        tracer = Tracer()
        spec = f"numeric:delay:chunk=4:delay=5.0:latch={tmp_path / 'd.latch'}"
        _, outputs = governed_run(
            problem, "process", gov, tracer=tracer, faults=spec,
            crash_budget=1,
        )
        assert_outputs_identical(outputs, baseline)
        counters = tracer.counters("faults")
        assert counters.get("timeouts", 0) >= 1
        assert counters.get("respawns", 0) >= 1
        assert leaked_shm() == []


class TestDeadlineReentrancy:
    """Concurrent runs share chunk ids; the registry keys on the
    executing thread so one run's deadline can never trip another's."""

    def test_same_chunk_id_on_two_threads_is_independent(self):
        from repro.core.governor import watchdog

        results = {}
        barrier = threading.Barrier(2)

        def tight(cid=4):
            # armed with no budget at all: must time out immediately
            watchdog.arm_deadline(cid, 0.0)
            barrier.wait(timeout=10)
            time.sleep(0.02)
            try:
                watchdog.check_deadline(cid)
                results["tight"] = None
            except ChunkTimeout as exc:
                results["tight"] = exc
            finally:
                watchdog.disarm_deadline(cid)

        def roomy(cid=4):
            # same chunk id, generous budget: must NOT see the other
            # thread's expired deadline
            watchdog.arm_deadline(cid, 60.0)
            barrier.wait(timeout=10)
            time.sleep(0.02)
            try:
                watchdog.check_deadline(cid)
                results["roomy"] = None
            except ChunkTimeout as exc:
                results["roomy"] = exc
            finally:
                watchdog.disarm_deadline(cid)

        threads = [threading.Thread(target=tight),
                   threading.Thread(target=roomy)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert isinstance(results["tight"], ChunkTimeout)
        assert results["roomy"] is None, \
            "a thread tripped another run's deadline for the same chunk id"

    def test_check_on_foreign_thread_is_a_noop(self):
        from repro.core.governor import watchdog

        watchdog.arm_deadline(7, 0.0)
        try:
            time.sleep(0.01)
            done = threading.Event()
            errors = []

            def other():
                try:
                    watchdog.check_deadline(7)  # armed by another thread
                except ChunkTimeout as exc:
                    errors.append(exc)
                finally:
                    done.set()

            t = threading.Thread(target=other)
            t.start()
            t.join(timeout=10)
            assert done.is_set() and not errors
            with pytest.raises(ChunkTimeout):
                watchdog.check_deadline(7)  # arming thread still trips
        finally:
            watchdog.disarm_deadline(7)

    def test_concurrent_engine_runs_with_tight_and_loose_deadlines(
            self, problem, baseline):
        # end-to-end: two overlapping in-process runs, one hung chunk
        # under a tight deadline; the healthy run with no deadline at
        # all must finish untouched
        results = {}

        def hung_run():
            gov = Governor(GovernorConfig(deadline_seconds=0.15))
            try:
                governed_run(problem, "serial", gov, retry=None,
                             faults="symbolic:delay:chunk=4:delay=0.4")
                results["hung"] = None
            except ChunkTimeout as exc:
                results["hung"] = exc

        def healthy_run():
            a, b, grid = problem
            _, outputs = execute_chunk_grid(a, b, grid, workers=2,
                                            keep_outputs=True,
                                            backend="thread")
            results["healthy"] = outputs

        threads = [threading.Thread(target=hung_run),
                   threading.Thread(target=healthy_run)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert isinstance(results["hung"], ChunkTimeout)
        assert results["hung"].chunk_id == 4
        assert_outputs_identical(results["healthy"], baseline)


# ----------------------------------------------------------------------
# Frozen-worker detection (pool level, SIGSTOP)
# ----------------------------------------------------------------------
class TestWatchdogHeartbeats:
    def test_sigstop_detected_within_grace(self):
        """A worker frozen mid-chunk (SIGSTOP — heartbeat thread stops
        with it) is detected from stalled heartbeats and killed within
        the 2x-heartbeat grace window, even with no chunk deadline."""
        a = rmat(6, 4.0, seed=3)
        b = rmat(6, 4.0, seed=4)
        prefix = run_prefix()
        heartbeat = 0.05
        segments, pool = [], None
        try:
            seg_a = SharedCSR.create(a, f"{prefix}-a0")
            seg_b = SharedCSR.create(b, f"{prefix}-b0")
            segments = [seg_a, seg_b]
            ctx = resolve_mp_context(None)
            pool = ProcessLanePool(
                ctx, 1, "lane0", [seg_a.descriptor], [seg_b.descriptor],
                prefix, False, None, crash_budget=1,
                # the hang fault parks the worker mid-numeric so there
                # is a window to freeze it; its heartbeat keeps beating
                # until SIGSTOP stops the whole process
                faults_spec="numeric:hang:chunk=0:delay=30",
                deadline=None, heartbeat_interval=heartbeat,
            )
            pool.wait_ready()
            pool.submit(0, 0, 0, None, 1)
            deadline = time.monotonic() + 5.0
            while pool._claims[0] != 0:  # wait for the worker to claim
                assert time.monotonic() < deadline, "worker never claimed"
                time.sleep(0.005)
            os.kill(pool._procs[0].pid, signal.SIGSTOP)
            frozen_at = time.monotonic()
            result = pool.next_result()
            detected = time.monotonic() - frozen_at
            assert result[:2] == ("hung", 0)
            # 2x-heartbeat grace + poll slop; generous CI margin
            assert detected < 10 * heartbeat * 2.0, (
                f"stall detection took {detected:.2f}s"
            )
        finally:
            if pool is not None:
                pool.shutdown()
            for seg in segments:
                seg.close()
                seg.unlink()
            cleanup_segments(prefix)
        assert leaked_shm() == []


# ----------------------------------------------------------------------
# Device-OOM re-splitting end to end
# ----------------------------------------------------------------------
class TestResplit:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_undersized_pool_resplits_bit_identical(self, problem, baseline,
                                                    backend):
        a, b, grid = problem
        products = (chunk_flops(a, b, grid) // 2).ravel()
        import numpy as np

        rows = np.diff(grid.row_bounds)
        per_chunk = sorted(
            chunk_device_bytes(int(rows[cid // grid.num_col_panels]),
                               int(products[cid]))
            for cid in range(grid.num_chunks)
        )
        # pool below the largest chunk's footprint: at least one chunk
        # must re-split, smaller ones still run whole
        pool_bytes = max(per_chunk[len(per_chunk) // 2], 256)
        gov = Governor(GovernorConfig(device_pool_bytes=pool_bytes))
        tracer = Tracer()
        _, outputs = governed_run(problem, backend, gov, tracer=tracer)
        assert_outputs_identical(outputs, baseline)
        assert tracer.counters("faults").get("resplits", 0) >= 1
        if backend == "process":
            assert leaked_shm() == []

    def test_injected_device_oom_recovers(self, problem, baseline, tmp_path):
        # no device pool configured at all: a *raised* DeviceOutOfMemory
        # (driver-level OOM) still diverts through the re-split path
        tracer = Tracer()
        spec = f"numeric:oom:chunk=4:latch={tmp_path / 'oom.latch'}"
        gov = Governor(GovernorConfig(device_pool_bytes=1 << 30))
        _, outputs = governed_run(problem, "serial", gov, tracer=tracer,
                                  faults=spec)
        assert_outputs_identical(outputs, baseline)
        assert tracer.counters("faults").get("resplits", 0) >= 1


# ----------------------------------------------------------------------
# Host-memory budget end to end
# ----------------------------------------------------------------------
class TestHostBudgetEndToEnd:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_run_completes_under_budget_via_spill(self, problem, baseline,
                                                  tmp_path, backend):
        a, b, grid = problem
        estimates = chunk_output_estimates(a, b, grid)
        # room for the two largest chunks in flight, far below the total
        # output: completing at all requires spilling the store
        budget = 2 * max(estimates)
        assert budget < sum(estimates)
        tracer = Tracer()
        store = SpillableChunkStore(tmp_path / f"spill-{backend}",
                                    tracer=tracer)
        gov = Governor(GovernorConfig(host_mem_budget_bytes=budget))
        workers = 2
        profile = run_out_of_core(
            a, b, grid=grid, keep_output=False, chunk_store=store,
            workers=workers, backend=backend, tracer=tracer, governor=gov,
        ).profile
        assert len(profile.chunks) == grid.num_chunks
        # the budget held: every ledger sample stayed under it, with no
        # overcommit escape hatch taken
        assert gov.hostmem.overcommits == 0
        assert gov.hostmem.peak_bytes <= budget
        for sample in tracer.gauges:
            if sample.name == "host_mem":
                held = sample.values["reserved"] + sample.values["stored"]
                assert held <= budget + 1e-9
        # completion required the pressure valve
        assert store.spilled_bytes_total > 0
        assert gov.hostmem.spill_requests >= 1
        # and spilled chunks reassemble bit-identically
        assert_outputs_identical(
            [[store.get(rp, cp) for cp in range(3)] for rp in range(3)],
            baseline,
        )
        expected = assemble_chunks(baseline)
        got = store.assemble()
        assert got == expected
        if backend == "process":
            assert leaked_shm() == []


# ----------------------------------------------------------------------
# Stale-death dedupe (satellite: death after delivery is not a crash)
# ----------------------------------------------------------------------
class TestStaleDeath:
    def test_death_after_delivery_needs_no_crash_budget(self, problem,
                                                        baseline,
                                                        monkeypatch):
        """A worker that dies *after* its result hit the queue is
        respawned without charging the crash budget — with budget 0 the
        run still completes, because nothing was actually lost."""
        monkeypatch.setenv(KILL_AFTER_RESULT_ENV, "4")
        a, b, grid = problem
        tracer = Tracer()
        _, outputs = execute_chunk_grid(
            a, b, grid, workers=2, backend="process", keep_outputs=True,
            retry=FAST_RETRY, crash_budget=0, tracer=tracer,
        )
        assert_outputs_identical(outputs, baseline)
        assert leaked_shm() == []


# ----------------------------------------------------------------------
# Estimation-gated device pre-check (avoided re-splits)
# ----------------------------------------------------------------------
class TestEstimatedPrecheck:
    """A sampled estimate between the true footprint and the UB lets
    chunks that *would* have been spuriously re-split run whole."""

    def _est(self, problem):
        from repro.spgemm.estimate import estimate_chunks, estimate_row_nnz

        a, b, grid = problem
        est = estimate_row_nnz(a, b, seed=0)
        return est, estimate_chunks(a, b, grid, est)

    def test_pool_between_estimate_and_ub_avoids_resplits(self, problem,
                                                          baseline):
        import numpy as np

        a, b, grid = problem
        est, chunk_est = self._est(problem)
        products = (chunk_flops(a, b, grid) // 2).ravel()
        rows = np.diff(grid.row_bounds)
        ub_dev = np.array([
            chunk_device_bytes(int(rows[cid // grid.num_col_panels]),
                               int(products[cid]))
            for cid in range(grid.num_chunks)
        ])
        est_dev = chunk_est.device_bytes()
        assert est_dev.max() < ub_dev.max(), "fixture must compress"
        # pool admits every estimated footprint but not every UB one
        pool = int(est_dev.max())
        assert (ub_dev > pool).any()
        gov = Governor(GovernorConfig(device_pool_bytes=pool))
        tracer = Tracer()
        _, outputs = execute_chunk_grid(
            a, b, grid, keep_outputs=True, retry=FAST_RETRY,
            tracer=tracer, governor=gov, estimate=est,
        )
        assert_outputs_identical(outputs, baseline)
        faults = tracer.counters("faults")
        assert faults.get("resplits", 0) == 0
        assert faults.get("avoided_resplits", 0) >= 1

    def test_pool_below_estimate_still_resplits(self, problem, baseline):
        est, chunk_est = self._est(problem)
        a, b, grid = problem
        pool = max(int(chunk_est.device_bytes().max()) // 2, 256)
        gov = Governor(GovernorConfig(device_pool_bytes=pool))
        tracer = Tracer()
        _, outputs = execute_chunk_grid(
            a, b, grid, keep_outputs=True, retry=FAST_RETRY,
            tracer=tracer, governor=gov, estimate=est,
        )
        assert_outputs_identical(outputs, baseline)
        assert tracer.counters("faults").get("resplits", 0) >= 1

    def test_estimated_run_is_bit_identical_without_governor(self, problem,
                                                             baseline):
        """Density hints refine dispatch only — never the product."""
        from repro.spgemm.estimate import estimate_row_nnz

        a, b, grid = problem
        est = estimate_row_nnz(a, b, seed=0)
        _, outputs = execute_chunk_grid(
            a, b, grid, keep_outputs=True, estimate=est,
        )
        assert_outputs_identical(outputs, baseline)


class TestHeartbeatLease:
    def test_beat_renews_lease(self):
        from repro.core.governor.watchdog import HeartbeatLease

        lease = HeartbeatLease(0.05, grace=2.0)
        time.sleep(0.15)  # > interval x grace: silent long enough to die
        assert lease.expired()
        lease.beat()
        assert not lease.expired()
        assert lease.beats == 1
        assert lease.remaining() == pytest.approx(0.1, abs=0.05)

    def test_expires_after_interval_times_grace_silence(self):
        from repro.core.governor.watchdog import HeartbeatLease

        lease = HeartbeatLease(1.0, grace=3.0)
        # drive the clock explicitly instead of sleeping
        now = time.monotonic()
        assert not lease.expired(now + 2.9)
        assert lease.expired(now + 3.1)

    def test_counter_regression_renews_but_is_counted(self):
        from repro.core.governor.watchdog import HeartbeatLease

        lease = HeartbeatLease(0.05, grace=2.0)
        lease.beat(counter=5)
        time.sleep(0.15)
        assert lease.expired()
        # a stale frame from before a reconnect: bytes arrived, so the
        # peer is alive — renew, but record the anomaly
        lease.beat(counter=3)
        assert not lease.expired()
        assert lease.regressions == 1
        lease.beat(counter=6)
        assert lease.regressions == 1

    def test_reset_rearms_after_reconnect(self):
        from repro.core.governor.watchdog import HeartbeatLease

        lease = HeartbeatLease(0.05, grace=2.0)
        time.sleep(0.15)
        assert lease.expired()
        lease.reset()
        assert not lease.expired()

    def test_validation(self):
        from repro.core.governor.watchdog import HeartbeatLease

        with pytest.raises(ValueError, match="interval"):
            HeartbeatLease(0.0)
        with pytest.raises(ValueError, match="grace"):
            HeartbeatLease(1.0, grace=0.5)
