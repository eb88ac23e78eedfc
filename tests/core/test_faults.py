"""Fault-tolerance tests: retry policy, fault injection, chaos matrix.

The chaos matrix injects ``raise`` / ``delay`` / ``kill`` faults at every
pipeline stage (analysis / symbolic / numeric / sink) under every
backend and asserts the three recovery invariants of the executor:

1. the run completes (retries / respawns absorb the fault);
2. the product is bit-identical to an undisturbed serial run — recovery
   never changes results;
3. ``/dev/shm`` ends empty — recovery never leaks a shared segment.
"""

import os
import threading
import time
import warnings

import pytest

from repro.core.chunks import ChunkGrid
from repro.core.executor import (
    NO_RETRY,
    BackendDegradedWarning,
    BackendUnavailable,
    ChunkExecutionError,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    WorkerCrashed,
    execute_chunk_grid,
)
from repro.core.executor.faults import FAULT_STAGES, as_injector, default_retryable
from repro.sparse.generators import rmat

from .test_executor_backends import assert_outputs_identical, leaked_shm

#: fast backoff for tests — still exercises the sleep path (delay > 0)
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)

WORKER_STAGES = ("analysis", "symbolic", "numeric")


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


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_no_retry_default(self):
        assert NO_RETRY.max_attempts == 1
        assert not NO_RETRY.should_retry(RuntimeError("x"), 1)

    def test_should_retry_counts_total_attempts(self):
        pol = RetryPolicy(max_attempts=3)
        exc = RuntimeError("transient")
        assert pol.should_retry(exc, 1)
        assert pol.should_retry(exc, 2)
        assert not pol.should_retry(exc, 3)

    def test_base_exceptions_never_retried(self):
        pol = RetryPolicy(max_attempts=5)
        assert not pol.should_retry(KeyboardInterrupt(), 1)
        assert not pol.should_retry(SystemExit(1), 1)
        assert not default_retryable(KeyboardInterrupt())
        assert default_retryable(ValueError("v"))

    def test_custom_retryable_predicate(self):
        pol = RetryPolicy(max_attempts=3,
                          retryable=lambda e: isinstance(e, OSError))
        assert pol.should_retry(OSError("io"), 1)
        assert not pol.should_retry(ValueError("v"), 1)

    def test_delay_deterministic_and_growing(self):
        pol = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=10.0,
                          backoff=2.0, jitter=0.5)
        assert pol.delay_for(1, salt=7) == pol.delay_for(1, salt=7)
        # exponential growth: each delay (pre-jitter base doubles, jitter
        # stretches by at most 50%) strictly exceeds the previous base
        for attempt in range(1, 4):
            lo = 0.1 * 2.0 ** (attempt - 1)
            assert lo <= pol.delay_for(attempt) <= lo * 1.5

    def test_delay_capped_by_max_delay(self):
        pol = RetryPolicy(max_attempts=99, base_delay=1.0, max_delay=2.0,
                          jitter=0.0)
        assert pol.delay_for(50) == 2.0

    def test_jitter_desynchronizes_chunks(self):
        pol = RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.5)
        delays = {pol.delay_for(1, salt=cid) for cid in range(16)}
        assert len(delays) > 1

    def test_delay_rejects_bad_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay_for(0)


# ----------------------------------------------------------------------
# FaultSpec / FaultInjector
# ----------------------------------------------------------------------
class TestFaultSpec:
    @pytest.mark.parametrize("spec", [
        FaultSpec("numeric", "raise"),
        FaultSpec("analysis", "delay", delay=0.25),
        FaultSpec("symbolic", "kill", chunk=3),
        FaultSpec("sink", "raise", chunk=0, times=-1),
        FaultSpec("numeric", "raise", chunk=7, times=4, latch="/tmp/x.latch"),
    ])
    def test_encode_decode_roundtrip(self, spec):
        assert FaultSpec.decode(spec.encode()) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("gpu", "raise")
        with pytest.raises(ValueError):
            FaultSpec("numeric", "explode")
        with pytest.raises(ValueError):
            FaultSpec("numeric", "raise", times=0)
        with pytest.raises(ValueError):
            FaultSpec("numeric", "raise", times=-2)

    def test_decode_malformed(self):
        with pytest.raises(ValueError):
            FaultSpec.decode("numeric")
        with pytest.raises(ValueError):
            FaultSpec.decode("numeric:raise:bogus=1")


class TestFaultInjector:
    def test_inert_injector(self):
        inj = FaultInjector()
        assert not inj.enabled
        assert inj.hook_for(0) is None
        inj.fire("numeric", 0)  # no-op

    def test_from_string_multiple_specs(self):
        inj = FaultInjector.from_string("numeric:raise:chunk=1;sink:delay")
        assert inj.enabled
        assert len(inj.specs) == 2
        assert FaultInjector.from_string(inj.encode()).specs == inj.specs

    def test_from_env(self):
        inj = FaultInjector.from_env({"REPRO_FAULTS": "numeric:raise"})
        assert inj.enabled
        assert not FaultInjector.from_env({}).enabled

    def test_as_injector_normalization(self):
        assert isinstance(as_injector("numeric:raise"), FaultInjector)
        inj = FaultInjector.from_string("numeric:raise")
        assert as_injector(inj) is inj
        assert as_injector([FaultSpec("sink", "raise")]).enabled

    def test_chunk_scoping(self):
        inj = FaultInjector.from_string("numeric:raise:chunk=3:times=-1")
        inj.fire("numeric", 2)   # other chunk: no fault
        inj.fire("symbolic", 3)  # other stage: no fault
        with pytest.raises(InjectedFault):
            inj.fire("numeric", 3)

    def test_times_counts_firings(self):
        inj = FaultInjector.from_string("numeric:raise:times=2")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                inj.fire("numeric", 0)
        inj.fire("numeric", 0)  # dormant after two firings

    def test_latch_exactly_once_across_injectors(self, tmp_path):
        latch = str(tmp_path / "x.latch")
        spec = f"numeric:raise:times=-1:latch={latch}"
        first = FaultInjector.from_string(spec)
        with pytest.raises(InjectedFault):
            first.fire("numeric", 0)
        first.fire("numeric", 0)  # latched: never again in this injector
        # a second injector (a respawned worker process) sees the latch
        FaultInjector.from_string(spec).fire("numeric", 0)

    def test_delay_action_sleeps(self):
        inj = FaultInjector.from_string("numeric:delay:delay=0.05")
        t0 = time.perf_counter()
        inj.fire("numeric", 0)
        assert time.perf_counter() - t0 >= 0.05

    def test_thread_safe_times(self):
        inj = FaultInjector.from_string("numeric:raise:times=8")
        hits = []

        def worker():
            for _ in range(8):
                try:
                    inj.fire("numeric", 0)
                except InjectedFault:
                    hits.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(hits) == 8


class TestErrors:
    def test_chunk_execution_error_carries_context(self):
        exc = ChunkExecutionError(5, 2, "boom traceback", stage="numeric")
        assert exc.chunk_id == 5 and exc.attempt == 2
        assert exc.stage == "numeric"
        assert "chunk 5" in str(exc) and "attempt 2" in str(exc)
        assert "boom traceback" in str(exc)
        assert isinstance(exc, RuntimeError)

    def test_backend_unavailable_attrs(self):
        exc = BackendUnavailable("process", "spawn failed")
        assert exc.backend == "process" and exc.reason == "spawn failed"


# ----------------------------------------------------------------------
# chaos matrix: stage x action x backend
# ----------------------------------------------------------------------
def run_with_faults(problem, backend, spec, *, retry=FAST_RETRY,
                    crash_budget=0, tracer=None, governor=None):
    a, b, grid = problem
    workers = 1 if backend == "serial" else 2
    return execute_chunk_grid(
        a, b, grid, workers=workers, backend=backend, keep_outputs=True,
        retry=retry, crash_budget=crash_budget, faults=spec, tracer=tracer,
        governor=governor,
    )


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("action", ["raise", "delay"])
@pytest.mark.parametrize("stage", FAULT_STAGES)
def test_chaos_matrix(problem, baseline, tmp_path, stage, action, backend):
    """Every stage x action x backend combination recovers bit-identically.

    ``raise`` faults use a latch so they fire exactly once machine-wide —
    per-process ``times`` counters would re-fire on every worker under
    the process backend and could exhaust the retry budget.
    """
    spec = f"{stage}:{action}:chunk=4"
    if action == "raise":
        spec += f":latch={tmp_path / 'fault.latch'}"
    from repro.observability.tracer import Tracer

    tracer = Tracer()
    _, outputs = run_with_faults(problem, backend, spec, tracer=tracer)
    assert_outputs_identical(outputs, baseline)
    if action == "raise":
        retries = [s for s in tracer.spans if s.cat == "retry"]
        assert len(retries) == 1
        assert tracer.counters("faults").get("retries") == 1
    assert leaked_shm() == []


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("stage", FAULT_STAGES)
def test_chaos_matrix_oom(problem, baseline, tmp_path, stage, backend):
    """A DeviceOutOfMemory at any stage x backend recovers bit-identically
    — via adaptive re-splitting when the kernel overflowed, via a plain
    retry when the parent-side sink did."""
    from repro.observability.tracer import Tracer

    spec = f"{stage}:oom:chunk=4:latch={tmp_path / 'oom.latch'}"
    tracer = Tracer()
    _, outputs = run_with_faults(problem, backend, spec, tracer=tracer)
    assert_outputs_identical(outputs, baseline)
    counters = tracer.counters("faults")
    assert counters.get("resplits", 0) + counters.get("retries", 0) >= 1
    assert leaked_shm() == []


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("stage", FAULT_STAGES)
def test_chaos_matrix_corrupt(problem, baseline, tmp_path, stage, backend):
    """A ChunkCorruption at any stage x backend is retryable: the chunk is
    recomputed and the product stays bit-identical."""
    from repro.observability.tracer import Tracer

    spec = f"{stage}:corrupt:chunk=4:latch={tmp_path / 'corrupt.latch'}"
    tracer = Tracer()
    _, outputs = run_with_faults(problem, backend, spec, tracer=tracer)
    assert_outputs_identical(outputs, baseline)
    assert tracer.counters("faults").get("retries", 0) >= 1
    assert leaked_shm() == []


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("stage", WORKER_STAGES)
def test_chaos_matrix_hang(problem, baseline, tmp_path, stage, backend):
    """A hung chunk at any kernel stage is cancelled by the governor —
    cooperatively (deadline checks between stages, serial/thread) or by
    the parent watchdog killing the unresponsive worker (process) — and
    the retried attempt completes bit-identically.  Worker stages only:
    the sink runs on the parent's lane thread, where a hang would stall
    the driver itself rather than a cancellable chunk attempt."""
    from repro.core import Governor, GovernorConfig
    from repro.observability.tracer import Tracer

    spec = f"{stage}:hang:chunk=4:delay=30:latch={tmp_path / 'hang.latch'}"
    gov = Governor(GovernorConfig(deadline_seconds=0.4,
                                  heartbeat_interval=0.1))
    tracer = Tracer()
    _, outputs = run_with_faults(problem, backend, spec, tracer=tracer,
                                 crash_budget=1, governor=gov)
    assert_outputs_identical(outputs, baseline)
    assert tracer.counters("faults").get("timeouts", 0) >= 1
    assert leaked_shm() == []


@pytest.mark.parametrize("stage", WORKER_STAGES)
def test_kill_injection_respawns_and_completes(problem, baseline, tmp_path,
                                               stage):
    """A hard worker kill at any kernel stage is absorbed by the crash
    budget: the chunk is requeued, the worker respawned, and the product
    stays bit-identical with no leaked segments."""
    from repro.observability.tracer import Tracer

    spec = f"{stage}:kill:chunk=2:latch={tmp_path / 'kill.latch'}"
    tracer = Tracer()
    _, outputs = run_with_faults(problem, "process", spec, crash_budget=1,
                                 tracer=tracer)
    assert_outputs_identical(outputs, baseline)
    respawns = [s for s in tracer.spans if s.cat == "respawn"]
    assert len(respawns) == 1
    assert tracer.counters("faults").get("respawns") == 1
    assert leaked_shm() == []


def test_kill_without_budget_aborts(problem, tmp_path):
    spec = f"numeric:kill:chunk=2:latch={tmp_path / 'kill.latch'}"
    with pytest.raises(WorkerCrashed):
        run_with_faults(problem, "process", spec, crash_budget=0)
    assert leaked_shm() == []


def test_crash_budget_exhausted(problem):
    """An unlatched kill re-fires in every respawned worker; once crashes
    exceed the budget the run aborts (still without leaking)."""
    with pytest.raises(WorkerCrashed):
        run_with_faults(problem, "process", "numeric:kill:chunk=2:times=-1",
                        crash_budget=2)
    assert leaked_shm() == []


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_retries_exhausted_propagates(problem, backend):
    """A fault that outlives the retry budget fails the run with the
    original (or worker-wrapped) error."""
    spec = "numeric:raise:chunk=1:times=-1"
    with pytest.raises((InjectedFault, ChunkExecutionError)):
        run_with_faults(problem, backend, spec,
                        retry=RetryPolicy(max_attempts=2, base_delay=0.0))
    assert leaked_shm() == []


def test_no_retry_fails_on_first_fault(problem):
    with pytest.raises(InjectedFault):
        run_with_faults(problem, "serial", "numeric:raise:chunk=0",
                        retry=None)


def test_sink_fault_leaves_chunk_incomplete_without_retry(problem):
    """A sink-stage failure must not mark the chunk completed — under
    NO_RETRY it propagates instead of silently dropping the write."""
    with pytest.raises(InjectedFault):
        run_with_faults(problem, "process", "sink:raise:chunk=3",
                        retry=None)
    assert leaked_shm() == []


# ----------------------------------------------------------------------
# graceful degradation process -> thread -> serial
# ----------------------------------------------------------------------
def _break_backends(monkeypatch, broken):
    """Patch ``make_backend`` so the named backends fail to establish."""
    import repro.core.executor.backends as backends_mod
    import repro.core.executor.engine as engine_mod

    real = backends_mod.make_backend

    def fake(name):
        if name in broken:
            class _Broken:
                def execute(self, *a, **k):
                    raise BackendUnavailable(name, "simulated establishment failure")
            return _Broken()
        return real(name)

    monkeypatch.setattr(backends_mod, "make_backend", fake)
    return engine_mod


@pytest.mark.parametrize("broken,expected_fallback", [
    ({"process"}, "thread"),
    ({"process", "thread"}, "serial"),
])
def test_degradation_chain(problem, baseline, monkeypatch, broken,
                           expected_fallback):
    from repro.observability.tracer import Tracer

    _break_backends(monkeypatch, broken)
    a, b, grid = problem
    tracer = Tracer()
    with pytest.warns(BackendDegradedWarning):
        _, outputs = execute_chunk_grid(
            a, b, grid, workers=2, backend="process", keep_outputs=True,
            tracer=tracer,
        )
    assert_outputs_identical(outputs, baseline)
    degrades = [s for s in tracer.spans if s.cat == "degrade"]
    assert len(degrades) == len(broken)
    assert degrades[-1].name.endswith(f"->{expected_fallback}]")
    assert tracer.counters("faults").get("degraded") == len(broken)


def test_exhausted_chain_propagates(problem, monkeypatch):
    """With every backend of the chain broken, the last step's
    failure propagates after one warning per degradation."""
    _break_backends(monkeypatch, {"process", "thread", "serial"})
    a, b, grid = problem
    with pytest.warns(BackendDegradedWarning) as record:
        with pytest.raises(BackendUnavailable):
            execute_chunk_grid(a, b, grid, workers=2, backend="process",
                               keep_outputs=True)
    assert sum(issubclass(w.category, BackendDegradedWarning)
               for w in record) == 2


def test_serial_backend_unavailable_is_terminal(problem, monkeypatch):
    """Serial is the end of the chain — nothing left to degrade to."""
    _break_backends(monkeypatch, {"serial"})
    a, b, grid = problem
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no spurious degrade warning either
        with pytest.raises(BackendUnavailable):
            execute_chunk_grid(a, b, grid, keep_outputs=True,
                               backend="serial")


def test_real_process_spawn_failure_degrades(problem, baseline, monkeypatch):
    """An actual pool-establishment failure (not a patched backend) takes
    the same degradation path."""
    import repro.core.executor.backends as backends_mod

    def broken_pool(*a, **k):
        raise OSError("cannot spawn workers")

    monkeypatch.setattr(backends_mod, "ProcessLanePool", broken_pool)
    a, b, grid = problem
    with pytest.warns(BackendDegradedWarning):
        _, outputs = execute_chunk_grid(a, b, grid, workers=2,
                                        backend="process", keep_outputs=True)
    assert_outputs_identical(outputs, baseline)
    assert leaked_shm() == []


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_raising_chunk_events_are_counted(problem, baseline, backend):
    """A progress callback that always raises never fails the run: the
    product stays bit-identical and every swallowed error is counted."""
    from repro.observability.tracer import Tracer

    def broken_observer(cid, stats):
        raise RuntimeError("observer boom")

    a, b, grid = problem
    tracer = Tracer()
    _, outputs = execute_chunk_grid(
        a, b, grid, workers=1 if backend == "serial" else 2, backend=backend,
        keep_outputs=True, tracer=tracer, chunk_events=broken_observer)
    assert_outputs_identical(outputs, baseline)
    assert tracer.counters("faults")["callback_errors"] == grid.num_chunks
