"""Worker-process side of the process executor backend.

Each worker attaches the shared-memory operand panels **once** at
startup (zero-copy :class:`~repro.sparse.shm.SharedCSR` views), builds
its own per-row-panel :class:`~repro.sparse.ops.RowSliceCache`, then
loops on the task queue running :func:`~repro.spgemm.twophase.\
spgemm_twophase` per chunk.  The result chunk is written into a fresh
per-chunk shared-memory segment sized exactly to the computed CSR (the
symbolic phase's exact allocation), so the only pickled payload per
chunk is a small descriptor tuple — stats, segment name, timings, and
(when tracing) the worker-local spans.

Tracing: workers cannot append to the parent's ``Tracer``, so a
:class:`SpanBuffer` records spans/gauges with **raw**
``time.perf_counter()`` stamps (a system-wide monotonic clock,
comparable across processes) and ships them in the result descriptor;
the parent rebases them onto its tracer's t=0 and merges.

Cleanup: a created-but-not-yet-handed-off result segment is tracked in
``_PENDING``; both a ``finally`` block and an ``atexit`` guard unlink it
if the worker dies before handoff.  Hard crashes (``os._exit``,
``SIGKILL``) skip both — those are covered by the parent's run-prefix
sweep (:func:`repro.sparse.shm.cleanup_segments`).
"""

from __future__ import annotations

import atexit
import os
import queue
import threading
import time
import traceback
from typing import Dict, List, Optional, Tuple

from ...sparse.ops import RowSliceCache
from ...sparse.shm import SharedCSR, SharedCSRDescriptor, cleanup_segments

__all__ = ["worker_main", "SpanBuffer"]

#: test hook: a chunk id; the worker executing it dies via ``os._exit``
#: *after* creating its result segment — simulating a hard crash that
#: leaks a segment for the parent's prefix sweep to reclaim.
KILL_CHUNK_ENV = "REPRO_TEST_KILL_CHUNK"

#: test hook: a chunk id; the worker executing it dies via ``os._exit``
#: *after* queueing its ok result but before clearing its claim — the
#: "stale death" window the pool must absorb without requeue or budget
#: charge (the result already made it out).
KILL_AFTER_RESULT_ENV = "REPRO_TEST_KILL_AFTER_RESULT"

#: seconds an idle worker waits on the task queue before checking that
#: its parent is still alive; a worker whose parent was SIGKILLed is
#: re-parented and would otherwise block on the queue forever
PARENT_CHECK_SECONDS = 0.5


def _start_heartbeat(claims, beat_slot: int, interval: float) -> None:
    """Advance this worker's shared heartbeat counter from a daemon
    thread, twice per interval — proof of scheduler-level liveness that
    a chunk stuck in a kernel (or a ``SIGSTOP``-frozen process) stops
    producing, which is exactly what the parent watchdog looks for."""

    def beat() -> None:
        while True:
            claims[beat_slot] = (claims[beat_slot] + 1) % (2 ** 30)
            time.sleep(interval / 2.0)

    threading.Thread(target=beat, daemon=True,
                     name="governor-heartbeat").start()


class SpanBuffer:
    """Tracer look-alike recording raw-clock spans locally in a worker.

    Implements the subset of the :class:`repro.observability.Tracer` API
    the kernels use (``span`` / ``add_span`` / ``gauge`` / ``now``), but
    timestamps are raw ``perf_counter`` values and everything lands in
    plain lists for pickling back to the parent.
    """

    enabled = True

    def __init__(self, lane: str) -> None:
        self.lane = lane
        self.spans: List[Tuple[str, str, str, float, float, dict]] = []
        self.gauges: List[Tuple[str, float, dict]] = []

    def now(self) -> float:
        return time.perf_counter()

    def span(self, name: str, cat: str, *, lane: Optional[str] = None, **args):
        return _BufferSpan(self, name, cat, lane or self.lane, args)

    def add_span(self, name: str, cat: str, start: float, end: float, *,
                 lane: Optional[str] = None, **args) -> None:
        self.spans.append((name, cat, lane or self.lane, start, end, args))

    def gauge(self, name: str, **values: float) -> None:
        self.gauges.append((name, self.now(),
                            {k: float(v) for k, v in values.items()}))

    def drain(self):
        spans, gauges = self.spans, self.gauges
        self.spans, self.gauges = [], []
        return spans, gauges


class _BufferSpan:
    __slots__ = ("_buf", "_name", "_cat", "_lane", "_args", "_start")

    def __init__(self, buf: SpanBuffer, name: str, cat: str, lane: str,
                 args: dict) -> None:
        self._buf = buf
        self._name = name
        self._cat = cat
        self._lane = lane
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_BufferSpan":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._buf.spans.append((
            self._name, self._cat, self._lane,
            self._start, time.perf_counter(), self._args,
        ))


#: result-segment names this worker created but has not handed off yet
_PENDING: Dict[int, str] = {}


def _cleanup_pending() -> None:
    for name in list(_PENDING.values()):
        cleanup_segments(name)
    _PENDING.clear()


def worker_main(
    worker_name: str,
    task_q,
    result_q,
    a_descs: List[SharedCSRDescriptor],
    b_descs: List[SharedCSRDescriptor],
    out_prefix: str,
    trace_enabled: bool,
    cache_max_bytes: Optional[int],
    kernel_spec: Optional[str] = None,
    faults_spec: Optional[str] = None,
    heartbeat_interval: Optional[float] = None,
    claim_slot: Optional[int] = None,
    claims=None,
) -> None:
    """Entry point of one worker process (module-level for spawn support).

    ``faults_spec`` (chaos testing) is the encoded
    :class:`~.faults.FaultInjector` spec string from the parent; falling
    back to the :data:`~.faults.FAULTS_ENV` environment variable keeps
    the hook usable under ``fork`` without any explicit plumbing.  Each
    (re)spawned worker parses its own injector, so per-process ``times``
    counters reset on respawn — exactly-once faults must use a latch.

    ``kernel_spec`` is the encoded :class:`~repro.spgemm.kernels.KernelSpec`
    from the parent — every chunk this worker runs uses it, so results
    stay identical to the serial backend under the same spec.
    """
    from ...spgemm.kernels import resolve_kernel
    from ...spgemm.twophase import spgemm_twophase
    from .faults import FaultInjector

    kernel = resolve_kernel(kernel_spec)
    injector = (FaultInjector.from_string(faults_spec) if faults_spec
                else FaultInjector.from_env())
    kill_chunk = int(os.environ.get(KILL_CHUNK_ENV, -1))
    kill_after_result = int(os.environ.get(KILL_AFTER_RESULT_ENV, -1))
    if (claims is not None and claim_slot is not None
            and heartbeat_interval is not None):
        _start_heartbeat(claims, claim_slot + len(claims) // 2,
                         heartbeat_interval)
    atexit.register(_cleanup_pending)
    attached: List[SharedCSR] = []
    try:
        try:
            row_panels = []
            for d in a_descs:
                s = SharedCSR.attach(d)
                attached.append(s)
                row_panels.append(s.matrix)
            col_panels = []
            for d in b_descs:
                s = SharedCSR.attach(d)
                attached.append(s)
                col_panels.append(s.matrix)
            caches = [RowSliceCache(p, max_bytes=cache_max_bytes)
                      for p in row_panels]
        except BaseException:
            result_q.put(("init_err", worker_name, traceback.format_exc()))
            return
        result_q.put(("ready", worker_name))

        parent = os.getppid()
        while True:
            try:
                task = task_q.get(timeout=PARENT_CHECK_SECONDS)
            except queue.Empty:
                if os.getppid() != parent:
                    break  # orphaned: nobody is left to send work
                continue
            if task is None:
                break
            cid, rp, cp, t_submit_raw, attempt = task
            # claim the chunk in shared memory *first*: a plain store
            # survives any crash, whereas the queue announce below rides
            # a feeder thread that a hard kill may never let flush
            if claims is not None:
                claims[claim_slot] = cid
            # announce before any kill point: the parent requeues this
            # chunk if we die with it in flight
            result_q.put(("start", cid, worker_name))
            buf = SpanBuffer(worker_name) if trace_enabled else None
            try:
                if buf is not None and t_submit_raw is not None:
                    buf.add_span(f"queue_wait[{cid}]", "queue",
                                 t_submit_raw, buf.now(), chunk=cid)
                t0 = time.perf_counter()
                result = spgemm_twophase(
                    row_panels[rp], col_panels[cp], kernel=kernel,
                    slice_cache=caches[rp],
                    tracer=buf, trace_label=str(cid),
                    fault_hook=injector.hook_for(cid),
                )
                elapsed = time.perf_counter() - t0
                if buf is not None:
                    cache = caches[rp]
                    buf.gauge(f"slice_cache[{rp}]@{worker_name}",
                              hits=cache.hits, misses=cache.misses,
                              evictions=cache.evictions,
                              held_bytes=cache.held_bytes)

                # ship the chunk through a per-chunk shared segment sized
                # to the exact CSR (symbolic counts), not through the pipe.
                # The attempt suffix keeps a redo's segment name distinct
                # from one leaked by a crashed earlier attempt.
                seg_name = f"{out_prefix}-o{cid}.{attempt}"
                _PENDING[cid] = seg_name
                out = SharedCSR.create(result.matrix, seg_name)
                out.close()  # parent attaches via the descriptor
                if cid == kill_chunk:
                    os._exit(42)  # test hook: hard crash, segment leaked
                spans, gauges = buf.drain() if buf is not None else ((), ())
                result_q.put((
                    "ok", cid, result.stats, out.descriptor, elapsed,
                    spans, gauges, attempt,
                ))
                # handed off: the parent owns the segment now
                _PENDING.pop(cid, None)
                if cid == kill_after_result:
                    os._exit(42)  # test hook: stale death, claim still set
                if claims is not None:
                    claims[claim_slot] = -1
            except BaseException as exc:
                _cleanup_pending()
                # the exception's type name rides along so the parent can
                # route recoverable classes (device OOM -> re-split)
                # without parsing tracebacks
                result_q.put(("err", cid, traceback.format_exc(), attempt,
                              type(exc).__name__))
                if claims is not None:
                    claims[claim_slot] = -1
    except (KeyboardInterrupt, EOFError, BrokenPipeError):
        pass
    finally:
        _cleanup_pending()
        for s in attached:
            s.close()
