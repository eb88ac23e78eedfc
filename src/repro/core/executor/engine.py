"""The pluggable chunk-execution engine: one driver, three backends.

``execute_chunk_grid`` executes every chunk of ``C = A x B`` and
profiles it.  The *driver* here owns everything backend-independent —
operand partitioning, lane planning and validation, bounded-window
semantics, profile assembly, sink serialization — and delegates the
actual chunk runs to an executor backend
(:mod:`repro.core.executor.backends`):

``serial``
    the chunks inline on the calling thread, natural (row-major) order —
    the reference path every other backend must reproduce bit-exactly.
``thread``
    a bounded-window thread pool per lane.  numpy releases the GIL in
    its heavy vectorized loops, so threads overlap partially; dispatch
    and the pure-python kernel glue still serialize on the GIL.  Lowest
    overhead — the right choice for tracing runs and small grids.
``process``
    worker *processes* that own their cores outright (no GIL).  Operand
    panels travel through shared memory once per run
    (:class:`~repro.sparse.shm.SharedCSR`); per-chunk results come back
    through per-chunk shared segments; only small descriptor tuples are
    ever pickled.

Guarantees (all backends):

* **Bit-identical output.**  Chunks touch disjoint output regions and
  each chunk's kernel is deterministic, so any backend, worker count,
  and dispatch order produces exactly the serial result.
* **Deterministic profiles.**  Chunk statistics are reassembled in
  chunk-id order regardless of completion order; only the
  ``measured_seconds`` wall-clock fields vary run to run.
* **Bounded memory.**  At most ``window`` chunks are in flight per lane,
  so peak intermediate memory — including, under the process backend,
  outstanding shared-memory result segments — stays proportional to the
  window, not the grid.

Hybrid execution (paper Algorithm 4) maps onto *lanes*: the flop-densest
chunk prefix — the "GPU" set — gets one slice of the pool, the remainder
— the "CPU" set — the other, and both lanes drain concurrently.
"""

from __future__ import annotations

import threading
import time
import warnings
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...device.memory import DeviceOutOfMemory
from ...observability import as_tracer
from ...sparse.formats import CSRMatrix
from ...sparse.ops import RowSliceCache, vstack
from ...sparse.partition import PanelSet, partition_columns, partition_rows
from ...spgemm.kernels import KernelSpec, resolve_kernel
from ...spgemm.twophase import TwoPhaseStats, spgemm_twophase
from ..chunks import ChunkGrid, ChunkProfile, ChunkStats, chunk_flops, csr_bytes
from ..governor import as_governor
from ..governor.integrity import crc32_matrix
from ..governor.watchdog import (
    ChunkTimeout,
    arm_deadline,
    check_deadline,
    disarm_deadline,
)
from .faults import (
    NO_RETRY,
    BackendDegradedWarning,
    BackendUnavailable,
    RetryPolicy,
    as_injector,
)
from .plan import chunk_output_estimates, default_window, filter_lanes, flops_desc_order

__all__ = ["EXECUTOR_BACKENDS", "resolve_backend_name", "execute_chunk_grid"]

#: the selectable executor backends, in escalation order
EXECUTOR_BACKENDS = ("serial", "thread", "process")

#: graceful-degradation order: if a backend cannot be established, the
#: engine falls back along this chain instead of failing the run
DEGRADATION_CHAIN = {
    "process": ("process", "thread", "serial"),
    "thread": ("thread", "serial"),
    "serial": ("serial",),
}


def resolve_backend_name(
    backend: Optional[str], workers: int, has_lanes: bool
) -> str:
    """Resolve the backend choice, defaulting to the legacy semantics:
    ``workers == 1`` without explicit lanes runs serial inline, anything
    else threads."""
    if backend is None:
        return "serial" if workers == 1 and not has_lanes else "thread"
    if backend not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {EXECUTOR_BACKENDS}"
        )
    return backend


def _merge_seconds(x: float, y: float) -> float:
    """Sum two stage timings, propagating the -1.0 "not measured" mark."""
    return x + y if x >= 0.0 and y >= 0.0 else -1.0


def _merge_twophase(a: TwoPhaseStats, b: TwoPhaseStats) -> TwoPhaseStats:
    """Combine the stats of two row-disjoint sub-chunks of one chunk.
    Additive in every field; ``input_nnz`` double-counts the shared B
    panel, keeping the field an upper bound rather than losing it."""
    return TwoPhaseStats(
        flops=a.flops + b.flops,
        nnz_out=a.nnz_out + b.nnz_out,
        rows_out=a.rows_out + b.rows_out,
        analysis_bytes=a.analysis_bytes + b.analysis_bytes,
        symbolic_bytes=a.symbolic_bytes + b.symbolic_bytes,
        # re-derive from the merged shape: summing the halves would
        # double-count the CSR offset array's +1 sentinel row
        output_bytes=csr_bytes(a.rows_out + b.rows_out,
                               a.nnz_out + b.nnz_out),
        symbolic_kernels=a.symbolic_kernels + b.symbolic_kernels,
        numeric_kernels=a.numeric_kernels + b.numeric_kernels,
        input_nnz=a.input_nnz + b.input_nnz,
        kernel=a.kernel,
        analysis_seconds=_merge_seconds(a.analysis_seconds,
                                        b.analysis_seconds),
        symbolic_seconds=_merge_seconds(a.symbolic_seconds,
                                        b.symbolic_seconds),
        numeric_seconds=_merge_seconds(a.numeric_seconds,
                                       b.numeric_seconds),
    )


class GridJob:
    """Backend-independent shared state of one ``execute_chunk_grid`` run:
    the partitioned operands, per-row-panel slice caches, the stats/output
    slots keyed by chunk id, and the serialized sink."""

    def __init__(
        self,
        grid: ChunkGrid,
        row_panels: PanelSet,
        col_panels: PanelSet,
        *,
        keep_outputs: bool,
        chunk_sink,
        tracer,
        retry: Optional[RetryPolicy] = None,
        faults=None,
        manifest=None,
        crash_budget: int = 0,
        governor=None,
        chunk_products: Optional[Sequence[int]] = None,
        host_estimates: Optional[Sequence[int]] = None,
        kernel: Optional[KernelSpec] = None,
        est_device_bytes: Optional[Sequence[int]] = None,
        chunk_events=None,
    ) -> None:
        self.grid = grid
        #: optional ``fn(chunk_id, ChunkStats)`` called after each chunk
        #: lands durably (post-sink) — the job server streams these as
        #: progress events.  Called from lane/consumer threads; must be
        #: cheap.  A raising observer never corrupts the run: each error
        #: is counted as ``callback_errors`` and the chunk proceeds.
        self.chunk_events = chunk_events
        self.kernel = kernel if kernel is not None else KernelSpec()
        self.row_panels = row_panels
        self.col_panels = col_panels
        self.tracer = tracer
        self.chunk_sink = chunk_sink
        self.keep_outputs = keep_outputs
        self.retry = retry if retry is not None else NO_RETRY
        self.faults = as_injector(faults)
        self.manifest = manifest
        self.crash_budget = crash_budget
        self.governor = governor
        # per-chunk upper-bound intermediate products (device admission)
        # and output-byte estimates (host admission); None when the
        # governor does not police that axis
        self.chunk_products = chunk_products
        self.host_estimates = host_estimates
        # sampled-estimate refinement (spgemm/estimate.py): per-chunk
        # estimated device bytes gate the resplit pre-check (the UB
        # stays the fallback)
        self.est_device_bytes = est_device_bytes
        # recovery bookkeeping: cumulative counters plus per-chunk
        # attempt numbers, shared by every lane thread
        self._fault_lock = threading.Lock()
        self.fault_counters = {"retries": 0, "respawns": 0, "degraded": 0,
                               "timeouts": 0, "resplits": 0, "stale": 0,
                               "avoided_resplits": 0, "callback_errors": 0}
        self._avoided_resplit_cids = set()
        # all chunks of one row panel share one A-slice cache
        self.caches = [
            RowSliceCache(row_panels[rp]) for rp in range(grid.num_row_panels)
        ]
        self.a_panel_bytes = [
            csr_bytes(row_panels[rp].n_rows, row_panels[rp].nnz)
            for rp in range(grid.num_row_panels)
        ]
        self.b_panel_bytes = [
            csr_bytes(col_panels[cp].n_rows, col_panels[cp].nnz)
            for cp in range(grid.num_col_panels)
        ]
        self.stats_by_id: List[Optional[ChunkStats]] = [None] * grid.num_chunks
        self.outputs: Optional[List[List[Optional[CSRMatrix]]]] = None
        if keep_outputs:
            self.outputs = [
                [None] * grid.num_col_panels for _ in range(grid.num_row_panels)
            ]
        self.sink_lock = threading.Lock()

    # ------------------------------------------------------------------
    # governor hooks (deadline, host admission, device fit)
    # ------------------------------------------------------------------
    @property
    def deadline_seconds(self) -> Optional[float]:
        gov = self.governor
        return None if gov is None else gov.deadline_seconds

    def _stage_hook(self, cid: int):
        """Per-chunk stage hook: fault injection composed with the
        cooperative deadline check at every kernel-stage boundary."""
        inj = self.faults.hook_for(cid)
        if self.deadline_seconds is None:
            return inj
        if inj is None:
            return lambda stage: check_deadline(cid)

        def hook(stage):
            check_deadline(cid)
            inj(stage)

        return hook

    def admit_host(self, cid: int, *, may_wait: bool) -> bool:
        """Reserve chunk ``cid``'s estimated host output bytes under the
        governor's budget; ``True`` when dispatch may proceed."""
        gov = self.governor
        if gov is None or gov.hostmem is None or self.host_estimates is None:
            return True
        return gov.hostmem.admit(cid, int(self.host_estimates[cid]),
                                 may_wait=may_wait)

    def release_host(self, cid: int) -> None:
        gov = self.governor
        if gov is not None and gov.hostmem is not None:
            gov.hostmem.release(cid)

    def needs_resplit(self, cid: int) -> bool:
        """Would this chunk's working set overflow the device pool?
        (Pre-dispatch check; such chunks go straight to the re-split
        path instead of being submitted whole.)

        With a sampled estimate attached the check uses the *estimated*
        footprint — chunks the loose flops upper bound would have
        spuriously re-split run whole (counted as ``avoided_resplits``).
        A genuinely overflowing kernel still raises
        :class:`DeviceOutOfMemory` and recovers through the same
        re-split path, so a wrong estimate costs a retry, not
        correctness."""
        gov = self.governor
        if (gov is None or gov.device_pool_bytes is None
                or self.chunk_products is None):
            return False
        rp, _cp = self.grid.panel_of(cid)
        ub_fits = gov.device_fits(self.row_panels[rp].n_rows,
                                  int(self.chunk_products[cid]))
        if self.est_device_bytes is None:
            return not ub_fits
        est_fits = gov.device_fits_bytes(int(self.est_device_bytes[cid]))
        if est_fits and not ub_fits:
            self.note_avoided_resplit(cid)
        return not est_fits

    def note_avoided_resplit(self, cid: int) -> None:
        """Record one chunk the UB pre-check would have re-split but the
        sampled estimate admitted whole (counted once per chunk)."""
        with self._fault_lock:
            if cid in self._avoided_resplit_cids:
                return
            self._avoided_resplit_cids.add(cid)
            self.fault_counters["avoided_resplits"] += 1
            total = self.fault_counters["avoided_resplits"]
        tracer = self.tracer
        if tracer.enabled:
            tracer.bump("faults", avoided_resplits=1)
            tracer.gauge("estimate", avoided_resplits=total)

    # ------------------------------------------------------------------
    # in-process chunk execution (serial + thread backends)
    # ------------------------------------------------------------------
    def run_chunk_local(
        self, cid: int
    ) -> Tuple[int, TwoPhaseStats, CSRMatrix, float]:
        rp, cp = self.grid.panel_of(cid)
        tracer = self.tracer
        deadline = self.deadline_seconds
        t0 = time.perf_counter()
        if deadline is not None:
            arm_deadline(cid, deadline)
        try:
            result = spgemm_twophase(
                self.row_panels[rp], self.col_panels[cp],
                kernel=self.kernel,
                slice_cache=self.caches[rp], tracer=tracer,
                trace_label=str(cid),
                fault_hook=self._stage_hook(cid),
            )
        finally:
            if deadline is not None:
                disarm_deadline(cid)
        elapsed = time.perf_counter() - t0
        if tracer.enabled:
            # cumulative per-row-panel slice-cache behaviour, sampled at
            # each chunk completion (hit/miss/eviction counters + bytes)
            cache = self.caches[rp]
            tracer.gauge(f"slice_cache[{rp}]",
                         hits=cache.hits, misses=cache.misses,
                         evictions=cache.evictions,
                         held_bytes=cache.held_bytes)
        return cid, result.stats, result.matrix, elapsed

    # ------------------------------------------------------------------
    # completion (every backend funnels through here)
    # ------------------------------------------------------------------
    def on_done(self, cid: int, st: TwoPhaseStats, matrix: CSRMatrix,
                elapsed: float) -> None:
        rp, cp = self.grid.panel_of(cid)
        stats = ChunkStats(
            chunk_id=cid,
            row_panel=rp,
            col_panel=cp,
            rows=self.row_panels[rp].n_rows,
            width=self.col_panels[cp].n_cols,
            flops=st.flops,
            a_panel_bytes=self.a_panel_bytes[rp],
            b_panel_bytes=self.b_panel_bytes[cp],
            input_nnz=st.input_nnz,
            nnz_out=st.nnz_out,
            output_bytes=st.output_bytes,
            analysis_bytes=st.analysis_bytes,
            symbolic_bytes=st.symbolic_bytes,
            symbolic_kernels=st.symbolic_kernels,
            numeric_kernels=st.numeric_kernels,
            measured_seconds=elapsed,
            kernel=st.kernel,
            analysis_seconds=st.analysis_seconds,
            symbolic_seconds=st.symbolic_seconds,
            numeric_seconds=st.numeric_seconds,
        )
        if self.faults.enabled:
            self.faults.fire("sink", cid)
        if (self.chunk_sink is not None or self.keep_outputs
                or self.manifest is not None):
            with self.tracer.span(f"sink[{cid}]", "sink", chunk=cid,
                                  bytes=st.output_bytes), self.sink_lock:
                if self.chunk_sink is not None:
                    self.chunk_sink(rp, cp, matrix)
                if self.keep_outputs:
                    self.outputs[rp][cp] = matrix
                # record completion only after the chunk is durably in
                # the sink — the manifest must never point at data that
                # was not written.  The CRC stamped here is what --resume
                # verifies the checkpointed chunk against.
                if self.manifest is not None:
                    self.manifest.mark_done(stats, crc32=crc32_matrix(matrix))
        # the stats slot doubles as the chunk's "completed" flag (for the
        # degradation re-plan and the final missing check), so it too is
        # only filled after a successful sink — a sink-stage failure
        # leaves the chunk marked as remaining work
        self.stats_by_id[cid] = stats
        if self.chunk_events is not None:
            try:
                self.chunk_events(cid, stats)
            except Exception:
                with self._fault_lock:
                    self.fault_counters["callback_errors"] += 1
                if self.tracer.enabled:
                    self.tracer.bump("faults", callback_errors=1)

    # ------------------------------------------------------------------
    # fault tolerance (retry decisions + recovery telemetry)
    # ------------------------------------------------------------------
    def next_retry(self, cid: int, attempt: int,
                   exc: BaseException) -> Optional[float]:
        """Decide whether attempt ``attempt`` of chunk ``cid`` failing
        with ``exc`` should be retried.  Returns the backoff delay to
        wait before the next attempt, or ``None`` to propagate — and
        records the retry as a span + counter bump when it happens."""
        if not self.retry.should_retry(exc, attempt):
            return None
        delay = self.retry.delay_for(attempt, salt=cid)
        with self._fault_lock:
            self.fault_counters["retries"] += 1
        tracer = self.tracer
        if tracer.enabled:
            now = tracer.now()
            # the span covers the backoff window before the next attempt
            tracer.add_span(f"retry[{cid}]", "retry", now, now + delay,
                            chunk=cid, attempt=attempt,
                            error=type(exc).__name__)
            tracer.bump("faults", retries=1)
        return delay

    def run_chunk_with_retry(self, cid: int) -> None:
        """Run one chunk to completion (kernel + sink), retrying failed
        attempts per the policy — the in-process (serial/thread
        single-worker) execution path.

        Host-memory admission brackets the whole chunk lifetime; a
        device-memory overflow (predicted or raised) diverts the chunk
        through the adaptive re-split path instead of a plain retry."""
        self.admit_host(cid, may_wait=True)
        try:
            attempt = 1
            while True:
                try:
                    if self.needs_resplit(cid):
                        self.on_done(*self.run_chunk_resplit(cid))
                    else:
                        self.on_done(*self.run_chunk_local(cid))
                    return
                except DeviceOutOfMemory:
                    # the kernel itself overflowed the pool: recover by
                    # re-splitting rather than re-running the same shape
                    self.on_done(*self.run_chunk_resplit(cid))
                    return
                except BaseException as exc:
                    if isinstance(exc, ChunkTimeout):
                        self.note_timeout(cid, attempt)
                    delay = self.next_retry(cid, attempt, exc)
                    if delay is None:
                        raise
                    if delay > 0:
                        time.sleep(delay)
                    attempt += 1
        finally:
            self.release_host(cid)

    def note_respawn(self, lane: str, worker: str, cid: Optional[int],
                     exitcode, kind: str = "crash") -> None:
        """Record one self-healed worker replacement.  ``kind`` is
        ``"crash"`` (hard death, chunk requeued), ``"timeout"`` (watchdog
        kill of a hung worker) or ``"stale"`` (death after its chunk was
        already delivered/checkpointed — nothing to requeue)."""
        with self._fault_lock:
            self.fault_counters["respawns"] += 1
            if kind == "stale":
                self.fault_counters["stale"] += 1
        tracer = self.tracer
        if tracer.enabled:
            now = tracer.now()
            tracer.add_span(f"respawn[{worker}]", "respawn", now, now,
                            lane=lane, worker=worker, kind=kind,
                            chunk=-1 if cid is None else cid,
                            exitcode=-1 if exitcode is None else exitcode)
            tracer.bump("faults", respawns=1)
            if kind == "stale":
                tracer.bump("faults", stale=1)

    def note_timeout(self, cid: int, attempt: int) -> None:
        """Record one chunk deadline expiry (cooperative or watchdog)."""
        with self._fault_lock:
            self.fault_counters["timeouts"] += 1
        tracer = self.tracer
        if tracer.enabled:
            now = tracer.now()
            tracer.add_span(f"timeout[{cid}]", "timeout", now, now,
                            chunk=cid, attempt=attempt)
            tracer.bump("faults", timeouts=1)

    def note_resplit(self, cid: int, depth: int, rows: int) -> None:
        """Record one device-OOM row-panel halving."""
        with self._fault_lock:
            self.fault_counters["resplits"] += 1
        tracer = self.tracer
        if tracer.enabled:
            now = tracer.now()
            tracer.add_span(f"resplit[{cid}]", "resplit", now, now,
                            chunk=cid, depth=depth, rows=rows)
            tracer.bump("faults", resplits=1)

    # ------------------------------------------------------------------
    # device-OOM recovery: adaptive row-panel re-splitting
    # ------------------------------------------------------------------
    def _sub_fits(self, a_sub: CSRMatrix, b_panel: CSRMatrix) -> bool:
        gov = self.governor
        if gov is None or gov.device_pool_bytes is None:
            return True
        from ..memcheck import panel_row_products

        products = int(panel_row_products(a_sub, b_panel).sum())
        return gov.device_fits(a_sub.n_rows, products)

    def _run_subchunk(self, cid: int, a_sub: CSRMatrix,
                      b_panel: CSRMatrix, depth: int):
        """Run one sub-panel, halving further while the device bound (or
        the kernel itself) says it still does not fit."""
        gov = self.governor
        max_depth = gov.max_resplit_depth if gov is not None else 1
        can_split = a_sub.n_rows > 1 and depth < max_depth
        if can_split and not self._sub_fits(a_sub, b_panel):
            return self._halve(cid, a_sub, b_panel, depth)
        deadline = self.deadline_seconds
        hook = (lambda stage: check_deadline(cid)) if deadline else None
        try:
            result = spgemm_twophase(
                a_sub, b_panel, kernel=self.kernel, tracer=self.tracer,
                trace_label=f"{cid}.s{depth}", fault_hook=hook,
            )
        except DeviceOutOfMemory:
            if not can_split:
                raise
            return self._halve(cid, a_sub, b_panel, depth)
        return result.matrix, result.stats

    def _halve(self, cid: int, a_sub: CSRMatrix, b_panel: CSRMatrix,
               depth: int):
        self.note_resplit(cid, depth, a_sub.n_rows)
        mid = a_sub.n_rows // 2
        top_m, top_s = self._run_subchunk(
            cid, a_sub.row_slice(0, mid), b_panel, depth + 1)
        bot_m, bot_s = self._run_subchunk(
            cid, a_sub.row_slice(mid, a_sub.n_rows), b_panel, depth + 1)
        return vstack([top_m, bot_m]), _merge_twophase(top_s, bot_s)

    def run_chunk_resplit(
        self, cid: int
    ) -> Tuple[int, TwoPhaseStats, CSRMatrix, float]:
        """Recompute chunk ``cid`` as recursively halved row sub-panels
        — the device-OOM recovery path.  Row slices partition the panel,
        each sub-product is deterministic, and :func:`vstack` restores
        row order, so the assembled chunk is bit-identical to the
        unsplit computation."""
        rp, cp = self.grid.panel_of(cid)
        a_panel = self.row_panels[rp]
        b_panel = self.col_panels[cp]
        if a_panel.n_rows <= 1:
            raise DeviceOutOfMemory(
                f"chunk {cid}: a single-row panel still exceeds the "
                "device pool — cannot re-split further"
            )
        deadline = self.deadline_seconds
        t0 = time.perf_counter()
        if deadline is not None:
            arm_deadline(cid, deadline)
        try:
            matrix, st = self._halve(cid, a_panel, b_panel, depth=1)
        finally:
            if deadline is not None:
                disarm_deadline(cid)
        return cid, st, matrix, time.perf_counter() - t0

    def note_degrade(self, from_backend: str, to_backend: str,
                     reason: str) -> None:
        """Record one graceful backend degradation step."""
        with self._fault_lock:
            self.fault_counters["degraded"] += 1
        tracer = self.tracer
        if tracer.enabled:
            now = tracer.now()
            tracer.add_span(f"degrade[{from_backend}->{to_backend}]",
                            "degrade", now, now, reason=reason)
            tracer.bump("faults", degraded=1)

    def note_resume(self, skipped: int, remaining: int) -> None:
        """Record how much work a checkpoint resume skipped."""
        tracer = self.tracer
        if tracer.enabled:
            now = tracer.now()
            tracer.add_span("resume", "resume", now, now,
                            skipped=skipped, remaining=remaining)
            tracer.gauge("resume", skipped=skipped, remaining=remaining)


def run_lanes_concurrently(
    runners: Sequence[Callable[[], None]],
    names: Sequence[str],
) -> None:
    """Drive one runner per lane; lanes > 1 get their own threads and the
    first lane error propagates to the caller."""
    if len(runners) == 1:
        runners[0]()
        return
    errors: List[BaseException] = []

    def lane_main(runner):
        try:
            runner()
        except BaseException as exc:  # propagate to the caller thread
            errors.append(exc)

    threads = [
        # inline lane spans land on this thread-name track
        threading.Thread(target=lane_main, args=(r,), name=names[i])
        for i, r in enumerate(runners)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def execute_chunk_grid(
    a: CSRMatrix,
    b: CSRMatrix,
    grid: ChunkGrid,
    *,
    workers: int = 1,
    window: Optional[int] = None,
    keep_outputs: bool = False,
    chunk_sink=None,
    name: str = "",
    tracer=None,
    backend: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    crash_budget: int = 0,
    faults=None,
    manifest=None,
    resume_stats: Optional[Mapping[int, ChunkStats]] = None,
    governor=None,
    kernel=None,
    plan=None,
    estimate=None,
    chunk_events=None,
    col_panels: Optional[PanelSet] = None,
) -> Tuple[ChunkProfile, Optional[List[List[CSRMatrix]]]]:
    """Execute every chunk of ``C = A x B`` and profile it, concurrently.

    Parameters
    ----------
    workers:
        Worker count.  Under the default backend resolution, ``1`` runs
        the chunks inline in natural (row-major) order — the legacy
        serial behaviour; ``> 1`` dispatches them flops-descending
        through the thread backend.
    backend:
        ``"serial"``, ``"thread"``, ``"process"``, or ``None`` for the
        legacy resolution above.  The process backend runs chunk kernels
        in worker processes that attach the operand panels through
        shared memory (see :mod:`repro.core.executor.backends`); results
        are bit-identical across all backends.
    window:
        Max chunks in flight per lane (default ``2 x workers``, the
        two-buffer analog).  Bounds peak memory held by unconsumed chunk
        outputs — under the process backend this also caps the
        outstanding shared-memory result segments.  Must be >= 1 when
        given: ``0`` would admit nothing (and silently falling back to
        the default hid exactly that), and a negative window would spin
        the dispatch loop forever.
    keep_outputs:
        Return the chunk matrices as ``outputs[row_panel][col_panel]``
        for assembly/verification (default: profile only).
    chunk_sink:
        ``fn(row_panel, col_panel, matrix)`` streaming each chunk out as
        it is produced (e.g. into a :class:`~repro.core.spill.\
DiskChunkStore`) — the host-side analog of the paper's chunk arrival,
        usable when even host memory cannot hold ``C``.  Sink calls are
        serialized under a lock, in completion order.
    tracer:
        A :class:`repro.observability.Tracer` recording the full chunk
        lifecycle — queue wait, analysis/symbolic/numeric phases, sink
        writes — plus lane queue-depth/occupancy and slice-cache
        hit/miss/eviction gauges.  Under the process backend workers
        record spans locally and ship them back in the result
        descriptors for merging, so one trace still covers the whole
        pipeline.  Default is the no-op null tracer; tracing never
        changes results (bit-identical on or off).
    retry:
        A :class:`~repro.core.executor.faults.RetryPolicy`.  A chunk
        attempt that fails with a retryable exception re-enters the
        dispatch queue after the policy's backoff delay instead of
        aborting the run; ``None`` keeps the legacy no-retry behaviour.
        Retries never change results — chunks are deterministic, so a
        re-run produces the identical matrix.
    crash_budget:
        Process backend only: how many hard worker deaths the run
        absorbs by requeueing the in-flight chunk and respawning the
        worker before giving up with ``WorkerCrashed`` (default 0 — any
        crash aborts, the legacy behaviour).
    faults:
        A :class:`~repro.core.executor.faults.FaultInjector` (or spec
        string) for chaos testing; ``None`` reads the ``REPRO_FAULTS``
        environment variable, so fault injection also reaches worker
        processes.
    manifest:
        A :class:`~repro.core.spill.RunManifest` recording each chunk's
        completion (after its sink write) for checkpoint/resume.
    resume_stats:
        ``{chunk_id: ChunkStats}`` of already-completed chunks (from a
        manifest).  Those chunks are skipped — their recorded stats are
        spliced into the profile — and only the remainder executes.
    governor:
        A :class:`~repro.core.governor.Governor` (or
        :class:`~repro.core.governor.GovernorConfig`) policing the run:
        per-chunk deadlines + worker heartbeats (hung chunks raise
        :class:`~repro.core.governor.ChunkTimeout`, retryable), a
        host-memory byte budget gating dispatch (with spill-under-
        pressure when the sink store supports it), and a device-pool
        bound that re-splits oversized chunks instead of submitting
        them.  ``None`` (default) disables all governing — the legacy
        behaviour.  Recovery never changes results: re-split chunks
        reassemble bit-identically via row ``vstack``.
    kernel:
        Kernel every chunk runs with — ``None`` (auto), a
        wire string (``"esc"``), or a
        :class:`~repro.spgemm.kernels.KernelSpec`.  Threaded through
        every backend including process workers; results are identical
        across kernels (see :mod:`repro.spgemm.kernels`).
    plan:
        A :class:`~repro.core.executor.plan.ChunkPlan` bundling the
        kernel spec with an optional explicit lane partition
        ``[(chunk_ids, lane_workers), ...]`` (the hybrid split).  Lanes
        drain concurrently, each with its own bounded window and >= 1
        workers; every chunk id must appear exactly once, and
        ``plan.lane_names`` labels them in traces (default ``lane0``,
        ``lane1``, ...).  Mutually exclusive with ``kernel``.
    estimate:
        A :class:`~repro.spgemm.estimate.RowNnzEstimate` for ``A x B``.
        When given, the governor's host admission and device-OOM
        pre-check consume *estimated* chunk bytes (upper bound as
        fallback ceiling; spurious UB-only resplits are counted as
        ``avoided_resplits``).  Purely a sizing refinement — results
        are bit-identical with or without it.
    chunk_events:
        Optional ``fn(chunk_id, ChunkStats)`` progress callback fired
        after each chunk lands durably (post-sink, in completion order
        per lane).  Runs on lane/consumer threads; exceptions it raises
        never fail the run — each one is counted as ``callback_errors``
        in the tracer's ``faults`` counter.  The job server uses this to
        stream per-chunk completion events to callers.
    col_panels:
        Optional pre-partitioned column panels of ``B`` (a
        :class:`~repro.sparse.partition.PanelSet` from
        :func:`~repro.sparse.partition.partition_columns` with the
        grid's exact ``col_bounds``).  Column partitioning is the
        expensive direction; a sharded run slicing ``A`` across N
        concurrent sub-runs over the *same* ``B`` partitions it once
        and hands every shard the same read-only panels — the
        in-process analog of SUMMA's B broadcast (see
        :mod:`repro.distributed.shard`).  Must describe this exact
        ``b``; the bounds are validated, the content is the caller's
        contract.  ``None`` (default) partitions here.

    This function is re-entrant: all per-run state lives on the
    :class:`GridJob` (a fresh tracer/governor pair per call), cooperative
    deadlines are registered per executing thread, and shared-memory
    prefixes are swept per registering process — so an event loop may
    run many grids concurrently through one process (see
    :mod:`repro.serve`).

    Returns ``(profile, outputs_or_None)``.  The profile's chunks are in
    chunk-id order with per-chunk measured wall times filled in, and the
    profile records the end-to-end measured wall time of the whole grid.
    """
    from .backends import make_backend  # deferred: backends import engine

    tracer = as_tracer(tracer)
    lanes = lane_names = None
    if plan is not None:
        if kernel is not None:
            raise ValueError("pass either plan= or kernel=, not both")
        if plan.lanes is not None:
            lanes = [(list(ids), w) for ids, w in plan.lanes]
        if plan.lane_names is not None:
            lane_names = list(plan.lane_names)
        kernel_spec = plan.kernel
    else:
        kernel_spec = resolve_kernel(kernel)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if window is not None and window < 1:
        raise ValueError(
            f"window must be >= 1 (or None for the default), got {window}"
        )
    backend_name = resolve_backend_name(backend, workers, lanes is not None)
    if backend_name == "serial" and workers > 1:
        raise ValueError(
            "the serial backend runs exactly one worker; use "
            "backend='thread' or 'process' for workers > 1"
        )
    row_panels: PanelSet = partition_rows(a, grid.num_row_panels)
    if col_panels is None:
        col_panels = partition_columns(b, grid.num_col_panels)
    if not np.array_equal(row_panels.boundaries, grid.row_bounds) or not np.array_equal(
        col_panels.boundaries, grid.col_bounds
    ):
        raise ValueError("grid boundaries disagree with panel partitioning")

    num_chunks = grid.num_chunks
    if lanes is None:
        if backend_name == "serial":
            lanes = [(list(range(num_chunks)), 1)]
        elif workers <= 1 and backend_name == "thread":
            lanes = [(list(range(num_chunks)), 1)]
        else:
            order = flops_desc_order(chunk_flops(a, b, grid))
            lanes = [(order, workers)]
    else:
        seen = sorted(cid for ids, _ in lanes for cid in ids)
        if seen != list(range(num_chunks)):
            raise ValueError("lanes must cover every chunk id exactly once")
        bad = [w for _, w in lanes if w < 1]
        if bad:
            raise ValueError(
                f"every lane needs >= 1 workers, got {bad}; a zero-worker "
                "lane means the caller should have serialized the lanes "
                "(see plan_hybrid_lanes)"
            )
    if lane_names is None:
        lane_names = [f"lane{i}" for i in range(len(lanes))]
    elif len(lane_names) != len(lanes):
        raise ValueError("lane_names must match lanes in length")

    gov = as_governor(governor)
    chunk_products = None
    host_estimates = None
    est_device_bytes = None
    if gov is not None:
        gov.bind_tracer(tracer)
        chunk_est = None
        if estimate is not None and (
            gov.device_pool_bytes is not None or gov.hostmem is not None
        ):
            from ...spgemm.estimate import estimate_chunks  # deferred: cycle

            chunk_est = estimate_chunks(a, b, grid, estimate)
        if gov.device_pool_bytes is not None:
            # flops = 2 x products (chunk_flops convention)
            chunk_products = (chunk_flops(a, b, grid).reshape(-1) // 2)
            if chunk_est is not None:
                est_device_bytes = chunk_est.device_bytes()
        if gov.hostmem is not None:
            host_estimates = (chunk_est.host_bytes() if chunk_est is not None
                              else chunk_output_estimates(a, b, grid))

    job = GridJob(
        grid, row_panels, col_panels,
        keep_outputs=keep_outputs, chunk_sink=chunk_sink, tracer=tracer,
        retry=retry, faults=faults, manifest=manifest,
        crash_budget=crash_budget, governor=gov,
        chunk_products=chunk_products, host_estimates=host_estimates,
        kernel=kernel_spec,
        est_device_bytes=est_device_bytes,
        chunk_events=chunk_events,
    )

    # checkpoint resume: splice the recorded stats of already-completed
    # chunks into the job and execute only the remainder
    if resume_stats:
        for cid, stats in resume_stats.items():
            if not 0 <= cid < num_chunks:
                raise ValueError(
                    f"resume stats reference chunk {cid} outside the "
                    f"{num_chunks}-chunk grid"
                )
            if (stats.row_panel, stats.col_panel) != grid.panel_of(cid):
                raise ValueError(
                    f"resume stats for chunk {cid} disagree with the grid "
                    "layout — wrong manifest for this run?"
                )
            job.stats_by_id[cid] = stats
        lanes, lane_names = filter_lanes(lanes, lane_names, set(resume_stats))
        job.note_resume(skipped=len(resume_stats),
                        remaining=num_chunks - len(resume_stats))

    def lane_window(lane_workers: int) -> int:
        return default_window(lane_workers) if window is None else window

    chain = DEGRADATION_CHAIN[backend_name]
    wall_start = time.perf_counter()
    for step, candidate in enumerate(chain):
        # re-plan only the not-yet-completed chunks: after a partial
        # degradation (some lanes ran before the failing backend gave
        # up) the fallback must not re-run finished work
        done = {i for i, s in enumerate(job.stats_by_id) if s is not None}
        run_lanes, run_names = filter_lanes(lanes, lane_names, done)
        if not run_lanes:
            break
        try:
            make_backend(candidate).execute(job, run_lanes, run_names,
                                            lane_window)
            break
        except BackendUnavailable as exc:
            if step + 1 >= len(chain):
                raise
            job.note_degrade(candidate, chain[step + 1], str(exc))
            warnings.warn(
                f"executor backend {candidate!r} unavailable "
                f"({exc.reason}); degrading to {chain[step + 1]!r}",
                BackendDegradedWarning,
                stacklevel=2,
            )
    wall = time.perf_counter() - wall_start

    missing = [i for i, s in enumerate(job.stats_by_id) if s is None]
    if missing:
        raise RuntimeError(f"chunks never completed: {missing[:4]}...")
    profile = ChunkProfile(
        grid=grid,
        chunks=tuple(job.stats_by_id),
        name=name,
        measured_wall_seconds=wall,
    )
    return profile, job.outputs
