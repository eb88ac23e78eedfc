"""Sharded multi-device execution of the out-of-core chunk grid.

One chunk grid, N simulated devices: the grid's row panels are split
into contiguous *shards*, each shard computes its row strip of
``C = A x B`` through its own :func:`~repro.core.executor.execute_chunk_grid`
run — its own executor backend and worker pool, its own lane budget
(``workers`` / ``window``), its own device pool and deadline governor,
its own tracer stream — while one global scheduler thread-fans the
shards out and one shared :class:`~repro.core.governor.HostMemoryGovernor`
ledger keeps the *node's* host-memory budget enforced across all of
them (each shard admits through a :class:`~repro.core.governor.\
ScopedLedger` view, so local chunk ids never collide).

Why this is bit-identical to the single-device run: shards own whole
row panels, so every chunk is computed from exactly the same
``(A row panel, B column panel)`` pair by exactly the same kernel as in
the unsharded grid — sharding only changes *where* a chunk runs, never
*what* it computes.  Reassembling the shard strips in row order is the
same :func:`~repro.core.assemble.assemble_chunks` call the unsharded
path uses.

``B`` is partitioned into column panels **once** and every shard reads
the same panel objects (the in-process analog of SUMMA's stage
broadcast); the cost the real network would charge for that broadcast —
and for gathering the shard outputs back to the host — is modeled with
the same alpha-beta :class:`~repro.distributed.summa.NetworkModel` the
SUMMA simulator uses, producing a per-shard transfer/compute timeline
(:mod:`repro.distributed.sharding.transfers`).

Fault tolerance composes per shard: each shard may checkpoint to its
own :class:`~repro.core.spill.RunManifest` + :class:`~repro.core.spill.\
DiskChunkStore` under one ``checkpoint_dir``, so killing one shard's
worker pool mid-run loses only that shard's unfinished chunks —
``resume=True`` re-validates every shard manifest, CRC-checks the
stored chunks, recomputes only what is missing, and the assembled
product is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import threading
import traceback as _tb
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.assemble import assemble_chunks
from ..core.chunks import ChunkGrid, ChunkProfile, ChunkStats, chunk_flops
from ..core.executor import execute_chunk_grid
from ..core.executor.faults import default_retryable
from ..core.governor import Governor, GovernorConfig, HostMemoryGovernor
from ..core.governor.integrity import ChunkCorruption, crc32_matrix
from ..core.spill import (Checkpoint, DiskChunkStore, fill_skipped,
                          open_checkpoint)
from ..observability import Tracer
from ..observability.chrome import multi_tracer_events, timeline_events
from ..sparse.formats import CSRMatrix
from ..sparse.partition import PanelSet, panel_boundaries, partition_columns
from .summa import NetworkModel
from .transport import (
    RemoteShardPool,
    TransportDegradedWarning,
    TransportError,
    TransportWorkerLost,
    csr_arrays,
    run_remote_span,
    settings_record,
)

__all__ = [
    "ShardConfig",
    "ShardSpan",
    "ShardRecord",
    "ShardedResult",
    "ShardedRunError",
    "plan_shards",
    "run_sharded",
]


@dataclass(frozen=True)
class ShardConfig:
    """How to run one grid across N simulated devices.

    ``workers`` / ``window`` / ``backend`` are *per shard* — each shard
    gets its own executor pool (the process backend gives every shard
    its own worker processes).  ``governor`` configures each shard's
    private governor (device pool, deadlines, re-split depth), except
    that its ``host_mem_budget_bytes`` is the **node-global** ledger
    all shards share.  ``balance`` picks how row panels map to shards:
    ``"flops"`` cuts at near-equal cumulative flops (LPT-style load
    balance on contiguous spans), ``"panels"`` at near-equal panel
    counts.
    """

    num_shards: int = 2
    workers: int = 1
    backend: Optional[str] = None
    window: Optional[int] = None
    kernel: Optional[str] = None
    governor: Optional[GovernorConfig] = None
    balance: str = "flops"
    network: NetworkModel = field(default_factory=NetworkModel)
    #: ``"local"`` runs every shard in-process (PR 9 behavior);
    #: ``"socket"`` ships each span to a ``repro shard-worker`` process
    #: over the :mod:`~repro.distributed.transport` protocol, replacing
    #: the alpha-beta transfer model with *measured* walls
    transport: str = "local"
    #: socket flavor for auto-spawned workers: ``"unix"`` or ``"tcp"``
    socket_kind: str = "unix"
    #: attach to externally launched workers instead of spawning
    #: (``tcp:HOST:PORT`` / ``unix:PATH`` strings, one per worker)
    worker_addresses: Optional[Tuple[str, ...]] = None
    #: wire heartbeat period (seconds) pushed by each remote worker
    transport_heartbeat: float = 0.25
    #: lease expires after ``transport_heartbeat x lease_grace`` of
    #: total wire silence — the claims-array "2x interval" rule, made
    #: configurable for chaos tests
    lease_grace: float = 3.0
    #: reconnect policy for transient socket loss (None -> the pool's
    #: DEFAULT_RECONNECT); its jitter is deterministic in
    #: ``(attempt, shard id)`` so chaos runs replay byte-identically
    reconnect: Optional[object] = None
    connect_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1 per shard")
        if self.balance not in ("flops", "panels"):
            raise ValueError(
                f"balance must be 'flops' or 'panels', got {self.balance!r}"
            )
        if self.transport not in ("local", "socket"):
            raise ValueError(
                f"transport must be 'local' or 'socket', got {self.transport!r}"
            )
        if self.socket_kind not in ("unix", "tcp"):
            raise ValueError(
                f"socket_kind must be 'unix' or 'tcp', got {self.socket_kind!r}"
            )


@dataclass(frozen=True)
class ShardSpan:
    """One shard's slice of the grid: row panels ``[rp_lo, rp_hi)``."""

    shard_id: int
    rp_lo: int
    rp_hi: int

    @property
    def num_row_panels(self) -> int:
        return self.rp_hi - self.rp_lo


@dataclass
class ShardRecord:
    """What one shard did: workload, timing, and modeled transfers."""

    shard_id: int
    rp_lo: int
    rp_hi: int
    chunks: int = 0
    flops: int = 0
    output_bytes: int = 0
    #: end-to-end wall of this shard's execute_chunk_grid call (includes
    #: contention with the other shards on the test host)
    wall_seconds: float = 0.0
    #: sum of per-chunk measured kernel seconds — the shard's CPU work,
    #: used as its compute span on the simulated device timeline
    compute_seconds: float = 0.0
    #: alpha-beta-modeled bytes this shard moves: the B-panel broadcast
    #: it receives plus the C strip it ships back to the host (shard 0
    #: is co-located with the host and moves nothing)
    transfer_bytes: int = 0
    #: busy fraction of this shard's simulated device over the makespan
    utilization: float = 0.0
    resumed_chunks: int = 0
    corrupt_recomputed: int = 0
    #: ``"local"`` (in-process thread) or ``"socket"`` (remote worker)
    transport: str = "local"
    #: *measured* wall of shipping this shard's operands (A slice + B)
    #: over the socket — replaces the modeled broadcast for socket runs
    bcast_seconds: float = 0.0
    #: *measured* wire seconds of the chunk frames gathered back
    gather_seconds: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    #: successful transport reconnects while driving this span
    reconnects: int = 0
    #: empty, ``"workerN"`` (re-placed on a survivor), or ``"local"``
    #: (degraded to in-process under a TransportDegradedWarning)
    failover: str = ""

    @property
    def transfer_seconds(self) -> float:
        return self.bcast_seconds + self.gather_seconds

    def as_dict(self) -> dict:
        out = {
            "shard": self.shard_id,
            "row_panels": [self.rp_lo, self.rp_hi],
            "chunks": self.chunks,
            "flops": self.flops,
            "output_bytes": self.output_bytes,
            "wall_seconds": self.wall_seconds,
            "compute_seconds": self.compute_seconds,
            "transfer_bytes": self.transfer_bytes,
            "utilization": self.utilization,
            "resumed_chunks": self.resumed_chunks,
            "transport": self.transport,
        }
        if self.transport == "socket":
            out.update({
                "bcast_seconds": self.bcast_seconds,
                "gather_seconds": self.gather_seconds,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "reconnects": self.reconnects,
                "failover": self.failover,
            })
        return out


class ShardedRunError(RuntimeError):
    """One or more shards failed; the survivors' checkpoints are intact.

    ``failures`` maps shard id -> the exception that killed it;
    ``tracebacks`` maps shard id -> that exception's formatted traceback
    (the *remote* traceback when the shard ran on a socket worker, via
    :class:`~repro.distributed.transport.RemoteShardError`) — the
    ``__cause__``-style context that a cross-thread collection would
    otherwise drop.  ``completed`` lists the shards that finished (and,
    when checkpointing, whose chunks are durably on disk).  Re-running
    with ``resume=True`` over the same ``checkpoint_dir`` recomputes
    only the missing chunks.
    """

    def __init__(self, failures: Dict[int, BaseException],
                 completed: Sequence[int]) -> None:
        self.failures = dict(failures)
        self.completed = list(completed)
        self.tracebacks: Dict[int, str] = {}
        for t, exc in self.failures.items():
            remote = getattr(exc, "remote_traceback", None)
            if remote:
                self.tracebacks[t] = remote
            else:
                self.tracebacks[t] = "".join(_tb.format_exception(
                    type(exc), exc, exc.__traceback__))
        names = {t: type(e).__name__ for t, e in sorted(failures.items())}
        super().__init__(
            f"shard(s) {sorted(failures)} failed ({names}); "
            f"shards {sorted(completed)} completed"
        )
        if self.failures:
            # chain the first failure so a bare `raise` still shows a
            # root cause even when the caller ignores .tracebacks
            self.__cause__ = self.failures[min(self.failures)]


@dataclass
class ShardedResult:
    """The assembled product plus everything observable about the run."""

    matrix: Optional[CSRMatrix]
    profile: ChunkProfile
    grid: ChunkGrid
    records: List[ShardRecord]
    tracers: Dict[str, Tracer]
    timeline: object  # simulated transfer/compute Timeline
    num_shards: int
    wall_seconds: float
    ledger_budget_bytes: Optional[int] = None
    ledger_peak_bytes: int = 0
    ledger_overcommits: int = 0

    @property
    def sim_makespan(self) -> float:
        return self.timeline.makespan()

    @property
    def resumed_chunks(self) -> int:
        return sum(r.resumed_chunks for r in self.records)

    @property
    def transfer_bytes_total(self) -> int:
        return sum(r.transfer_bytes for r in self.records)

    @property
    def transport(self) -> str:
        return self.records[0].transport if self.records else "local"

    @property
    def measured_transfer_seconds(self) -> float:
        """Sum of measured socket bcast+gather walls (0.0 for local)."""
        return sum(r.bcast_seconds + r.gather_seconds for r in self.records)

    def trace_events(self) -> List[dict]:
        """Per-shard tracer streams merged one Chrome process each, with
        the simulated device/NIC timeline as a sibling process."""
        events = multi_tracer_events(self.tracers)
        events.extend(timeline_events(
            self.timeline, pid=len(self.tracers) + 1,
            process_name="simulated (shard transfers)",
        ))
        return events


def plan_shards(grid: ChunkGrid, num_shards: int,
                flops: Optional[np.ndarray] = None,
                balance: str = "flops") -> List[ShardSpan]:
    """Cut the grid's row panels into contiguous shard spans.

    ``flops`` is the per-chunk matrix from
    :func:`~repro.core.chunks.chunk_flops`; with ``balance="flops"``
    the cuts land at near-equal cumulative flops so a skewed (power-law)
    grid does not pile all the work on one shard.  Spans are always
    non-empty: ``num_shards`` is clamped to the panel count.
    """
    parts = max(1, min(int(num_shards), grid.num_row_panels))
    n = grid.num_row_panels
    if balance == "flops" and flops is not None and flops.sum() > 0:
        weights = flops.sum(axis=1).astype(float)
        prefix = np.cumsum(weights)
        total = float(prefix[-1])
        bounds = [0]
        for s in range(1, parts):
            target = total * s / parts
            i = int(np.searchsorted(prefix, target, side="left")) + 1
            i = max(i, bounds[-1] + 1)      # every span stays non-empty
            i = min(i, n - (parts - s))     # leave room for later spans
            bounds.append(i)
        bounds.append(n)
    else:
        bounds = panel_boundaries(n, parts).tolist()
    return [ShardSpan(shard_id=s, rp_lo=int(bounds[s]), rp_hi=int(bounds[s + 1]))
            for s in range(parts)]


def _sub_grid(grid: ChunkGrid, span: ShardSpan) -> ChunkGrid:
    """The shard's local grid: its row-bound slice rebased to 0.

    Contiguous slices of a :func:`~repro.sparse.partition.\
    panel_boundaries` split are themselves near-equal splits (the +1
    remainder panels form a prefix), so the engine's own
    ``partition_rows`` reproduces these bounds exactly — verified here
    so an irregular custom grid fails loudly instead of deep inside the
    engine."""
    rb = grid.row_bounds
    sub_bounds = (rb[span.rp_lo:span.rp_hi + 1] - rb[span.rp_lo]).copy()
    n_rows = int(sub_bounds[-1])
    if not np.array_equal(
        sub_bounds, panel_boundaries(n_rows, span.num_row_panels)
    ):
        raise ValueError(
            f"shard {span.shard_id}: row panels {span.rp_lo}..{span.rp_hi} "
            "do not form a near-equal split of their row range — sharding "
            "requires a regular (panel_boundaries) grid"
        )
    return ChunkGrid(row_bounds=sub_bounds, col_bounds=grid.col_bounds)


def run_sharded(
    a: CSRMatrix,
    b: CSRMatrix,
    config: Optional[ShardConfig] = None,
    *,
    grid: Optional[ChunkGrid] = None,
    name: str = "",
    checkpoint_dir=None,
    resume: bool = False,
    shard_faults: Optional[Mapping[int, object]] = None,
    shard_debug: Optional[Mapping[int, Mapping]] = None,
    retry=None,
    crash_budget: int = 0,
    tracer=None,
    keep_output: bool = True,
    worker_pool: Optional[RemoteShardPool] = None,
) -> ShardedResult:
    """Run ``C = A x B`` across N simulated devices (see module docs).

    ``grid`` defaults to a regular split with at least one row panel per
    shard.  ``checkpoint_dir`` enables per-shard manifests + disk chunk
    stores under that directory; ``resume=True`` reloads them and
    recomputes only unfinished chunks.  ``shard_faults`` maps shard id
    -> a fault spec/injector delivered to that shard's run only (chaos
    testing; for socket transport it must be an encoded spec string);
    ``shard_debug`` maps shard id -> transport chaos hooks
    (``{"sever_after": N, "heartbeat_stall": seconds}``) forwarded to
    that shard's remote worker.  ``retry`` / ``crash_budget`` apply to
    every shard; a socket run ships the policy's fields to the workers,
    so its ``retryable`` predicate must be the default.  ``tracer`` is
    the *node* tracer (shared-ledger
    ``host_mem`` gauges land there); each shard additionally gets its
    own stream, all merged by :meth:`ShardedResult.trace_events`.

    With ``config.transport == "socket"`` every span runs on a remote
    ``repro shard-worker`` process driven through ``worker_pool`` (one
    is spawned — and reaped — automatically when neither ``worker_pool``
    nor ``config.worker_addresses`` is given).  Checkpoints stay on the
    node: workers are stateless, so worker death costs only in-flight
    chunks and failover re-placement splices the already-received,
    CRC-verified chunks into a survivor's (or the local fallback's)
    resume set — bit-identical to a run that never failed.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    cfg = config if config is not None else ShardConfig()
    if (cfg.transport == "socket" and retry is not None
            and retry.retryable is not default_retryable):
        raise ValueError(
            "socket transport cannot ship a custom RetryPolicy.retryable "
            "predicate to remote workers; use the default predicate"
        )
    if grid is None:
        rp = max(cfg.num_shards, min(a.n_rows, 2 * cfg.num_shards))
        cp = min(b.n_cols, 2)
        grid = ChunkGrid.regular(a.n_rows, b.n_cols, rp, cp)

    flops = chunk_flops(a, b, grid)
    spans = plan_shards(grid, cfg.num_shards, flops, cfg.balance)
    num_shards = len(spans)
    shard_faults = dict(shard_faults or {})
    shard_debug = dict(shard_debug or {})
    use_socket = cfg.transport == "socket"

    node_tracer = tracer if tracer is not None else Tracer(stream="node")
    gov_config = cfg.governor if cfg.governor is not None else GovernorConfig()
    host_budget = gov_config.host_mem_budget_bytes
    ledger = None
    # the shared host-memory ledger cannot span worker processes; socket
    # runs hand each worker a 1/N share of the budget instead (enforced
    # by that worker's own governor)
    if host_budget is not None and not use_socket:
        ledger = HostMemoryGovernor(host_budget, tracer=node_tracer)

    pool = worker_pool
    owns_pool = False
    if use_socket and pool is None:
        if cfg.worker_addresses:
            pool = RemoteShardPool.connect(
                list(cfg.worker_addresses),
                connect_timeout=cfg.connect_timeout)
        else:
            pool = RemoteShardPool.spawn(
                num_shards, kind=cfg.socket_kind,
                connect_timeout=cfg.connect_timeout)
        owns_pool = True

    # partition B's column panels once; every shard reads the same
    # panels (the in-process stage broadcast — see execute_chunk_grid)
    shared_col_panels: PanelSet = partition_columns(b, grid.num_col_panels)

    ckpt = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if ckpt is not None:
        ckpt.mkdir(parents=True, exist_ok=True)

    records = [ShardRecord(shard_id=s.shard_id, rp_lo=s.rp_lo, rp_hi=s.rp_hi)
               for s in spans]
    tracers: Dict[str, Tracer] = {"node": node_tracer}
    shard_outputs: List[Optional[List[List[Optional[CSRMatrix]]]]] = \
        [None] * num_shards
    shard_profiles: List[Optional[ChunkProfile]] = [None] * num_shards
    failures: Dict[int, BaseException] = {}
    rb = grid.row_bounds

    # the serial backend is single-worker by definition; a lane budget
    # of N means "N per shard" only where a pool exists
    shard_workers = 1 if cfg.backend == "serial" else cfg.workers

    def make_governor(t: int) -> Governor:
        if ledger is None:
            return Governor(gov_config)
        # the scoped view supplies host admission; a per-shard private
        # budget as well would double-govern
        return Governor(
            dataclasses.replace(gov_config, host_mem_budget_bytes=None),
            hostmem=ledger.scoped(f"shard{t}"),
        )

    # the remote worker's executor settings (the run-frame payload)
    remote_governor = cfg.governor
    if remote_governor is not None and host_budget is not None:
        remote_governor = dataclasses.replace(
            remote_governor,
            host_mem_budget_bytes=max(1, int(host_budget) // num_shards))
    worker_config = {
        "workers": shard_workers,
        "window": cfg.window,
        "backend": cfg.backend,
        "kernel": cfg.kernel,
        "crash_budget": crash_budget,
        "retry": settings_record(retry),
        "governor": settings_record(remote_governor),
    }

    def run_span_local(t, shard_tracer, a_shard, sub, store, manifest,
                       resume_stats, faults):
        """Run one span in-process through the ordinary executor."""
        gov = make_governor(t)
        if store is not None:
            gov.attach_store(store)
        return execute_chunk_grid(
            a_shard, b, sub, workers=shard_workers, window=cfg.window,
            keep_outputs=keep_output,
            chunk_sink=None if store is None else store.put,
            name=f"{name}.shard{t}" if name else f"shard{t}",
            tracer=shard_tracer, backend=cfg.backend,
            retry=retry, crash_budget=crash_budget, faults=faults,
            manifest=manifest, resume_stats=resume_stats or None,
            governor=gov, kernel=cfg.kernel,
            col_panels=shared_col_panels,
        )

    def run_span_socket(span, rec, shard_tracer, a_shard, sub,
                        store, manifest, resume_stats):
        """Drive one span over the pool, with failover re-placement.

        Returns ``(profile, outputs)`` shaped exactly like the local
        :func:`~repro.core.executor.execute_chunk_grid` return, so the
        merge/assembly epilogue cannot tell the transports apart.
        """
        t = span.shard_id
        run_name = f"{name}.shard{t}" if name else f"shard{t}"
        completed: Dict[int, ChunkStats] = dict(resume_stats or {})
        outputs: List[List[Optional[CSRMatrix]]] = [
            [None] * sub.num_col_panels for _ in range(sub.num_row_panels)]
        if keep_output and store is not None:
            fill_skipped(outputs, sub, completed, store.get)

        a_meta, a_arrays = csr_arrays(a_shard, prefix="a_")
        b_meta, b_arrays = csr_arrays(b, prefix="b_")
        run_meta = {
            "name": run_name,
            "grid": {"row_bounds": sub.row_bounds.tolist(),
                     "col_bounds": sub.col_bounds.tolist()},
            "config": worker_config,
        }
        run_meta.update(a_meta)
        run_meta.update(b_meta)
        fault = shard_faults.get(t)
        if fault is not None:
            if not isinstance(fault, str):
                raise TypeError(
                    f"shard {t}: socket transport needs an encoded fault "
                    f"spec string, got {type(fault).__name__}"
                )
            run_meta["faults"] = fault
        dbg = shard_debug.get(t)
        if dbg:
            run_meta["debug"] = dict(dbg)
        run_arrays = dict(a_arrays)
        run_arrays.update(b_arrays)

        def on_chunk(stats: ChunkStats, matrix: CSRMatrix,
                     crc: Optional[int]) -> None:
            actual = crc32_matrix(matrix)
            if crc is not None and int(crc) != actual:
                raise ChunkCorruption(
                    f"shard {t} chunk {stats.chunk_id}: worker-side CRC "
                    f"{int(crc):#010x} != node-side {actual:#010x}"
                )
            if store is not None:
                store.put(stats.row_panel, stats.col_panel, matrix)
            if manifest is not None:
                manifest.mark_done(stats, crc32=actual)
            completed[stats.chunk_id] = stats
            if keep_output:
                outputs[stats.row_panel][stats.col_panel] = matrix

        tried: Set[int] = set()
        worker = pool.worker_for(t)
        chaos = True
        last_result = None
        while True:
            tried.add(worker.worker_id)
            meta = dict(run_meta)
            if not chaos:
                # chaos hooks fired on (or died with) the original
                # worker; a re-placed run must not re-inject them
                meta.pop("faults", None)
                meta.pop("debug", None)
            try:
                with worker.lock, shard_tracer.span(
                        f"remote[shard{t}]", "transport",
                        worker=worker.worker_id):
                    last_result = run_remote_span(
                        worker, run_meta=meta, run_arrays=run_arrays,
                        completed=completed, on_chunk=on_chunk,
                        heartbeat_interval=cfg.transport_heartbeat,
                        lease_grace=cfg.lease_grace,
                        reconnect=cfg.reconnect, salt=t,
                        mark_lost=pool.mark_lost,
                    )
            except TransportWorkerLost as lost:
                chaos = False
                candidates = pool.failover_targets(tried)
                if candidates:
                    worker = candidates[0]
                    rec.failover = f"worker{worker.worker_id}"
                    rec.reconnects += 1
                    continue
                warnings.warn(TransportDegradedWarning(
                    f"shard {t}: no live workers left ({lost}); "
                    "re-placing the remaining span in-process"
                ))
                rec.failover = "local"
                # finish in-process, splicing the CRC-verified chunks
                # already received or checkpointed as the resume set —
                # the skip semantics a reconnect uses, so the result
                # stays bit-identical
                profile, outs = run_span_local(
                    t, shard_tracer, a_shard, sub, store, manifest,
                    completed, faults=None)
                if keep_output:
                    fill_skipped(outs, sub, completed,
                                 lambda lrp, cp: outputs[lrp][cp])
                return profile, outs
            rec.bcast_seconds += last_result.bcast_seconds
            rec.gather_seconds += last_result.gather_seconds
            rec.bytes_sent += last_result.bytes_sent
            rec.bytes_received += last_result.bytes_received
            rec.reconnects += last_result.reconnects
            break

        missing = [cid for cid in range(sub.num_chunks)
                   if cid not in completed]
        if missing:
            raise TransportError(
                f"shard {t}: worker reported done but chunks {missing} "
                "never arrived"
            )
        now = shard_tracer.now()
        span_wall = last_result.wall_seconds
        shard_tracer.add_span(
            f"bcast-B[shard{t}]", "transport",
            max(0.0, now - span_wall),
            max(0.0, now - span_wall) + rec.bcast_seconds,
            bytes=rec.bytes_sent)
        shard_tracer.add_span(
            f"gather-C[shard{t}]", "transport",
            max(0.0, now - rec.gather_seconds), now,
            bytes=rec.bytes_received)
        profile = ChunkProfile(
            grid=sub,
            chunks=tuple(completed[cid] for cid in range(sub.num_chunks)),
            name=run_name,
            measured_wall_seconds=span_wall,
        )
        return profile, outputs

    def shard_main(span: ShardSpan) -> None:
        t = span.shard_id
        rec = records[t]
        rec.transport = cfg.transport
        shard_tracer = Tracer(stream=f"shard{t}")
        tracers[f"shard{t}"] = shard_tracer
        a_shard = a.row_slice(int(rb[span.rp_lo]), int(rb[span.rp_hi]))
        sub = _sub_grid(grid, span)
        store = None
        state = Checkpoint()
        if ckpt is not None:
            store = DiskChunkStore(ckpt / f"shard{t}.chunks")
            manifest_path = ckpt / f"shard{t}.manifest.json"
            state = open_checkpoint(
                a_shard, b, sub, store, checkpoint=manifest_path,
                resume=(manifest_path if resume and manifest_path.exists()
                        else None))
            rec.resumed_chunks = len(state.resume_stats or ())
            rec.corrupt_recomputed = state.corrupt_recomputed
        import time as _time

        t0 = _time.perf_counter()
        if use_socket:
            profile, outputs = run_span_socket(
                span, rec, shard_tracer, a_shard, sub,
                store, state.manifest, state.resume_stats)
        else:
            profile, outputs = run_span_local(
                t, shard_tracer, a_shard, sub, store, state.manifest,
                state.resume_stats, faults=shard_faults.get(t))
            if keep_output and state.resume_stats:
                # the engine skipped these; serve them from the checkpoint
                fill_skipped(outputs, sub, state.resume_stats, store.get)
        rec.wall_seconds = _time.perf_counter() - t0
        shard_profiles[t] = profile
        shard_outputs[t] = outputs
        rec.chunks = len(profile.chunks)
        rec.flops = profile.total_flops
        rec.output_bytes = profile.total_output_bytes
        rec.compute_seconds = sum(
            c.measured_seconds for c in profile.chunks if c.measured)

    def shard_guard(span: ShardSpan) -> None:
        try:
            shard_main(span)
        except BaseException as exc:  # collected; peers keep running
            failures[span.shard_id] = exc

    import time as _time

    wall0 = _time.perf_counter()
    try:
        if num_shards == 1:
            shard_guard(spans[0])
        else:
            threads = [
                threading.Thread(target=shard_guard, args=(s,),
                                 name=f"shard{s.shard_id}")
                for s in spans
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
    finally:
        if owns_pool:
            pool.close()
    wall = _time.perf_counter() - wall0

    if failures:
        completed = [t for t in range(num_shards) if shard_profiles[t]]
        raise ShardedRunError(failures, completed)

    # ---- transfer timeline over the per-shard records ----------------
    # socket runs carry *measured* walls; local runs price the in-process
    # broadcast/gather with the alpha-beta model
    if use_socket:
        from .sharding.transfers import measured_transfer_timeline

        timeline = measured_transfer_timeline(records)
    else:
        from .sharding.transfers import shard_transfer_timeline

        timeline = shard_transfer_timeline(
            records, b_bytes=b.nbytes(), network=cfg.network)

    # ---- merge shard profiles back into one global profile -----------
    stats_global: List[Optional[ChunkStats]] = [None] * grid.num_chunks
    for span, profile in zip(spans, shard_profiles):
        for st in profile.chunks:
            grp = span.rp_lo + st.row_panel
            gcid = grid.chunk_id(grp, st.col_panel)
            stats_global[gcid] = dataclasses.replace(
                st, chunk_id=gcid, row_panel=grp)
    merged = ChunkProfile(
        grid=grid, chunks=tuple(stats_global), name=name,
        measured_wall_seconds=wall,
    )

    matrix = None
    if keep_output:
        outputs: List[List[Optional[CSRMatrix]]] = [
            [None] * grid.num_col_panels for _ in range(grid.num_row_panels)
        ]
        for span, outs in zip(spans, shard_outputs):
            for lrp in range(span.num_row_panels):
                outputs[span.rp_lo + lrp] = outs[lrp]
        matrix = assemble_chunks(outputs)

    return ShardedResult(
        matrix=matrix, profile=merged, grid=grid, records=records,
        tracers=tracers, timeline=timeline, num_shards=num_shards,
        wall_seconds=wall,
        ledger_budget_bytes=None if ledger is None else ledger.budget_bytes,
        ledger_peak_bytes=0 if ledger is None else ledger.peak_bytes,
        ledger_overcommits=0 if ledger is None else ledger.overcommits,
    )
