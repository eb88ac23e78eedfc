"""Public entry points of the out-of-core SpGEMM framework.

Typical use::

    from repro.core import run_out_of_core
    from repro.device import v100_node

    node = v100_node(device_memory_bytes=1 << 28)   # scaled device
    result = run_out_of_core(a, a, node)            # C = A @ A, async GPU
    c = result.matrix
    print(result.gflops, result.transfer_fraction)

The ``run_*`` functions execute the real kernels (so ``result.matrix`` is
the exact product) *and* simulate the device timeline; the ``simulate_*``
functions re-schedule an existing :class:`ChunkProfile` without
recomputing — that is how the benchmark harness sweeps schedules cheaply.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..device.kernels import CostModel, default_cost_model
from ..device.specs import NodeSpec, v100_node
from ..sparse.formats import CSRMatrix
from ..spgemm.kernels import resolve_kernel
from ..spgemm.twophase import spgemm_twophase
from .assemble import assemble_chunks
from .chunks import ChunkGrid, ChunkProfile, chunk_flops
from .executor import ChunkPlan, execute_chunk_grid, plan_hybrid_lanes
from .governor import as_governor
from .hybrid import DEFAULT_RATIO, assign_chunks, build_hybrid_engine
from .planner import plan_grid
from .results import RunResult
from .schedule import CPU, build_async_schedule, build_sync_schedule, new_engine

__all__ = [
    "spgemm",
    "simulate_out_of_core",
    "simulate_hybrid",
    "simulate_cpu_baseline",
    "run_out_of_core",
    "run_hybrid",
]


def _resolve_node(node: Optional[NodeSpec]) -> NodeSpec:
    return node if node is not None else v100_node()

def _resolve_cost(node: NodeSpec, cost: Optional[CostModel]) -> CostModel:
    return cost if cost is not None else default_cost_model(node)


def spgemm(a: CSRMatrix, b: CSRMatrix, *, kernel=None) -> CSRMatrix:
    """In-core SpGEMM via the full two-phase kernel (no device simulation).

    ``kernel`` picks the kernel (``None`` = auto; see
    :mod:`repro.spgemm.kernels`) — the product is the same either way.
    """
    return spgemm_twophase(a, b, kernel=kernel).matrix


# ----------------------------------------------------------------------
# simulation-only paths (re-schedule an existing profile)
# ----------------------------------------------------------------------
def simulate_out_of_core(
    profile: ChunkProfile,
    node: Optional[NodeSpec] = None,
    *,
    mode: str = "async",
    order: Union[str, Sequence[int]] = "flops_desc",
    divided_transfers: bool = True,
    allocator: str = "pool",
    input_mode: str = "prestaged",
    cost: Optional[CostModel] = None,
) -> RunResult:
    """Simulate the out-of-core GPU execution of a profiled workload.

    ``mode`` is ``"async"`` (the paper's pipeline) or ``"sync"`` (the
    partitioned-spECK baseline).  ``order`` is ``"flops_desc"``,
    ``"natural"``, or an explicit chunk-id sequence.  ``input_mode`` is
    ``"prestaged"`` (paper measurement), ``"resident"`` (panel loads on
    the timeline, once each) or ``"streamed"`` (panels re-loaded per
    chunk — the arbitrarily-large-inputs extension).
    """
    node = _resolve_node(node)
    cm = _resolve_cost(node, cost)
    if isinstance(order, str):
        if order == "flops_desc":
            order_ids = profile.order_by_flops_desc()
        elif order == "natural":
            order_ids = profile.natural_order()
        else:
            raise ValueError(f"unknown order {order!r}")
    else:
        order_ids = list(order)

    if mode == "sync":
        eng = build_sync_schedule(
            profile, cm, order=order_ids, input_mode=input_mode
        )
    elif mode == "async":
        eng = build_async_schedule(
            profile, cm, order=order_ids,
            divided_transfers=divided_transfers, allocator=allocator,
            input_mode=input_mode,
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    timeline = eng.run()
    return RunResult(
        name=profile.name, mode=mode, timeline=timeline, profile=profile,
        meta={"order": order if isinstance(order, str) else "explicit",
              "divided_transfers": divided_transfers, "allocator": allocator,
              "input_mode": input_mode},
    )


def simulate_hybrid(
    profile: ChunkProfile,
    node: Optional[NodeSpec] = None,
    *,
    ratio: float = DEFAULT_RATIO,
    reorder: bool = True,
    cost: Optional[CostModel] = None,
) -> RunResult:
    """Simulate the hybrid CPU+GPU execution (Algorithm 4)."""
    node = _resolve_node(node)
    cm = _resolve_cost(node, cost)
    assignment = assign_chunks(profile, ratio, reorder=reorder)
    eng = build_hybrid_engine(profile, cm, assignment)
    timeline = eng.run()
    return RunResult(
        name=profile.name, mode="hybrid", timeline=timeline, profile=profile,
        meta={"ratio": ratio, "reorder": reorder,
              "num_gpu_chunks": assignment.num_gpu,
              "gpu_flop_share": assignment.gpu_flop_share},
    )


def simulate_cpu_baseline(
    profile: ChunkProfile,
    node: Optional[NodeSpec] = None,
    *,
    cost: Optional[CostModel] = None,
) -> RunResult:
    """Simulate the multicore CPU baseline: the whole (unpartitioned)
    product on the host — no chunking, no PCIe traffic."""
    node = _resolve_node(node)
    cm = _resolve_cost(node, cost)
    eng = new_engine()
    eng.submit(
        "cpu_full", CPU,
        cm.t_cpu_chunk(profile.total_flops, profile.total_nnz_out),
        stream="cpu", kind="cpu",
    )
    return RunResult(
        name=profile.name, mode="cpu", timeline=eng.run(), profile=profile,
    )


# ----------------------------------------------------------------------
# full runs: real kernels + simulation
# ----------------------------------------------------------------------
def run_out_of_core(
    a: CSRMatrix,
    b: CSRMatrix,
    node: Optional[NodeSpec] = None,
    *,
    mode: str = "async",
    order: Union[str, Sequence[int]] = "flops_desc",
    divided_transfers: bool = True,
    allocator: str = "pool",
    grid: Optional[ChunkGrid] = None,
    keep_output: bool = True,
    chunk_store=None,
    name: str = "",
    cost: Optional[CostModel] = None,
    workers: int = 1,
    window: Optional[int] = None,
    tracer=None,
    backend: Optional[str] = None,
    retry=None,
    crash_budget: int = 0,
    faults=None,
    checkpoint=None,
    resume=None,
    governor=None,
    kernel=None,
) -> RunResult:
    """Out-of-core GPU SpGEMM: compute ``A x B`` chunk by chunk for real,
    and simulate the device timeline of the chosen schedule.

    ``chunk_store`` (see :mod:`repro.core.spill`) receives each chunk as
    it is produced — pass a :class:`~repro.core.spill.DiskChunkStore` when
    even host memory cannot hold the output; combine with
    ``keep_output=False`` and assemble from the store afterwards.

    ``workers`` parallelizes the real chunk kernels on the host (the
    simulated timeline is unaffected); the product is bit-identical for
    any worker count and measured wall times land in ``result.profile``.
    ``backend`` selects the executor (``serial`` / ``thread`` /
    ``process``); see :func:`~repro.core.executor.execute_chunk_grid`.

    ``tracer`` (:mod:`repro.observability`) records the real execution's
    spans — queue wait, kernel phases, sink writes — for Chrome-trace
    export; results are unaffected.

    Fault tolerance and checkpoint/resume:

    ``retry`` (a :class:`~repro.core.executor.RetryPolicy`) re-runs
    failed chunk attempts with backoff; ``crash_budget`` lets the
    process backend absorb hard worker deaths by respawning; ``faults``
    injects chaos-testing failures (see :mod:`repro.core.executor.\
    faults`).  ``checkpoint=PATH`` writes a :class:`~repro.core.spill.\
    RunManifest` recording every completed chunk as the run progresses.
    ``resume=PATH_OR_MANIFEST`` loads such a manifest, validates it
    against the operands/grid, recomputes **only** the unfinished
    chunks, and keeps extending the same manifest — the result is
    bit-identical to an uninterrupted run.  Resuming with
    ``keep_output=True`` requires ``chunk_store`` to hold the previous
    run's chunks (e.g. a :class:`~repro.core.spill.DiskChunkStore` over
    the original spill directory).  Resumed chunks are re-read and
    CRC-verified against the manifest; corrupt or missing ones are
    evicted and recomputed (``meta["corrupt_recomputed"]`` counts them).

    ``governor`` (a :class:`~repro.core.governor.Governor` /
    :class:`~repro.core.governor.GovernorConfig`) adds runtime limits:
    per-chunk deadlines + hung-worker watchdog, a host-memory budget
    with spill-under-pressure, and device-OOM re-splitting — see
    :mod:`repro.core.governor`.
    """
    from .spill import RunManifest, fill_skipped, open_checkpoint

    node = _resolve_node(node)
    if resume is not None and not isinstance(resume, RunManifest):
        resume = RunManifest.load(resume)
    if grid is None:
        grid = resume.grid if resume is not None else plan_grid(a, b, node).grid
    ckpt = open_checkpoint(a, b, grid, chunk_store, checkpoint=checkpoint,
                           resume=resume, keep_output=keep_output)
    governor = as_governor(governor)
    if governor is not None and chunk_store is not None:
        # the store's held bytes join the host-memory ledger, and the
        # governor may squeeze it (spill-under-pressure) when it can
        governor.attach_store(chunk_store)
    profile, outputs = execute_chunk_grid(
        a, b, grid, workers=workers, window=window, keep_outputs=keep_output,
        chunk_sink=None if chunk_store is None else chunk_store.put,
        name=name, tracer=tracer, backend=backend, retry=retry,
        crash_budget=crash_budget, faults=faults, manifest=ckpt.manifest,
        resume_stats=ckpt.resume_stats, governor=governor, kernel=kernel,
    )
    if keep_output and ckpt.resume_stats:
        # the executor skipped these chunks; serve them from the store
        fill_skipped(outputs, grid, ckpt.resume_stats, chunk_store.get)
    result = simulate_out_of_core(
        profile, node, mode=mode, order=order,
        divided_transfers=divided_transfers, allocator=allocator, cost=cost,
    )
    matrix = assemble_chunks(outputs) if keep_output else None
    meta = dict(result.meta)
    meta["workers"] = workers
    if ckpt.resume_stats is not None:
        meta["resumed_chunks"] = len(ckpt.resume_stats)
    if ckpt.corrupt_recomputed:
        meta["corrupt_recomputed"] = ckpt.corrupt_recomputed
    if ckpt.manifest is not None:
        meta["manifest"] = str(ckpt.manifest.path)
        meta["run_id"] = ckpt.manifest.run_id
    return RunResult(
        name=result.name, mode=result.mode, timeline=result.timeline,
        profile=profile, matrix=matrix, meta=meta,
    )


def run_hybrid(
    a: CSRMatrix,
    b: CSRMatrix,
    node: Optional[NodeSpec] = None,
    *,
    ratio: float = DEFAULT_RATIO,
    reorder: bool = True,
    grid: Optional[ChunkGrid] = None,
    keep_output: bool = True,
    name: str = "",
    cost: Optional[CostModel] = None,
    workers: int = 1,
    window: Optional[int] = None,
    tracer=None,
    backend: Optional[str] = None,
    retry=None,
    crash_budget: int = 0,
    faults=None,
    governor=None,
    kernel=None,
) -> RunResult:
    """Hybrid CPU+GPU SpGEMM (Algorithm 4), real compute + simulation.

    With ``workers`` > 1 the worker pool is split between the two chunk
    sets of Algorithm 4: the flop-densest prefix holding ``ratio`` of the
    flops (the "GPU" lane) and the remainder (the "CPU" lane) drain
    concurrently, each behind its own bounded window — the host analog of
    the two devices working simultaneously.  ``backend`` selects the
    executor the lanes run on (``thread`` pool or ``process`` workers).
    ``tracer`` records both lanes' spans under their lane names
    ("gpu" / "cpu")."""
    node = _resolve_node(node)
    flops = None
    if grid is None:
        report = plan_grid(a, b, node)
        grid, flops = report.grid, report.flops
    plan = ChunkPlan(kernel=resolve_kernel(kernel))
    if workers > 1:
        flops = chunk_flops(a, b, grid) if flops is None else flops
        hybrid = plan_hybrid_lanes(flops, workers, ratio)
        plan = ChunkPlan.from_hybrid(hybrid, kernel=plan.kernel)
    profile, outputs = execute_chunk_grid(
        a, b, grid, keep_outputs=keep_output, name=name, window=window,
        tracer=tracer, backend=backend, retry=retry,
        crash_budget=crash_budget, faults=faults, governor=governor,
        plan=plan,
    )
    result = simulate_hybrid(profile, node, ratio=ratio, reorder=reorder, cost=cost)
    matrix = assemble_chunks(outputs) if keep_output else None
    meta = dict(result.meta)
    meta["workers"] = workers
    return RunResult(
        name=result.name, mode=result.mode, timeline=result.timeline,
        profile=profile, matrix=matrix, meta=meta,
    )
