"""Dispatch planning for the chunk executor: ordering, windows, lanes.

These helpers are backend-independent — the same flops-descending order,
bounded in-flight window, and hybrid lane split (paper Algorithm 4)
drive the serial, thread, and process backends alike.  A complete plan —
lanes plus the :class:`~repro.spgemm.kernels.KernelSpec` every chunk
runs with — travels as one :class:`ChunkPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...spgemm.kernels import KernelSpec

__all__ = [
    "BUFFERS_PER_WORKER",
    "ChunkPlan",
    "default_window",
    "chunk_output_estimates",
    "filter_lanes",
    "flops_desc_order",
    "split_by_flop_ratio",
    "split_workers",
    "plan_hybrid_lanes",
]


@dataclass(frozen=True)
class ChunkPlan:
    """A complete dispatch plan for one chunk grid.

    Bundles the hybrid lane partition (``[(chunk_ids, lane_workers), ...]``
    with display names) with the :class:`KernelSpec` every chunk runs
    under, so the whole "what runs where, with which accumulator"
    decision is one value that can be passed to
    :func:`~repro.core.executor.execute_chunk_grid`, logged, or compared.
    ``lanes=None`` keeps the engine's default single-lane planning.
    """

    lanes: Optional[Tuple[Tuple[Tuple[int, ...], int], ...]] = None
    lane_names: Optional[Tuple[str, ...]] = None
    kernel: KernelSpec = field(default_factory=KernelSpec)

    @staticmethod
    def from_hybrid(
        hybrid: Sequence[Tuple[Sequence[int], int, str]],
        kernel: Optional[KernelSpec] = None,
    ) -> "ChunkPlan":
        """Wrap :func:`plan_hybrid_lanes` output into a plan."""
        return ChunkPlan(
            lanes=tuple((tuple(ids), w) for ids, w, _ in hybrid),
            lane_names=tuple(name for _, _, name in hybrid),
            kernel=kernel if kernel is not None else KernelSpec(),
        )

#: per worker, mirror the paper's two device chunk buffers: one chunk in
#: compute, one queued — so the default in-flight window is 2 x workers
BUFFERS_PER_WORKER = 2


def default_window(workers: int) -> int:
    """Default bounded in-flight window (two "device buffers" per worker)."""
    return max(1, BUFFERS_PER_WORKER * max(workers, 1))


def filter_lanes(lanes, lane_names, skip) -> Tuple[list, list]:
    """Drop the chunk ids in ``skip`` from every lane, and drop lanes
    that become empty (with their names).  Lane order, intra-lane chunk
    order, and worker counts are preserved — this is how checkpoint
    resume and backend degradation re-plan only the *remaining* work.
    """
    kept_lanes, kept_names = [], []
    for (ids, lane_workers), name in zip(lanes, lane_names):
        remaining = [cid for cid in ids if cid not in skip]
        if remaining:
            kept_lanes.append((remaining, lane_workers))
            kept_names.append(name)
    return kept_lanes, kept_names


def chunk_output_estimates(a, b, grid, estimate=None) -> List[int]:
    """Pre-execution upper bound on each chunk's host-side output bytes.

    ``nnz_out <= min(products, rows x width)``: a chunk cannot produce
    more nonzeros than its intermediate products, nor more than its
    dense extent.  The host-memory governor reserves these bounds at
    dispatch time, so in-flight + stored chunk bytes stay under budget
    even before the exact symbolic sizes are known.

    ``estimate`` (a :class:`~repro.spgemm.estimate.RowNnzEstimate`)
    replaces the bound with sampled upper-confidence chunk bytes — much
    tighter on high-compression matrices, so admission control stops
    reserving for outputs that cannot materialize.
    """
    from ..chunks import chunk_flops, csr_bytes  # deferred: chunks imports engine

    if estimate is not None:
        from ...spgemm.estimate import estimate_chunks  # deferred: cycle

        return [int(x) for x in estimate_chunks(a, b, grid, estimate).host_bytes()]

    products = chunk_flops(a, b, grid) // 2  # flops = 2 x products
    rows = np.diff(grid.row_bounds)[:, None]
    dense = rows * np.diff(grid.col_bounds)[None, :]
    return csr_bytes(rows, np.minimum(products, dense)).ravel().tolist()


def flops_desc_order(flops_flat: np.ndarray) -> List[int]:
    """Chunk ids by decreasing flops, ties broken by id (Alg. 4 line 14).

    Unlike :meth:`ChunkProfile.order_by_flops_desc` this needs no executed
    profile — chunk flops are computable before any kernel runs, which is
    what lets the executor dispatch heavy chunks first on a cold start.
    """
    flops_flat = np.asarray(flops_flat).ravel()
    return sorted(range(flops_flat.size), key=lambda i: (-int(flops_flat[i]), i))


def split_by_flop_ratio(
    flops_flat: np.ndarray, ratio: float
) -> Tuple[List[int], List[int]]:
    """Algorithm 4's pre-execution split: the flop-densest prefix holding at
    least ``ratio`` of total flops (the "GPU" set, in flops-descending
    order) and the remainder (the "CPU" set).

    Empty work (``total flops == 0``) has defined semantics: no chunk is
    flop-dense, so the "GPU" prefix is empty and *everything* goes to the
    "CPU" set, for any ratio — an all-zero grid never produces a spurious
    split.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must be in [0, 1]")
    order = flops_desc_order(flops_flat)
    flops_flat = np.asarray(flops_flat).ravel()
    total = int(flops_flat.sum())
    if ratio == 0.0 or total == 0:
        return [], order
    acc = 0
    for n, cid in enumerate(order):
        acc += int(flops_flat[cid])
        if acc / total >= ratio:
            return order[: n + 1], order[n + 1 :]
    return order, []


def split_workers(workers: int, ratio: float, *, both_nonempty: bool) -> Tuple[int, int]:
    """Split the worker pool between the two hybrid lanes per the flop
    ratio, keeping at least one worker per non-empty lane.

    A single-worker pool cannot serve two concurrent lanes without 2x
    oversubscription, so ``workers == 1`` with both lanes non-empty
    returns ``(1, 0)``: the second lane gets no concurrent share and the
    caller must serialize the lanes (as :func:`plan_hybrid_lanes` does).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not both_nonempty:
        return workers, workers  # single lane gets the whole pool
    if workers == 1:
        return 1, 0
    first = int(round(workers * ratio))
    first = min(max(first, 1), workers - 1)
    return first, workers - first


def plan_hybrid_lanes(
    flops_flat: np.ndarray, workers: int, ratio: float
) -> List[Tuple[List[int], int, str]]:
    """Plan Algorithm 4's hybrid lanes: ``[(chunk_ids, workers, name), ...]``.

    The flop-densest prefix holding ``ratio`` of the flops forms the
    "gpu" lane, the remainder the "cpu" lane, and the worker pool is
    split between them.  Degenerate cases collapse to one lane: an empty
    split (all flops on one side, or an all-zero grid) hands the whole
    pool to the single non-empty lane, and a single worker *serializes*
    the two chunk sets (gpu prefix first) instead of oversubscribing one
    worker with two concurrent lanes.
    """
    gpu_ids, cpu_ids = split_by_flop_ratio(flops_flat, ratio)
    if workers == 1 and gpu_ids and cpu_ids:
        return [(list(gpu_ids) + list(cpu_ids), 1, "gpu+cpu")]
    gpu_w, cpu_w = split_workers(
        workers, ratio, both_nonempty=bool(gpu_ids and cpu_ids)
    )
    return [
        (list(ids), w, name)
        for ids, w, name in ((gpu_ids, gpu_w, "gpu"), (cpu_ids, cpu_w, "cpu"))
        if ids
    ]
