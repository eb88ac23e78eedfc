"""Panel-count planning against the device-memory budget.

In the paper's configuration the *inputs* fit in device memory and stay
resident; the output (plus the per-chunk intermediates) is what exceeds
the device.  The planner therefore reserves the resident-input footprint
and picks the smallest chunk grid such that the worst-case *chunk*
footprint — intermediate hash tables sized from the flops upper bound,
plus the worst-case output chunk — fits in the remaining pool
(Section IV.B).  Fewer, larger chunks amortize transfer latency better,
so the planner returns the coarsest grid that fits.

With asynchronous double buffering, *two* chunks are in flight at once,
so the chunk budget is halved.

The search builds one exact :func:`~repro.core.chunks.count_table` per
row-panel count it reaches; every column count's flops are then prefix-sum
lookups, and the chosen grid's flop matrix rides along on the report.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..device.specs import NodeSpec
from ..sparse.formats import CSRMatrix
from ..sparse.partition import panel_boundaries
from .chunks import BYTES_PER_ELEM, ChunkGrid, chunk_flops, count_table, csr_bytes, table_flops

__all__ = [
    "PlanReport",
    "AutotunePlan",
    "chunk_footprint_bytes",
    "estimated_chunk_footprint_bytes",
    "working_set_bytes",
    "plan_grid",
    "plan_autotuned",
]

#: bytes of intermediate state per intermediate product (hash-table slot:
#: key + value at load factor 1/2)
INTERMEDIATE_BYTES_PER_PRODUCT = 32


@dataclass(frozen=True)
class PlanReport:
    """The planner's decision plus the numbers behind it."""

    grid: ChunkGrid
    worst_chunk_bytes: int
    budget_bytes: int
    device_memory: int
    buffers: int
    safety: float
    #: True when chunk footprints were sized from a sampled estimate
    #: (UB-ceilinged) rather than the raw flops upper bound
    estimated: bool = False
    #: the grid's flop matrix, as :func:`~repro.core.chunks.chunk_flops` returns it
    flops: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    @property
    def fits(self) -> bool:
        return self.worst_chunk_bytes <= self.budget_bytes


def chunk_footprint_bytes(rows: int, flops: int) -> int:
    """Worst-case device bytes needed to produce one chunk, beyond the
    resident input panels: intermediates (hash tables over all products)
    plus the worst-case output (every product distinct)."""
    products = flops // 2
    out_upper = csr_bytes(rows, products)
    intermediates = products * INTERMEDIATE_BYTES_PER_PRODUCT
    return intermediates + out_upper


def resident_input_bytes(a: CSRMatrix, b: CSRMatrix, num_col_panels: int) -> int:
    """Device footprint of the resident inputs: all of A (row panels are
    plain slices) and all of B split into column panels (each panel keeps
    its own full-height ``row_offsets`` array)."""
    a_bytes = csr_bytes(a.n_rows, a.nnz)
    b_bytes = b.nnz * BYTES_PER_ELEM + num_col_panels * (b.n_rows + 1) * 8
    return a_bytes + b_bytes


def working_set_bytes(n: int, nnz_in: int, flops: int, nnz_out: int) -> int:
    """Total device working set of ``C = A x B`` run in one piece: both
    inputs, the intermediate structures over all products, and the output.

    This is the quantity that must exceed device memory for the problem to
    be out-of-core; the experiment runner sizes the simulated device from
    it (DESIGN.md substitution table).
    """
    products = flops // 2
    inputs = 2 * csr_bytes(n, nnz_in)
    intermediates = products * INTERMEDIATE_BYTES_PER_PRODUCT
    # the output allocation is sized from the worst case (= products),
    # matching chunk_footprint_bytes; nnz_out bounds it from below
    output = csr_bytes(n, max(products, nnz_out))
    return inputs + intermediates + output


def estimated_chunk_footprint_bytes(rows: int, nnz_hi: float) -> int:
    """Device bytes to produce one chunk when intermediates and output
    are sized from a sampled nnz estimate (OCEAN) instead of the flops
    upper bound.  Callers must still apply the UB ceiling."""
    nnz = np.ceil(nnz_hi).astype(np.int64)
    return nnz * INTERMEDIATE_BYTES_PER_PRODUCT + csr_bytes(rows, nnz)


def _chunk_budget(a: CSRMatrix, b: CSRMatrix, node: NodeSpec, safety: float,
                  buffers: int, num_col_panels: int) -> int:
    """Device bytes per in-flight chunk once the inputs are resident."""
    free = node.gpu.device_memory_bytes - resident_input_bytes(a, b, num_col_panels)
    return int(free * safety) // max(buffers, 1)


def _worst_chunk(rows: np.ndarray, flops: np.ndarray, chunk_est=None) -> int:
    """Largest chunk footprint over a grid's ``(r, c)`` flop matrix (panel
    heights ``rows``); a sampled ``chunk_est`` only ever *tightens* it."""
    footprint = chunk_footprint_bytes(rows[:, None], flops)
    if chunk_est is not None:
        footprint = np.minimum(
            footprint, estimated_chunk_footprint_bytes(rows[:, None], chunk_est.nnz_hi))
    return int(footprint.max())


def _grid_costs(a: CSRMatrix, b: CSRMatrix, grid: ChunkGrid, estimate=None):
    """``(worst chunk bytes, flop matrix)`` of one explicit grid."""
    chunk_est = None
    if estimate is None:
        flops = chunk_flops(a, b, grid)
    else:
        from ..spgemm.estimate import estimate_chunks  # deferred: cycle

        chunk_est = estimate_chunks(a, b, grid, estimate)
        flops = 2 * chunk_est.products  # the same exact sums as chunk_flops
    return _worst_chunk(np.diff(grid.row_bounds), flops, chunk_est), flops


def _costs_by_cols(a: CSRMatrix, b: CSRMatrix, r: int, max_c: int, budget_for) -> dict:
    """``{c: (worst chunk bytes, flop matrix)}`` of the balanced ``r x c``
    grids, from one count table; grids that miss the budget keep no flops."""
    row_bounds = panel_boundaries(a.n_rows, r)
    table = count_table(a, b, row_bounds)
    costs = {}
    for c in range((r + 3) // 4, max_c + 1):
        flops = table_flops(table, panel_boundaries(b.n_cols, c))
        worst = _worst_chunk(np.diff(row_bounds), flops)
        costs[c] = (worst, flops if worst <= budget_for(c) else None)
    return costs


@functools.lru_cache(maxsize=None)
def _candidate_shapes(max_panels: int) -> Tuple[Tuple[int, int], ...]:
    """Grid shapes ``(r, c)`` by increasing chunk count, the most balanced
    first.  Rectangles matter: for band-structured matrices, splitting rows
    harder than columns shrinks the worst chunk at the same chunk count."""
    return tuple((r, c) for _, _, r, c in sorted(
        (r * c, abs(r - c), r, c)
        for r in range(1, max_panels + 1)
        for c in range(1, max_panels + 1)
        if max(r, c) <= 4 * min(r, c)  # keep panel grids balanced
    ))


def plan_grid(
    a: CSRMatrix,
    b: CSRMatrix,
    node: NodeSpec,
    *,
    safety: float = 0.85,
    buffers: int = 2,
    max_panels: int = 64,
    estimate=None,
) -> PlanReport:
    """Smallest square-ish grid whose worst chunk fits the budget.

    ``buffers`` is the number of concurrently resident chunks (2 for the
    asynchronous double-buffered pipeline).  Grids are tried in increasing
    total chunk count, preferring balanced (square) shapes; raises
    ``ValueError`` when even ``max_panels x max_panels`` does not fit.

    ``estimate`` (a :class:`~repro.spgemm.estimate.RowNnzEstimate`)
    switches chunk sizing to estimated footprints with the flops upper
    bound as a hard ceiling — on high-compression matrices this admits a
    much coarser grid than the UB alone would (Section IV.B's complaint
    about loose bounds).
    """
    if not 0 < safety <= 1:
        raise ValueError("safety must be in (0, 1]")
    budget_for = functools.partial(_chunk_budget, a, b, node, safety, buffers)
    by_rows = {}  # row-panel count -> _costs_by_cols
    last_report = None
    for r, c in _candidate_shapes(max_panels):
        if r > a.n_rows or c > b.n_cols or budget_for(c) <= 0:
            continue
        if estimate is None and r not in by_rows:
            by_rows[r] = _costs_by_cols(a, b, r, min(4 * r, max_panels, b.n_cols), budget_for)
        last_report = _report_for_grid(
            a, b, node, ChunkGrid.regular(a.n_rows, b.n_cols, r, c), estimate,
            safety=safety, buffers=buffers, costs=by_rows.get(r, {}).get(c))
        if last_report.fits:
            return last_report
    detail = (f"last candidate: {last_report}" if last_report is not None else
              f"the resident inputs alone take {resident_input_bytes(a, b, 1)} "
              f"of the {node.gpu.device_memory_bytes} device bytes")
    raise ValueError(f"no grid up to {max_panels}x{max_panels} fits the device budget; {detail}")


@dataclass(frozen=True)
class AutotunePlan:
    """Everything ``--autotune`` derives from one sampled estimate:
    the chunk grid (estimated footprints), the hybrid CPU/GPU split
    ratio (estimated output size), and the resolved kernel the trials
    and the run use."""

    report: PlanReport
    estimate: "RowNnzEstimate"  # noqa: F821 — forward ref, see estimate.py
    kernel: "KernelSpec"  # noqa: F821
    ratio: float

    @property
    def grid(self) -> ChunkGrid:
        return self.report.grid


def _report_for_grid(
    a: CSRMatrix,
    b: CSRMatrix,
    node: NodeSpec,
    grid: ChunkGrid,
    estimate,
    *,
    safety: float,
    buffers: int,
    costs=None,
) -> Optional[PlanReport]:
    """Price an explicit grid shape (``costs`` when already known, as
    :func:`_grid_costs` returns them); None when the inputs leave no
    chunk budget."""
    budget = _chunk_budget(a, b, node, safety, buffers, grid.num_col_panels)
    if budget <= 0:
        return None
    worst, flops = costs if costs is not None else _grid_costs(a, b, grid, estimate)
    return PlanReport(
        grid=grid,
        worst_chunk_bytes=worst,
        budget_bytes=budget,
        device_memory=node.gpu.device_memory_bytes,
        buffers=buffers,
        safety=safety,
        estimated=estimate is not None,
        flops=flops,
    )


def _candidate_reports(
    a: CSRMatrix,
    b: CSRMatrix,
    node: NodeSpec,
    estimate,
    *,
    safety: float,
    buffers: int,
    max_panels: int,
) -> List[PlanReport]:
    """The autotune shortlist: estimate-admissible grid shapes worth
    trial-timing.

    The sampled estimate is what makes the shortlist small — only
    shapes whose worst *estimated* chunk fits the budget qualify.  It
    spans the shapes that matter in practice: the estimate-planned
    first fit, the UB-planned default (the baseline to beat), and a
    row-only ladder (r x 1, 2r x 1, 4r x 1) — row splits share the
    resident B panel and avoid re-walking A per column panel, so they
    dominate serial wall time whenever the whole of B fits.
    """
    reports: List[PlanReport] = []
    shapes = set()

    def add(report: Optional[PlanReport]) -> None:
        if report is None or not report.fits:
            return
        shape = (report.grid.num_row_panels, report.grid.num_col_panels)
        if shape not in shapes:
            shapes.add(shape)
            reports.append(report)

    add(plan_grid(a, b, node, safety=safety, buffers=buffers,
                  max_panels=max_panels, estimate=estimate))
    try:
        ub = plan_grid(a, b, node, safety=safety, buffers=buffers,
                       max_panels=max_panels)
    except ValueError:
        ub = None
    add(ub)
    # row-only ladder from the smallest fitting row count
    r0 = None
    for r in range(1, min(max_panels, a.n_rows) + 1):
        grid = ChunkGrid.regular(a.n_rows, b.n_cols, r, 1)
        report = _report_for_grid(a, b, node, grid, estimate,
                                  safety=safety, buffers=buffers)
        if report is not None and report.fits:
            r0 = r
            add(report)
            break
    if r0 is not None:
        for r in (2 * r0, 4 * r0):
            if r > min(max_panels, a.n_rows):
                continue
            grid = ChunkGrid.regular(a.n_rows, b.n_cols, r, 1)
            add(_report_for_grid(a, b, node, grid, estimate,
                                 safety=safety, buffers=buffers))
    return reports


def plan_autotuned(
    a: CSRMatrix,
    b: CSRMatrix,
    node: NodeSpec,
    *,
    cost=None,
    sample_fraction: Optional[float] = None,
    seed: int = 0,
    safety: float = 0.85,
    buffers: int = 2,
    max_panels: int = 64,
    trial=None,
) -> AutotunePlan:
    """One-stop estimation-driven tuning: sample A once, then derive
    grid + hybrid ratio from that single estimate; the kernel is the
    resolved default (``native`` with a C toolchain, else ``esc``).

    ``trial`` enables empirical grid selection: a callable
    ``trial(grid, kernel) -> seconds`` (e.g. one quick serial run) is
    invoked once per shortlisted candidate — the sampled estimate prunes
    the shape space to a handful of admissible grids, the measured trial
    picks the winner.  Without ``trial`` the estimate-planned first fit
    is used directly.
    """
    from ..device.kernels import default_cost_model  # deferred: cycle
    from ..spgemm.estimate import (
        DEFAULT_SAMPLE_FRACTION,
        estimate_row_nnz,
        hybrid_ratio_from_estimate,
    )
    from ..spgemm.flops import total_flops
    from ..spgemm.kernels import KernelSpec

    if sample_fraction is None:
        sample_fraction = DEFAULT_SAMPLE_FRACTION
    est = estimate_row_nnz(a, b, sample_fraction=sample_fraction, seed=seed)
    kernel = KernelSpec().resolved()
    if trial is not None:
        candidates = _candidate_reports(
            a, b, node, est,
            safety=safety, buffers=buffers, max_panels=max_panels,
        )
        report = min(candidates, key=lambda rep: trial(rep.grid, kernel))
    else:
        report = plan_grid(
            a, b, node,
            safety=safety, buffers=buffers, max_panels=max_panels,
            estimate=est,
        )
    if cost is None:
        cost = default_cost_model(node)
    ratio = hybrid_ratio_from_estimate(est, total_flops(a, b), cost)
    return AutotunePlan(report=report, estimate=est, kernel=kernel, ratio=ratio)
