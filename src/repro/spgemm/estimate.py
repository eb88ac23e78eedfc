"""OCEAN-style sampled estimation of SpGEMM output sizes.

The flops upper bound (`upperbound.py`) is cheap but loose: PAPER.md
Section IV.B rejects sizing from it because "the gap between upper
bounds and the actual sizes are really large".  OCEAN replaces the
bound with a sampled estimate: pick k rows of A, compute their *exact*
output nnz with the symbolic kernel, and extrapolate the observed
compression ratio to the unsampled rows.

This module implements that estimator with stratified sampling
(rows are grouped by log2 of their product count, so heavy rows cannot
be drowned out by the many light ones) and variance-aware confidence
bounds: ``row_nnz_hi`` is a one-sided ~97.5% upper confidence estimate,
always clamped to the hard per-row ceiling ``min(ub, n_cols)``.  The
upper bound therefore remains a correctness ceiling; the estimate only
tightens it.

Downstream consumers:

- `core/planner.py` sizes the chunk grid from estimated footprints
  (UB fallback ceiling).
- `core/executor/engine.py` gates the governor's device-OOM pre-check
  and host admission on estimated chunk bytes.
- `repro bench --autotune` picks grid + hybrid ratio from the estimate
  (see `core.planner.plan_autotuned`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.formats import CSRMatrix
from ..sparse.partition import build_col_offsets
from .accumulators import esc_accumulate_rows
from .flops import flops_per_row

__all__ = [
    "DEFAULT_SAMPLE_FRACTION",
    "RowNnzEstimate",
    "ChunkEstimates",
    "estimate_row_nnz",
    "estimate_chunks",
    "hybrid_ratio_from_estimate",
]

DEFAULT_SAMPLE_FRACTION = 0.05
MIN_ROWS_PER_STRATUM = 8
MAX_SAMPLE_ROWS = 4096
Z_CONFIDENCE = 1.96
# Conservative half-width of the compression ratio (which lives in
# (0, 1]) used when a stratum has too few samples for a variance.
DEGENERATE_STDERR = 0.5


@dataclass(frozen=True)
class RowNnzEstimate:
    """Per-row output-nnz estimate for C = A @ B with confidence bounds.

    ``row_nnz`` is the point estimate, ``row_nnz_lo``/``row_nnz_hi`` the
    ~95% confidence band, and ``ub`` the hard flops-based ceiling
    (products per row).  Sampled rows carry their exact counts, so for
    them lo == nnz == hi.  Invariants: ``1 <= row_nnz_hi <= min(ub,
    width)`` wherever ``ub > 0``, and lo <= nnz <= hi everywhere.
    """

    row_nnz: np.ndarray
    row_nnz_lo: np.ndarray
    row_nnz_hi: np.ndarray
    ub: np.ndarray
    width: int
    sampled_rows: np.ndarray
    strata: int
    seed: int

    @property
    def n_rows(self) -> int:
        return int(self.ub.size)

    @property
    def sample_fraction(self) -> float:
        return self.sampled_rows.size / max(self.n_rows, 1)

    @property
    def total_nnz(self) -> float:
        return float(self.row_nnz.sum())

    @property
    def total_nnz_lo(self) -> float:
        return float(self.row_nnz_lo.sum())

    @property
    def total_nnz_hi(self) -> float:
        return float(self.row_nnz_hi.sum())

    def ratio(self) -> np.ndarray:
        """Estimated per-row compression ratio nnz/products in [0, 1]."""
        return self.row_nnz / np.maximum(self.ub, 1)

    def ratio_hi(self) -> np.ndarray:
        return self.row_nnz_hi / np.maximum(self.ub, 1)


def _clamp(values: np.ndarray, ub: np.ndarray, width: int) -> np.ndarray:
    out = np.minimum(values, np.minimum(ub, width))
    active = ub > 0
    out[active] = np.maximum(out[active], 1.0)
    out[~active] = 0.0
    return out


def estimate_row_nnz(
    a: CSRMatrix,
    b: CSRMatrix,
    *,
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
    min_rows_per_stratum: int = MIN_ROWS_PER_STRATUM,
    max_sample_rows: int = MAX_SAMPLE_ROWS,
    z: float = Z_CONFIDENCE,
    seed: int = 0,
) -> RowNnzEstimate:
    """Estimate per-row output nnz of A @ B from a stratified row sample.

    Rows are stratified by ``floor(log2(products))`` so the sample covers
    the whole work distribution; each stratum gets ``sample_fraction`` of
    its rows (at least ``min_rows_per_stratum``, at most
    ``max_sample_rows``).  The sampled rows' exact nnz comes from the ESC
    symbolic accumulator; unsampled rows extrapolate their stratum's mean
    compression ratio with a z-scaled standard-error band (finite
    population corrected, so sampling every row collapses the band to the
    exact answer).
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
    ub = (flops_per_row(a, b) // 2).astype(np.int64)
    width = int(b.n_cols)
    n = int(a.n_rows)
    nnz = np.zeros(n, dtype=np.float64)
    lo = np.zeros(n, dtype=np.float64)
    hi = np.zeros(n, dtype=np.float64)
    active = np.flatnonzero(ub > 0)
    if active.size == 0:
        return RowNnzEstimate(nnz, lo, hi, ub, width, active, 0, seed)

    strata_key = np.floor(np.log2(ub[active])).astype(np.int64)
    labels = np.unique(strata_key)
    rng = np.random.default_rng(seed)
    picked = []
    for label in labels:
        rows_s = active[strata_key == label]
        k = int(np.ceil(sample_fraction * rows_s.size))
        k = max(k, min(min_rows_per_stratum, rows_s.size))
        k = min(k, max_sample_rows, rows_s.size)
        picked.append(rng.choice(rows_s, size=k, replace=False))
    sampled = np.sort(np.concatenate(picked))

    exact = esc_accumulate_rows(a, b, sampled, with_values=False).counts
    exact = exact.astype(np.float64)
    nnz[sampled] = exact
    lo[sampled] = exact
    hi[sampled] = exact

    sampled_mask = np.zeros(n, dtype=bool)
    sampled_mask[sampled] = True
    exact_by_row = np.zeros(n, dtype=np.float64)
    exact_by_row[sampled] = exact
    for label in labels:
        rows_s = active[strata_key == label]
        in_sample = rows_s[sampled_mask[rows_s]]
        rest = rows_s[~sampled_mask[rows_s]]
        if rest.size == 0:
            continue
        ratios = exact_by_row[in_sample] / ub[in_sample]
        mean = float(ratios.mean())
        k, pop = in_sample.size, rows_s.size
        if k > 1:
            fpc = np.sqrt(max(0.0, 1.0 - k / pop))
            stderr = float(ratios.std(ddof=1)) / np.sqrt(k) * fpc
        else:
            stderr = DEGENERATE_STDERR
        r_lo = max(0.0, mean - z * stderr)
        r_hi = min(1.0, mean + z * stderr)
        nnz[rest] = mean * ub[rest]
        lo[rest] = r_lo * ub[rest]
        hi[rest] = r_hi * ub[rest]

    nnz = _clamp(nnz, ub, width)
    hi = _clamp(hi, ub, width)
    lo = np.minimum(_clamp(lo, ub, width), nnz)
    hi = np.maximum(hi, nnz)
    return RowNnzEstimate(nnz, lo, hi, ub, width, sampled, int(labels.size), seed)


@dataclass(frozen=True)
class ChunkEstimates:
    """Per-chunk output-nnz estimates over a chunk grid (row-major ids)."""

    grid: "ChunkGrid"
    nnz: np.ndarray  # (R, C) point estimates
    nnz_hi: np.ndarray  # (R, C) upper confidence estimates
    products: np.ndarray  # (R, C) exact product counts (UB)
    panel_rows: np.ndarray  # rows per row panel

    def _chunk(self, cid: int) -> tuple[int, float, int]:
        rp, cp = self.grid.panel_of(cid)
        rows = int(self.panel_rows[rp])
        return rows, float(self.nnz_hi[rp, cp]), int(self.products[rp, cp])

    def host_bytes(self) -> np.ndarray:
        """Estimated CSR bytes of each chunk's output (row-major cids)."""
        from ..core.chunks import csr_bytes

        out = np.empty(self.nnz.size, dtype=np.int64)
        for cid in range(out.size):
            rows, hi, _ = self._chunk(cid)
            out[cid] = csr_bytes(rows, int(np.ceil(hi)))
        return out

    def device_bytes(self) -> np.ndarray:
        """Estimated device footprint per chunk: hash tables sized from
        the estimate (the OCEAN move) instead of the product count."""
        from ..core.memcheck import chunk_device_bytes

        out = np.empty(self.nnz.size, dtype=np.int64)
        for cid in range(out.size):
            rows, hi, _ = self._chunk(cid)
            out[cid] = chunk_device_bytes(rows, int(np.ceil(hi)))
        return out


def estimate_chunks(
    a: CSRMatrix, b: CSRMatrix, grid: "ChunkGrid", est: RowNnzEstimate
) -> ChunkEstimates:
    """Distribute the per-row estimate over a chunk grid.

    A row's products split across column panels exactly (via B's column
    offsets); its estimated nnz splits proportionally — each chunk gets
    ``ratio_i * products_i[cp]``, clamped to the chunk's dense extent and
    product count.
    """
    row_bounds = grid.row_bounds
    col_bounds = grid.col_bounds
    n_r, n_c = grid.num_row_panels, grid.num_col_panels
    splits = build_col_offsets(b, col_bounds)
    per_row_per_panel = np.diff(splits, axis=1)  # (n_rows_B, C)
    per_elem = per_row_per_panel[a.col_ids, :]  # (nnz_A, C)
    row_ids = a.expand_row_ids()
    ratio = est.ratio()[row_ids]
    ratio_hi = est.ratio_hi()[row_ids]

    nnz = np.zeros((n_r, n_c), dtype=np.float64)
    nnz_hi = np.zeros((n_r, n_c), dtype=np.float64)
    products = np.zeros((n_r, n_c), dtype=np.int64)
    panel_rows = np.diff(row_bounds).astype(np.int64)
    for rp in range(n_r):
        e_lo = int(a.row_offsets[row_bounds[rp]])
        e_hi = int(a.row_offsets[row_bounds[rp + 1]])
        if e_hi == e_lo:
            continue
        block = per_elem[e_lo:e_hi, :]
        products[rp, :] = block.sum(axis=0)
        nnz[rp, :] = (block * ratio[e_lo:e_hi, None]).sum(axis=0)
        nnz_hi[rp, :] = (block * ratio_hi[e_lo:e_hi, None]).sum(axis=0)

    col_widths = np.diff(col_bounds).astype(np.int64)
    dense_extent = panel_rows[:, None] * col_widths[None, :]
    ceiling = np.minimum(products, dense_extent).astype(np.float64)
    nnz = np.minimum(nnz, ceiling)
    nnz_hi = np.minimum(np.maximum(nnz_hi, nnz), ceiling)
    return ChunkEstimates(grid, nnz, nnz_hi, products, panel_rows)


def hybrid_ratio_from_estimate(est: RowNnzEstimate, flops: int, cost) -> float:
    """CPU/GPU hybrid split ratio from the estimated output size.

    Feeds the estimated nnz (not the upper bound) into the cost model's
    compression-ratio-scaled speedup S, returning the paper's optimal
    GPU share S / (S + 1).
    """
    nnz_out = max(int(round(est.total_nnz)), 1)
    speedup = cost.expected_gpu_speedup(max(int(flops), 1), nnz_out)
    return float(np.clip(speedup / (speedup + 1.0), 0.0, 1.0))
