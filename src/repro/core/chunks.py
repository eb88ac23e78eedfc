"""Chunk grid, per-chunk workload statistics, and chunk profiling.

The out-of-core framework partitions the output ``C`` into a grid of
*chunks*: chunk ``(i, j)`` is produced from row panel ``A[i]`` and column
panel ``B[j]`` (paper Algorithm 3).  Scheduling decisions — transfer
ordering (Section IV.C), hybrid assignment (Algorithm 4) — are made on
per-chunk workload statistics:

* ``flops`` is computable *before* any SpGEMM runs (Algorithm 4 lines
  6-13, ``GetFlops``): one exact :func:`count_table` per row partition
  makes the flop matrix of *any* column partition a prefix-sum lookup;
* output nnz/bytes are known only after the chunk's kernel has executed;
  :func:`~repro.core.executor.execute_chunk_grid` runs the real kernels
  once and records everything,
  so that every scheduling variant afterwards is a cheap re-simulation of
  the same :class:`ChunkProfile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..sparse.formats import CSRMatrix
from ..sparse.partition import panel_boundaries
from ..spgemm.flops import compression_ratio

__all__ = [
    "STAT_FIELDS",
    "ChunkGrid",
    "ChunkStats",
    "ChunkProfile",
    "chunk_flops",
    "count_table",
    "table_flops",
]

#: the serialized fields of :class:`ChunkStats`, in order — shared by the
#: profile disk cache and the checkpoint run manifest
STAT_FIELDS = (
    "chunk_id", "row_panel", "col_panel", "rows", "width",
    "flops", "a_panel_bytes", "b_panel_bytes", "input_nnz",
    "nnz_out", "output_bytes", "analysis_bytes",
    "symbolic_bytes", "symbolic_kernels", "numeric_kernels",
    "measured_seconds", "kernel",
    "analysis_seconds", "symbolic_seconds", "numeric_seconds",
)

#: bytes per CSR element (int64 column id + float64 value)
BYTES_PER_ELEM = 16
#: bytes per row offset entry
BYTES_PER_ROW = 8


def csr_bytes(n_rows: int, nnz: int) -> int:
    """Storage of a CSR block: offsets + column ids + values."""
    return (n_rows + 1) * BYTES_PER_ROW + nnz * BYTES_PER_ELEM


@dataclass(frozen=True)
class ChunkGrid:
    """The partition of the output into row x column panels."""

    row_bounds: np.ndarray  # len num_row_panels + 1
    col_bounds: np.ndarray  # len num_col_panels + 1

    @classmethod
    def regular(cls, n_rows: int, n_cols: int, num_row_panels: int, num_col_panels: int) -> "ChunkGrid":
        return cls(
            row_bounds=panel_boundaries(n_rows, num_row_panels),
            col_bounds=panel_boundaries(n_cols, num_col_panels),
        )

    @property
    def num_row_panels(self) -> int:
        return self.row_bounds.size - 1

    @property
    def num_col_panels(self) -> int:
        return self.col_bounds.size - 1

    @property
    def num_chunks(self) -> int:
        return self.num_row_panels * self.num_col_panels

    def chunk_id(self, row_panel: int, col_panel: int) -> int:
        """Row-major chunk numbering (Algorithm 4 line 8)."""
        return row_panel * self.num_col_panels + col_panel

    def panel_of(self, chunk_id: int) -> Tuple[int, int]:
        return divmod(chunk_id, self.num_col_panels)


@dataclass(frozen=True)
class ChunkStats:
    """Workload of one output chunk.

    ``flops`` is available pre-execution; the output-side fields are
    filled by profiling (-1 until then).
    """

    chunk_id: int
    row_panel: int
    col_panel: int
    rows: int                 # rows of the chunk (row-panel height)
    width: int                # columns of the chunk (col-panel width)
    flops: int
    a_panel_bytes: int
    b_panel_bytes: int
    input_nnz: int
    nnz_out: int = -1
    output_bytes: int = -1
    analysis_bytes: int = -1
    symbolic_bytes: int = -1
    symbolic_kernels: int = 1
    numeric_kernels: int = 1
    #: measured wall-clock of this chunk's real kernel run (seconds;
    #: -1.0 until executed).  Complements the *modeled* device times the
    #: simulators derive from flops/nnz — metrics can report model error.
    #: Excluded from equality: wall-clock varies run to run while the
    #: workload statistics are deterministic.
    measured_seconds: float = field(default=-1.0, compare=False)
    #: KernelSpec wire form that ran this chunk ("" for pre-execution
    #: stats and records from before kernel dispatch existed)
    kernel: str = field(default="", compare=False)
    #: per-stage measured wall seconds (-1.0 = not measured), same
    #: exclusion-from-equality rationale as measured_seconds
    analysis_seconds: float = field(default=-1.0, compare=False)
    symbolic_seconds: float = field(default=-1.0, compare=False)
    numeric_seconds: float = field(default=-1.0, compare=False)

    @property
    def executed(self) -> bool:
        return self.nnz_out >= 0

    @property
    def measured(self) -> bool:
        return self.measured_seconds >= 0.0

    @property
    def cr(self) -> float:
        """Per-chunk compression ratio (needs profiling)."""
        if not self.executed:
            raise ValueError("chunk not profiled yet")
        return compression_ratio(self.flops, self.nnz_out)


@dataclass(frozen=True)
class ChunkProfile:
    """Everything the simulators need about one (matrix, grid) workload."""

    grid: ChunkGrid
    chunks: Tuple[ChunkStats, ...]
    name: str = ""
    #: measured end-to-end wall-clock of the profiling execution (seconds;
    #: -1.0 when unknown, e.g. profiles loaded from old caches).  With
    #: parallel execution this is *less* than the per-chunk sum.
    #: Excluded from equality, like :attr:`ChunkStats.measured_seconds`.
    measured_wall_seconds: float = field(default=-1.0, compare=False)

    @property
    def total_flops(self) -> int:
        return sum(c.flops for c in self.chunks)

    @property
    def has_measured_times(self) -> bool:
        return bool(self.chunks) and all(c.measured for c in self.chunks)

    @property
    def total_measured_seconds(self) -> float:
        """Sum of per-chunk measured kernel times (CPU work, not wall)."""
        return sum(c.measured_seconds for c in self.chunks if c.measured)

    @property
    def measured_gflops(self) -> float:
        """Throughput against the measured end-to-end wall time."""
        if self.measured_wall_seconds <= 0:
            return 0.0
        return self.total_flops / self.measured_wall_seconds / 1e9

    @property
    def total_nnz_out(self) -> int:
        if not all(c.executed for c in self.chunks):
            raise ValueError("profile not fully executed")
        return sum(c.nnz_out for c in self.chunks)

    @property
    def total_output_bytes(self) -> int:
        return sum(c.output_bytes for c in self.chunks if c.executed)

    def compression_ratio(self) -> float:
        return compression_ratio(self.total_flops, self.total_nnz_out)

    def order_by_flops_desc(self) -> List[int]:
        """Chunk ids sorted by decreasing flops (Section IV.C / Alg. 4
        line 14).  Ties broken by chunk id for determinism."""
        return sorted(range(len(self.chunks)), key=lambda i: (-self.chunks[i].flops, i))

    def natural_order(self) -> List[int]:
        return list(range(len(self.chunks)))

    # ------------------------------------------------------------------
    # (de)serialization — profiles are cached on disk so that scheduling
    # sweeps never recompute the real kernels
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "row_bounds": self.grid.row_bounds.tolist(),
            "col_bounds": self.grid.col_bounds.tolist(),
            "measured_wall_seconds": self.measured_wall_seconds,
            "chunks": [
                {f: getattr(c, f) for f in STAT_FIELDS}
                for c in self.chunks
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ChunkProfile":
        grid = ChunkGrid(
            row_bounds=np.asarray(payload["row_bounds"], dtype=np.int64),
            col_bounds=np.asarray(payload["col_bounds"], dtype=np.int64),
        )
        # profiles cached before timing landed lack the measured fields;
        # ChunkStats defaults fill them with the "unmeasured" sentinel
        chunks = tuple(ChunkStats(**c) for c in payload["chunks"])
        return cls(
            grid=grid, chunks=chunks, name=payload.get("name", ""),
            measured_wall_seconds=payload.get("measured_wall_seconds", -1.0),
        )


def count_table(a: CSRMatrix, b: CSRMatrix, row_bounds: np.ndarray) -> np.ndarray:
    """``table[j, p]``: how many products of ``A x B`` from row panel ``p``
    land in output columns ``< j`` (int64, ``(n_cols(B) + 1, r)``).  It is
    the cumulative sum of ``pattern(B)^T @ U``, with ``U`` the histogram of
    A's column ids per row panel."""
    import scipy.sparse as sp  # deferred: keeps it out of shard-worker start-up

    r = row_bounds.size - 1
    offsets = a.row_offsets[row_bounds]
    hist = np.empty((b.n_rows, r), dtype=np.int64)
    for p in range(r):
        hist[:, p] = np.bincount(a.col_ids[offsets[p]:offsets[p + 1]], minlength=b.n_rows)
    pattern_t = sp.csc_matrix((np.ones(b.nnz, dtype=np.int64), b.col_ids, b.row_offsets),
                              shape=(b.n_cols, b.n_rows))
    table = np.zeros((b.n_cols + 1, r), dtype=np.int64)
    np.cumsum(pattern_t @ hist, axis=0, out=table[1:])
    return table


def table_flops(table: np.ndarray, col_bounds: np.ndarray) -> np.ndarray:
    """The ``(num_row_panels, num_col_panels)`` int64 flop matrix of the
    column partition ``col_bounds``, read off a :func:`count_table`."""
    return 2 * np.ascontiguousarray(np.diff(table[col_bounds], axis=0).T)


def chunk_flops(a: CSRMatrix, b: CSRMatrix, grid: ChunkGrid) -> np.ndarray:
    """Flops of every chunk (``GetFlops`` for the whole grid), as a
    ``(num_row_panels, num_col_panels)`` int64 matrix."""
    return table_flops(count_table(a, b, grid.row_bounds), grid.col_bounds)
