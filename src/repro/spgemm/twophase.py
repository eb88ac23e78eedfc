"""The full spECK-style in-core SpGEMM kernel (paper Fig. 3).

Pipeline of the three stages the paper describes:

1. **row analysis** — flops per row of ``A`` (device kernel, result shipped
   to the host so it can bin rows);
2. **symbolic execution** — exact output nnz per row, enabling exact
   allocation;
3. **numeric execution** — values placed into that exact allocation.

Which kernel runs is decided by a
:class:`~repro.spgemm.kernels.KernelSpec` (``--kernel`` on the CLI): the
compiled ``native`` Gustavson kernel or the vectorized ESC batch.  Both
are *fused*: they produce values already during the symbolic pass; the
results are cached and the numeric stage only scatters them into the
exact allocation, halving the work while keeping the two-phase structure
(and its stats/spans) intact.

Alongside the result we return :class:`TwoPhaseStats` — everything the
out-of-core scheduler and the simulated-device cost model need: flops,
output nnz/bytes, per-stage kernel-launch counts and wall seconds, and
the sizes of the two intermediate device->host transfers that Section
IV's transfer scheduling reasons about.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE
from ..sparse.ops import RowSliceCache
from .flops import compression_ratio
from .groups import RowGrouping
from .kernels import KernelSpec, accumulate, plan_groups, resolve_kernel
from .numeric import numeric_grouped
from .rowanalysis import RowAnalysis, analyze_rows

__all__ = ["TwoPhaseStats", "TwoPhaseResult", "spgemm_twophase"]


@dataclass(frozen=True)
class TwoPhaseStats:
    """Workload metrics of one in-core SpGEMM invocation."""

    flops: int                  # 2 x intermediate products
    nnz_out: int                # nonzeros of the result
    rows_out: int               # rows of the result (= rows of A panel)
    analysis_bytes: int         # row-analysis result shipped D2H (Fig. 3)
    symbolic_bytes: int         # per-row nnz info shipped D2H
    output_bytes: int           # CSR result chunk shipped D2H
    symbolic_kernels: int       # kernel launches in the symbolic stage
    numeric_kernels: int        # kernel launches in the numeric stage
    input_nnz: int              # nnz(A panel) + nnz(B panel)
    kernel: str = ""            # KernelSpec wire form that produced this
    # measured wall seconds per stage; -1 marks "not measured" (merged
    # stats of resplit subchunks, or records from before these fields)
    analysis_seconds: float = field(default=-1.0, compare=False)
    symbolic_seconds: float = field(default=-1.0, compare=False)
    numeric_seconds: float = field(default=-1.0, compare=False)

    @property
    def compression_ratio(self) -> float:
        return compression_ratio(self.flops, self.nnz_out)


@dataclass(frozen=True)
class TwoPhaseResult:
    matrix: CSRMatrix
    stats: TwoPhaseStats
    analysis: RowAnalysis
    symbolic_grouping: RowGrouping
    numeric_grouping: RowGrouping


def _stage_gauges(tracer, trace_label: str, stats: TwoPhaseStats) -> None:
    """Per-stage throughput gauges: GFLOP/s and bytes/s of each stage.

    GFLOP/s attributes the multiplication's total flops to each stage's
    wall time (the standard way SpGEMM papers quote per-phase rates);
    bytes/s uses the stage's own D2H transfer volume.  Gauges are pure
    observability — skipped entirely when timings are absent.
    """
    for stage, seconds, nbytes in (
        ("analysis", stats.analysis_seconds, stats.analysis_bytes),
        ("symbolic", stats.symbolic_seconds, stats.symbolic_bytes),
        ("numeric", stats.numeric_seconds, stats.output_bytes),
    ):
        if seconds <= 0.0:
            continue
        tracer.gauge(
            f"throughput[{trace_label}]",
            **{
                f"{stage}_gflops": stats.flops / seconds / 1e9,
                f"{stage}_bytes_per_s": nbytes / seconds,
            },
        )


def spgemm_twophase(
    a: CSRMatrix,
    b: CSRMatrix,
    *,
    kernel: Union[None, str, KernelSpec] = None,
    slice_cache: Optional[RowSliceCache] = None,
    tracer=None,
    trace_label: str = "",
    fault_hook=None,
) -> TwoPhaseResult:
    """Multiply ``A x B`` with the full three-stage kernel pipeline.

    ``kernel`` selects the kernel — ``None``, a wire string (``"esc"``,
    ``"native"``), or a :class:`KernelSpec`.  The default ``auto`` uses
    the compiled Gustavson kernel when available and the vectorized ESC
    batch otherwise.  Both kernels produce the same matrix; see
    :mod:`repro.spgemm.kernels` for the bit-identity contract.

    ``slice_cache`` (a :class:`~repro.sparse.ops.RowSliceCache` over ``a``)
    lets sibling invocations sharing the same A panel, as the out-of-core
    chunk executor arranges, reuse the symbolic pass's row-group gather
    instead of re-slicing A.  One is created locally when
    not supplied.

    ``tracer`` (:mod:`repro.observability`) records the three phase
    boundaries as spans named ``analysis[label]`` / ``symbolic[label]`` /
    ``numeric[label]`` — the same labels the schedule simulator uses, so
    measured and simulated phases line up side by side in one trace — plus
    a ``throughput[label]`` gauge with per-stage GFLOP/s and bytes/s.
    Tracing never alters the computation; results are bit-identical with
    it on or off.

    ``fault_hook`` (chaos testing, :mod:`repro.core.executor.faults`) is
    called with the stage name (``analysis`` / ``symbolic`` / ``numeric``)
    at each stage entry; it may sleep, raise, or kill the process.  The
    default ``None`` costs nothing.
    """
    from ..observability import as_tracer  # deferred: avoid import cycles

    tracer = as_tracer(tracer)
    spec = resolve_kernel(kernel)
    # record the *resolved* wire form ("auto" is a policy, not a kernel)
    # so stats and caches never alias timings from different kernels
    wire = spec.resolved().encode()
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    if slice_cache is None:
        slice_cache = RowSliceCache(a)
    elif slice_cache.matrix is not a:
        raise ValueError("slice_cache was built for a different matrix")

    # stage 1: row analysis (flops per row; the host receives this)
    if fault_hook is not None:
        fault_hook("analysis")
    t0 = time.perf_counter()
    with tracer.span(f"analysis[{trace_label}]", "analysis"):
        analysis = analyze_rows(a, b)
    analysis_seconds = time.perf_counter() - t0
    work = analysis.flops // 2  # upper-bound products per row

    # host: hand every productive row to the kernel
    grouping = plan_groups(work, spec)

    # stage 2: symbolic execution — exact nnz per output row.  Both
    # kernels compute values in the same pass; their RowResults are
    # cached so the numeric stage only has to scatter.
    if fault_hook is not None:
        fault_hook("symbolic")
    t0 = time.perf_counter()
    row_nnz = np.zeros(a.n_rows, dtype=INDEX_DTYPE)
    results = []  # RowResults per group, in grouping order
    with tracer.span(f"symbolic[{trace_label}]", "symbolic",
                     kernels=grouping.num_kernels(),
                     kernel=wire):
        for g in grouping:
            res = accumulate(
                g.method, a, b, g.rows, work[g.rows],
                with_values=True, slice_cache=slice_cache,
            )
            results.append(res)
            row_nnz[g.rows] = res.counts
    symbolic_seconds = time.perf_counter() - t0

    # stage 3: numeric execution into the exact allocation
    if fault_hook is not None:
        fault_hook("numeric")
    t0 = time.perf_counter()
    with tracer.span(f"numeric[{trace_label}]", "numeric",
                     kernels=grouping.num_kernels(),
                     kernel=wire):
        c = numeric_grouped(a, b, row_nnz, grouping, results)
    numeric_seconds = time.perf_counter() - t0

    stats = TwoPhaseStats(
        flops=analysis.total_flops,
        nnz_out=c.nnz,
        rows_out=c.n_rows,
        analysis_bytes=analysis.transfer_bytes(),
        symbolic_bytes=int(row_nnz.nbytes),
        output_bytes=c.nbytes(),
        symbolic_kernels=grouping.num_kernels(),
        numeric_kernels=grouping.num_kernels(),
        input_nnz=a.nnz + b.nnz,
        kernel=wire,
        analysis_seconds=analysis_seconds,
        symbolic_seconds=symbolic_seconds,
        numeric_seconds=numeric_seconds,
    )
    _stage_gauges(tracer, trace_label, stats)
    return TwoPhaseResult(
        matrix=c,
        stats=stats,
        analysis=analysis,
        symbolic_grouping=grouping,
        numeric_grouping=grouping,
    )
