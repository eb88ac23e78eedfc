"""Kernel choice for the two-phase SpGEMM pipeline.

Two kernels run the paper's symbolic and numeric stages:

``esc``     bhSPARSE-style expand/sort/compress, one vectorized numpy
            batch over all productive rows.
``native``  runtime-compiled C Gustavson kernel (when available).
``auto``    a policy, not a kernel: ``native`` when the toolchain allows
            it, else ``esc``.

Both are *fused*: the symbolic pass already produces values, so the
numeric pass only scatters the cached results into the exact
allocation.  Both combine duplicate products in expansion (ascending
``k``) order and are bit-identical for any float input (see
``docs/KERNELS.md``).  The hash and dense accumulators of
:mod:`repro.spgemm.accumulators` are not dispatched here; the CPU
baselines and the accumulator-crossover ablation call them directly.

* :class:`KernelSpec` — a frozen, string-codable kernel choice that rides
  on :class:`~repro.core.executor.plan.ChunkPlan` and crosses process
  boundaries as ``spec.encode()``;
* :func:`plan_groups` — the one row group a spec runs over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

import numpy as np

from .accumulators import RowResults, esc_accumulate_rows
from .groups import RowGroup, RowGrouping
from .native import native_accumulate_rows, native_available, native_build_error

__all__ = [
    "KERNEL_KINDS",
    "KernelSpec",
    "resolve_kernel",
    "resolved_wire",
    "ACCUMULATORS",
    "accumulate",
    "plan_groups",
]

#: every accepted ``KernelSpec.kind`` / ``--kernel`` value
KERNEL_KINDS = ("auto", "esc", "native")


@dataclass(frozen=True)
class KernelSpec:
    """A kernel choice for one chunk grid (or one multiplication).

    ``kind`` selects the kernel (see module docstring).  The spec
    serializes to its kind via :meth:`encode` so it can ride through
    spawn args to process workers and into trace span attributes.
    """

    kind: str = "auto"

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(
                f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}"
            )

    def encode(self) -> str:
        """Compact wire form, inverse of :meth:`parse`."""
        return self.kind

    @staticmethod
    def parse(text: str) -> "KernelSpec":
        return KernelSpec(kind=text.strip())

    def resolved(self) -> "KernelSpec":
        """The concrete spec ``auto`` resolves to on this toolchain.

        ``auto`` is a *policy*, not a kernel: on a box with a C compiler
        it runs the native Gustavson kernel; without one it runs ESC.
        Artifacts keyed on the kernel (profile caches, recorded
        :class:`~repro.core.chunks.ChunkStats`) must use the resolved
        wire form, or timings from different kernels alias under one key.
        """
        if self.kind == "auto":
            return KernelSpec(kind="native" if native_available() else "esc")
        return self


def resolve_kernel(
    kernel: Union[None, str, KernelSpec],
) -> KernelSpec:
    """Normalize ``None`` / wire string / spec into a :class:`KernelSpec`."""
    if kernel is None:
        return KernelSpec()
    if isinstance(kernel, KernelSpec):
        return kernel
    return KernelSpec.parse(kernel)


def resolved_wire(kernel: Union[None, str, KernelSpec] = None) -> str:
    """Resolved wire form of a kernel choice — the cache key for
    kernel-dependent artifacts (e.g. on-disk chunk profiles)."""
    return resolve_kernel(kernel).resolved().encode()


#: group-method name -> accumulator, uniform signature
ACCUMULATORS: Dict[str, Callable[..., RowResults]] = {
    "esc": esc_accumulate_rows,
    "native": native_accumulate_rows,
}


def accumulate(
    method: str,
    a,
    b,
    rows: np.ndarray,
    work: Optional[np.ndarray],
    *,
    with_values: bool,
    slice_cache=None,
) -> RowResults:
    """Run one registered accumulator over one row group."""
    try:
        fn = ACCUMULATORS[method]
    except KeyError:
        raise ValueError(f"unknown accumulator method {method!r}") from None
    return fn(a, b, rows, work, with_values=with_values, slice_cache=slice_cache)


def plan_groups(work_per_row: np.ndarray, spec: KernelSpec) -> RowGrouping:
    """The row grouping a :class:`KernelSpec` implies: one group of every
    row with nonzero ``work_per_row`` (the upper-bound products per row),
    run by the resolved kernel.  Rows with zero work are never grouped
    (their output rows are empty)."""
    work = np.asarray(work_per_row, dtype=np.int64)
    kind = spec.resolved().kind
    if kind == "native" and not native_available():
        raise RuntimeError(
            f"kernel 'native' requested but unavailable: {native_build_error()}"
        )
    rows = np.flatnonzero(work > 0)
    groups = (RowGroup(rows=rows, method=kind),) if rows.size else ()
    return RowGrouping(groups=groups, n_rows=work.size)
