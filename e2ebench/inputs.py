"""Seeded operands, simulated-device sizing and the output oracle.

Every operand is generated with its suite analog's own generator and
parameters (``repro.sparse.suite``) with the seed replaced: workload
seed 0 reproduces the suite matrices exactly, so figures line up with
the ROADMAP baseline table; any other seed gives statistically alike
operands.  Nothing is read from or written to the repository's
``.cache``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.api import spgemm
from repro.core.chunks import csr_bytes
from repro.core.governor.integrity import crc32_matrix
from repro.core.planner import working_set_bytes
from repro.experiments.runner import MIN_DEVICE_MEMORY
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, rmat
from repro.spgemm.flops import total_flops

#: suite analog -> (generator, parameters, suite seed); must match
#: ``repro.sparse.suite`` (pinned by ``tests/test_inputs.py``)
ANALOGS: Dict[str, Tuple[str, dict, int]] = {
    "stokes": ("banded", dict(n=10_000, bandwidth=14, fill=0.32), 101),
    "nlp": ("banded", dict(n=20_000, bandwidth=12, fill=0.6), 303),
    "wiki0206": ("rmat", dict(scale=13, avg_degree=14.0,
                              a=0.45, b=0.22, c=0.22), 21),
    "lj2008": ("rmat", dict(scale=15, avg_degree=4.0,
                            a=0.50, b=0.21, c=0.21), 11),
}

#: tiny stand-ins with the same generators, for the smoke mode
SMOKE_SIZES: Dict[str, dict] = {
    "stokes": dict(n=600),
    "nlp": dict(n=900),
    "wiki0206": dict(scale=8),
    "lj2008": dict(scale=9),
}

#: spacing between the seeds of consecutive workload seeds, so a
#: workload seed never lands on another suite matrix's seed
SEED_STRIDE = 1000


def operand_seed(base: int, seed: int) -> int:
    return base + SEED_STRIDE * seed


def analog(abbr: str, seed: int, *, smoke: bool = False) -> CSRMatrix:
    """The suite analog ``abbr`` under workload ``seed``."""
    family, params, base = ANALOGS[abbr]
    params = dict(params, **(SMOKE_SIZES[abbr] if smoke else {}))
    gen = banded if family == "banded" else rmat
    return gen(**params, seed=operand_seed(base, seed))


def device_memory(a: CSRMatrix, flops: int, nnz_out: int) -> int:
    """``experiments.runner.device_memory_for``'s rule applied to a
    generated operand of ``C = A x A``: the inputs plus half of the
    remaining working set, so the product is genuinely out-of-core."""
    inputs = 2 * csr_bytes(a.n_rows, a.nnz)
    rest = working_set_bytes(a.n_rows, a.nnz, flops, nnz_out) - inputs
    return inputs + max(rest // 2, MIN_DEVICE_MEMORY)


@dataclass(frozen=True)
class Reference:
    """The oracle for one operand pair: in-core product fingerprint,
    checked allclose to scipy once."""

    crc32: int
    nnz: int
    flops: int


def reference(a: CSRMatrix, b: CSRMatrix) -> Reference:
    """In-core product CRC, after checking the product against scipy."""
    product = spgemm(a, b)
    expect = a.to_scipy() @ b.to_scipy()
    diff = abs(product.to_scipy() - expect)
    scale = max(1.0, float(abs(expect).max()) if expect.nnz else 1.0)
    if diff.nnz and float(diff.max()) > 1e-9 * scale:
        raise AssertionError("in-core product disagrees with scipy A @ B")
    return Reference(crc32=crc32_matrix(product), nnz=product.nnz,
                     flops=total_flops(a, b))


def scipy_seconds(a: CSRMatrix, b: CSRMatrix, repeats: int, clock) -> float:
    """Median wall time of scipy ``A @ B`` on the same operands."""
    sa, sb = a.to_scipy(), b.to_scipy()
    times = []
    for _ in range(repeats):
        t0 = clock()
        sa @ sb
        times.append(clock() - t0)
    return float(np.median(times))
