"""Shared fixtures and helpers for the test suite.

Randomized tests derive their RNGs from one session seed so every run is
reproducible: the seed is printed in the pytest header, defaults to
:data:`DEFAULT_TEST_SEED`, and can be overridden with the
``REPRO_TEST_SEED`` environment variable to replay a failure.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, erdos_renyi, rmat
from repro.sparse.ops import drop_explicit_zeros
from repro.spgemm.native import native_available, native_build_error
from repro.spgemm.reference import spgemm_scipy

DEFAULT_TEST_SEED = 20260806

#: skip marker for tests that name the compiled ``native`` kernel
needs_native = pytest.mark.skipif(
    not native_available(),
    reason=f"native kernel unavailable: {native_build_error()}",
)


def _session_seed() -> int:
    return int(os.environ.get("REPRO_TEST_SEED", DEFAULT_TEST_SEED))


def pytest_report_header(config):
    return (f"repro test seed: {_session_seed()} "
            "(override with REPRO_TEST_SEED=<int>)")


@pytest.fixture(scope="session")
def test_seed() -> int:
    """The session's base RNG seed (printed in the pytest header)."""
    return _session_seed()


@pytest.fixture
def make_rng(test_seed):
    """Factory for named, reproducible RNG streams: ``make_rng("x")``
    always yields the same stream for a given session seed, and distinct
    names yield independent streams.  (``zlib.crc32``, not ``hash()`` —
    python string hashing is salted per process.)"""
    import zlib

    def make(name: str = "", offset: int = 0):
        return np.random.default_rng(
            np.random.SeedSequence([test_seed, zlib.crc32(name.encode()), offset])
        )
    return make


@pytest.fixture
def small_dense():
    """A small dense matrix with a known sparsity pattern."""
    return np.array(
        [
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [3.0, 4.0, 0.0, 5.0],
            [0.0, 6.0, 0.0, 7.0],
        ]
    )


@pytest.fixture
def small_csr(small_dense):
    return CSRMatrix.from_dense(small_dense)


@pytest.fixture
def rng(make_rng):
    """The default reproducible RNG stream (see :func:`make_rng`)."""
    return make_rng("default")


@pytest.fixture(params=["er", "rmat", "banded"])
def sample_matrix(request):
    """A family-parameterized small square matrix."""
    if request.param == "er":
        return erdos_renyi(200, 5.0, seed=7)
    if request.param == "rmat":
        return rmat(8, 6.0, seed=8)
    return banded(200, 3, seed=9, fill=0.7)


def random_csr_dense(rng, n_rows=12, n_cols=15, density=0.3):
    """A random dense array plus its CSR form, for oracle comparisons."""
    dense = rng.random((n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) > density] = 0.0
    return dense, CSRMatrix.from_dense(dense)


def assert_equals_scipy_product(candidate: CSRMatrix, a: CSRMatrix, b: CSRMatrix) -> None:
    """Assert ``candidate == A x B`` structurally and numerically."""
    expected = spgemm_scipy(a, b)
    got = drop_explicit_zeros(candidate)
    assert got.shape == expected.shape
    assert got.allclose(expected), (
        f"product mismatch: got nnz={got.nnz}, expected nnz={expected.nnz}"
    )
