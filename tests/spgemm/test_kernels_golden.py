"""Golden equivalence suite for the kernel interface.

Pins the cross-kernel contract documented in docs/KERNELS.md:

* every kernel kind produces the scipy product on a battery of
  adversarial inputs (empty rows, fully dense rows, single-column
  chunks, duplicate-heavy expansions, rectangular shapes);
* ``esc`` / ``native`` / ``auto`` combine duplicate products in the same
  ascending-``k`` expansion order and are therefore **bit-identical** to
  each other for arbitrary float inputs;
* ``auto`` resolves to a concrete kernel: ``native`` with a C toolchain,
  ``esc`` without one;
* the contract survives the execution engine: every backend x kernel
  combination of :func:`execute_chunk_grid` matches the serial ``esc``
  run bitwise, including under injected chaos faults with retries.
"""

import numpy as np
import pytest

from repro.core.chunks import ChunkGrid
from repro.core.executor import RetryPolicy, execute_chunk_grid
from repro.core.executor.faults import FaultInjector
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, random_csr, rmat
from repro.spgemm import kernels as K
from repro.spgemm.kernels import (
    KERNEL_KINDS,
    KernelSpec,
    plan_groups,
    resolve_kernel,
    resolved_wire,
)
from repro.spgemm.native import native_available
from repro.spgemm.twophase import spgemm_twophase
from tests.conftest import assert_equals_scipy_product, needs_native

#: every accepted kernel kind, native gated on the toolchain
ALL_KERNELS = [
    pytest.param(kind, marks=needs_native) if kind == "native" else kind
    for kind in KERNEL_KINDS
]


@pytest.fixture
def no_native(monkeypatch):
    """A host without a C toolchain, as ``auto`` and ``plan_groups`` see it."""
    monkeypatch.setattr(K, "native_available", lambda: False)


def _with_integer_values(m: CSRMatrix) -> CSRMatrix:
    """Same pattern, small-integer values: float addition is exact, so
    *every* summation order gives bitwise equal results."""
    data = np.floor(m.data * 7.0) - 3.0
    data[data == 0.0] = 1.0
    return CSRMatrix(m.n_rows, m.n_cols, m.row_offsets, m.col_ids, data)


def _empty_rows_matrix() -> CSRMatrix:
    """Half the rows (and the matching B rows) are entirely empty."""
    m = random_csr(40, 40, 160, seed=101)
    dense = m.to_dense()
    dense[::2, :] = 0.0
    dense[:, 1::3] = 0.0
    return CSRMatrix.from_dense(dense)


def _dense_rows_matrix() -> CSRMatrix:
    """A few fully dense rows on top of a sparse background: the widest
    possible accumulator rows."""
    m = random_csr(30, 30, 90, seed=102)
    dense = m.to_dense()
    dense[3, :] = 1.25
    dense[17, :] = -0.5
    return CSRMatrix.from_dense(dense)


def _duplicate_heavy() -> CSRMatrix:
    """Tall expansion, tiny column space: nearly every intermediate
    product is a duplicate, stressing combination order."""
    return random_csr(25, 6, 300, seed=103)


ADVERSARIAL = {
    "empty_rows": lambda: (_empty_rows_matrix(),) * 2,
    "dense_rows": lambda: (_dense_rows_matrix(),) * 2,
    "duplicate_heavy": lambda: (_duplicate_heavy(),
                                random_csr(6, 25, 60, seed=104)),
    "single_column": lambda: (random_csr(20, 15, 70, seed=105),
                              random_csr(15, 1, 10, seed=106)),
    "single_row_b": lambda: (random_csr(12, 1, 9, seed=107),
                             random_csr(1, 18, 12, seed=108)),
    "rectangular": lambda: (random_csr(18, 33, 120, seed=109),
                            random_csr(33, 9, 80, seed=110)),
    "all_empty": lambda: (CSRMatrix.empty(8, 8),) * 2,
    "identity": lambda: (CSRMatrix.identity(16),) * 2,
    "rmat": lambda: (rmat(7, 6.0, seed=111),) * 2,
    "banded": lambda: (banded(90, 5, seed=112, fill=0.7),) * 2,
}


@pytest.fixture(params=sorted(ADVERSARIAL), name="ab")
def _ab(request):
    return ADVERSARIAL[request.param]()


class TestGoldenVsScipy:
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_matches_scipy(self, ab, kernel):
        a, b = ab
        r = spgemm_twophase(a, b, kernel=kernel)
        assert_equals_scipy_product(r.matrix, a, b)

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_integer_data_bit_identical_to_scipy(self, ab, kernel):
        """On integer-valued data float addition is exact, so every
        kernel must match scipy *bitwise*."""
        from repro.sparse.ops import drop_explicit_zeros
        from repro.spgemm.reference import spgemm_scipy

        a, b = ab
        a, b = _with_integer_values(a), _with_integer_values(b)
        # ours keeps structural entries that cancelled to exact 0.0;
        # scipy prunes them — compare after the same pruning
        got = drop_explicit_zeros(spgemm_twophase(a, b, kernel=kernel).matrix)
        expected = spgemm_scipy(a, b)
        np.testing.assert_array_equal(got.row_offsets, expected.row_offsets)
        np.testing.assert_array_equal(got.col_ids, expected.col_ids)
        np.testing.assert_array_equal(got.data, expected.data)


def _assert_bitwise(ref: CSRMatrix, got: CSRMatrix, msg: str) -> None:
    np.testing.assert_array_equal(ref.row_offsets, got.row_offsets,
                                  err_msg=msg)
    np.testing.assert_array_equal(ref.col_ids, got.col_ids, err_msg=msg)
    np.testing.assert_array_equal(ref.data, got.data, err_msg=msg)


class TestCrossKernelBitIdentity:
    def test_exact_family_bit_identical_on_floats(self, ab):
        """esc / native / auto share expansion-order summation:
        byte-identical products for arbitrary floats."""
        a, b = ab
        ref = spgemm_twophase(a, b, kernel="esc").matrix
        kinds = [k for k in KERNEL_KINDS if k != "native" or native_available()]
        for kind in kinds:
            _assert_bitwise(ref, spgemm_twophase(a, b, kernel=kind).matrix,
                            kind)

    def test_auto_without_native_runs_esc(self, ab, no_native):
        a, b = ab
        ref = spgemm_twophase(a, b, kernel="esc").matrix
        r = spgemm_twophase(a, b, kernel="auto")
        assert r.stats.kernel == "esc"
        _assert_bitwise(ref, r.matrix, "auto")


class TestKernelSpec:
    def test_defaults(self):
        assert KernelSpec().kind == "auto"

    @pytest.mark.parametrize("kind", list(KERNEL_KINDS))
    def test_encode_parse_roundtrip(self, kind):
        spec = KernelSpec(kind=kind)
        assert spec.encode() == kind
        assert KernelSpec.parse(spec.encode()) == spec

    def test_resolve(self):
        assert resolve_kernel(None) == KernelSpec()
        assert resolve_kernel("esc") == KernelSpec(kind="esc")
        spec = KernelSpec(kind="native")
        assert resolve_kernel(spec) is spec
        assert resolve_kernel(spec.encode()) == spec

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            KernelSpec(kind="gpu")
        with pytest.raises(ValueError):
            KernelSpec.parse("esc@nope")

    @pytest.mark.parametrize("text", ["hash", "dense", "merge", "hash@0.25"])
    def test_parse_rejects_deleted_kinds(self, text):
        with pytest.raises(ValueError, match=r"'auto', 'esc', 'native'"):
            KernelSpec.parse(text)

    def test_auto_resolves_to_esc_without_native(self, no_native):
        assert KernelSpec("auto").resolved() == KernelSpec("esc")
        assert resolved_wire("auto") == "esc"
        assert resolved_wire() == "esc"
        assert KernelSpec("esc").resolved() == KernelSpec("esc")

    @needs_native
    def test_auto_resolves_to_native(self):
        assert KernelSpec("auto").resolved() == KernelSpec("native")
        assert resolved_wire() == "native"

    def test_stats_record_kernel(self):
        a = rmat(6, 4.0, seed=5)
        r = spgemm_twophase(a, a, kernel="esc")
        assert r.stats.kernel == "esc"
        assert r.stats.symbolic_seconds >= 0
        assert r.stats.numeric_seconds >= 0


class TestPlanGroups:
    def _work(self, n=20):
        rng = np.random.default_rng(9)
        return rng.integers(0, 40, size=n).astype(np.int64)

    def test_single_group_methods(self):
        work = self._work()
        kinds = [k for k in KERNEL_KINDS if k != "native" or native_available()]
        for kind in kinds:
            g = plan_groups(work, KernelSpec(kind=kind))
            (grp,) = g.groups
            assert grp.method == resolved_wire(kind)
            np.testing.assert_array_equal(grp.rows, np.flatnonzero(work > 0))
            assert g.num_kernels() == 1

    def test_no_productive_rows_no_groups(self):
        g = plan_groups(np.zeros(5, dtype=np.int64), KernelSpec(kind="esc"))
        assert g.groups == () and g.num_kernels() == 0
        np.testing.assert_array_equal(g.coverage(), np.full(5, -1))

    @needs_native
    def test_auto_prefers_native(self):
        g = plan_groups(self._work(), KernelSpec(kind="auto"))
        assert {grp.method for grp in g.groups} == {"native"}

    def test_native_unavailable_raises(self, no_native):
        work = self._work()
        with pytest.raises(RuntimeError, match="native"):
            plan_groups(work, KernelSpec(kind="native"))
        # auto degrades to esc instead of raising
        g = plan_groups(work, KernelSpec(kind="auto"))
        assert {grp.method for grp in g.groups} == {"esc"}


class TestEngineKernelEquivalence:
    """The serial esc product is the golden answer; every backend x
    kernel combination must reproduce it bitwise."""

    @pytest.fixture(scope="class")
    def setup(self):
        a = rmat(8, 6.0, seed=77)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 2, 2)
        _, golden = execute_chunk_grid(a, a, grid, workers=1,
                                       keep_outputs=True, kernel="esc")
        return a, grid, golden

    def _assert_matches(self, golden, out):
        for rp, row in enumerate(golden):
            for cp, g in enumerate(row):
                _assert_bitwise(g, out[rp][cp], f"chunk ({rp}, {cp})")

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_backend_kernel_grid(self, setup, backend, kernel):
        a, grid, golden = setup
        workers = 1 if backend == "serial" else 2
        profile, out = execute_chunk_grid(
            a, a, grid, workers=workers, backend=backend,
            keep_outputs=True, kernel=kernel,
        )
        self._assert_matches(golden, out)
        # chunk stats carry the resolved wire form and one launch a stage
        for c in profile.chunks:
            assert c.kernel == resolved_wire(kernel)
            if c.flops > 0:
                assert c.symbolic_kernels == c.numeric_kernels == 1

    @pytest.mark.parametrize("kernel", [
        "esc", pytest.param("native", marks=needs_native),
    ])
    def test_chaos_faults_with_retry(self, setup, kernel):
        """An injected numeric-stage fault on the first attempt of chunk
        1 must be retried away without changing any output bit."""
        a, grid, golden = setup
        _, out = execute_chunk_grid(
            a, a, grid, workers=2, backend="thread", keep_outputs=True,
            kernel=kernel, retry=RetryPolicy(max_attempts=3,
                                             base_delay=0.001),
            faults=FaultInjector.from_string("numeric:raise:chunk=1:times=1"),
        )
        self._assert_matches(golden, out)
