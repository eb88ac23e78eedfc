"""Tests for the row grouping a kernel stage runs over."""

import numpy as np

from repro.spgemm.groups import RowGroup, RowGrouping
from repro.spgemm.kernels import KernelSpec, plan_groups


class TestGroupRows:
    def test_every_active_row_covered_once(self):
        work = np.array([0, 5, 900, 0, 12, 3, 450])
        grouping = plan_groups(work, KernelSpec("esc"))
        coverage = grouping.coverage()
        assert np.all(coverage[work > 0] >= 0)
        assert np.all(coverage[work == 0] == -1)

    def test_num_kernels(self):
        assert plan_groups(np.array([0, 0, 0]), KernelSpec("esc")).num_kernels() == 0
        assert plan_groups(np.array([5, 5000]), KernelSpec("esc")).num_kernels() == 1
        # an empty group costs no launch
        empty = RowGroup(rows=np.empty(0, dtype=np.int64), method="esc")
        assert RowGrouping(groups=(empty,), n_rows=3).num_kernels() == 0

    def test_len_and_iter(self):
        grouping = plan_groups(np.array([2, 2000]), KernelSpec("esc"))
        assert len(grouping) == len(list(grouping)) == 1
