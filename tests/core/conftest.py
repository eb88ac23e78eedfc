"""Fixtures for out-of-core framework tests: a small out-of-core workload."""

import pytest

from repro.core.chunks import ChunkGrid

from repro.core.executor import execute_chunk_grid
from repro.device.kernels import default_cost_model
from repro.device.specs import v100_node
from repro.sparse.generators import rmat


@pytest.fixture(scope="package")
def workload():
    """A small skewed matrix with a fixed 3x3 grid, profiled once."""
    a = rmat(9, 8.0, seed=77)
    grid = ChunkGrid.regular(a.n_rows, a.n_cols, 3, 3)
    profile, outputs = execute_chunk_grid(a, a, grid, keep_outputs=True, name="fixture")
    return a, grid, profile, outputs


@pytest.fixture(scope="package")
def node():
    return v100_node(device_memory_bytes=64 << 20)


@pytest.fixture(scope="package")
def cost(node):
    return default_cost_model(node)
