"""Shared experiment driver: matrices, nodes, profiles — with disk caching.

Every figure/table reproduction needs the same expensive artifacts per
matrix: the built matrix, its Table II features, a simulated node whose
device memory makes the workload genuinely out-of-core, and the executed
chunk profile.  This module computes each once and caches it under
``<repo>/.cache`` (override with ``REPRO_CACHE_DIR``), so re-running a
bench is pure scheduling simulation.

Device-memory scaling rule (the substitution documented in DESIGN.md):
the paper picks matrices whose *output-side* footprint exceeds the V100's
16 GB while the inputs fit and stay resident; we size the simulated
device to hold the inputs plus one third of the output-side working set,
so the output cannot fit and the planner must chunk — the same regime at
laptop scale.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Callable, Dict, TypeVar

T = TypeVar("T")

from ..core.chunks import ChunkGrid, ChunkProfile, csr_bytes
from ..core.executor import execute_chunk_grid
from ..core.planner import plan_grid, working_set_bytes
from ..device.specs import NodeSpec, v100_node
from ..spgemm.kernels import resolved_wire
from ..sparse.formats import CSRMatrix
from ..sparse.io import load_npz, save_npz
from ..sparse.suite import SUITE, MatrixFeatures, build_matrix, matrix_features

__all__ = [
    "cache_dir",
    "get_matrix",
    "get_features",
    "get_node",
    "get_profile",
    "get_profile_for_grid",
    "all_abbrs",
]

#: floor for the simulated device memory, so tiny matrices still get a
#: non-degenerate pool
MIN_DEVICE_MEMORY = 8 << 20

_matrix_cache: Dict[str, CSRMatrix] = {}
_features_cache: Dict[str, MatrixFeatures] = {}
_profile_cache: Dict[str, ChunkProfile] = {}


def cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR")
    if root is None:
        # repo root when running from a checkout; cwd otherwise
        here = Path(__file__).resolve()
        candidate = here.parents[3]
        root = candidate if (candidate / "pyproject.toml").exists() else Path.cwd()
    path = Path(root) / ".cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


def all_abbrs() -> list:
    """Suite abbreviations in paper (Table II) order."""
    return [e.abbr for e in SUITE]


def _load_cached(path: Path, loader: Callable[[Path], T]) -> T:
    """Load a cache artifact, discarding it when corrupt or stale.

    The disk cache is disposable — everything in it can be regenerated
    deterministically — so *any* failure to read an artifact (truncated
    ``.npz`` from an interrupted write, garbage JSON, missing arrays) is
    handled by deleting the file and signalling the caller to rebuild,
    never by crashing the run.  A readable entry measured under another
    kernel (:class:`_StaleCacheEntry`) takes the same path, reported as
    stale rather than corrupt.
    """
    try:
        return loader(path)
    except Exception as exc:
        if isinstance(exc, _StaleCacheEntry):
            reason = f"discarding stale cache file {path.name}: {exc}"
        else:
            reason = f"discarding corrupt cache file {path.name}: {exc!r}"
        warnings.warn(f"{reason}; regenerating", RuntimeWarning, stacklevel=3)
        try:
            path.unlink()
        except OSError:
            pass
        raise _CorruptCacheEntry from exc


class _CorruptCacheEntry(Exception):
    """Internal: a cache artifact was unreadable or stale and has been
    removed."""


class _StaleCacheEntry(ValueError):
    """Internal: a readable cache artifact measured under another kernel."""


def _load_profile_payload(path: Path, wire: str) -> ChunkProfile:
    """Parse a cached profile, rejecting entries from another kernel.

    Profiles carry measured per-chunk stage times, which are only
    meaningful under the kernel that produced them — a profile cached
    under an old kernel default (or on a box where ``auto`` resolved
    differently) must be discarded, not silently reused, or model-error
    metrics compare against mismatched timings.  Raising here routes
    through :func:`_load_cached`, which unlinks the stale file and
    triggers regeneration.
    """
    payload = json.loads(path.read_text())
    cached = payload.pop("kernel", "")
    if cached != wire:
        raise _StaleCacheEntry(
            f"profile cached under kernel {cached!r} but current kernel "
            f"resolves to {wire!r}"
        )
    return ChunkProfile.from_dict(payload)


def get_matrix(abbr: str) -> CSRMatrix:
    """Build (or load from cache) one suite matrix."""
    if abbr in _matrix_cache:
        return _matrix_cache[abbr]
    path = cache_dir() / f"matrix_{abbr}.npz"
    mat = None
    if path.exists():
        try:
            mat = _load_cached(path, load_npz)
        except _CorruptCacheEntry:
            mat = None
    if mat is None:
        mat = build_matrix(abbr)
        save_npz(path, mat)
    _matrix_cache[abbr] = mat
    return mat


def get_features(abbr: str) -> MatrixFeatures:
    """Table II feature row (cached)."""
    if abbr in _features_cache:
        return _features_cache[abbr]
    path = cache_dir() / f"features_{abbr}.json"
    feat = None
    if path.exists():
        try:
            feat = _load_cached(
                path, lambda p: MatrixFeatures(**json.loads(p.read_text()))
            )
        except _CorruptCacheEntry:
            feat = None
    if feat is None:
        feat = matrix_features(abbr, get_matrix(abbr))
        path.write_text(json.dumps(feat.__dict__))
    _features_cache[abbr] = feat
    return feat


def device_memory_for(abbr: str) -> int:
    """Inputs resident + one third of the output-side working set.

    The paper's inputs (<= 7 GB) fit its 16 GB device; the output plus the
    per-chunk intermediates do not.  We mirror that regime: the simulated
    device holds the inputs entirely, plus half of the remaining
    working set (intermediates + worst-case output), which forces grids of
    a few panels per side — the chunk-count regime of Table III.
    """
    feat = get_features(abbr)
    inputs = 2 * csr_bytes(feat.n, feat.nnz)
    rest = working_set_bytes(feat.n, feat.nnz, feat.flops, feat.nnz_out) - inputs
    return inputs + max(rest // 2, MIN_DEVICE_MEMORY)


def get_node(abbr: str) -> NodeSpec:
    """The simulated V100 node scaled for this matrix."""
    return v100_node(device_memory_for(abbr))


def get_profile(abbr: str, kernel=None) -> ChunkProfile:
    """Planned + executed chunk profile for ``C = A x A`` (cached).

    Cache entries — in memory and on disk — are keyed on the *resolved*
    kernel wire form, so profiles measured under one kernel are never
    served for another (stale disk entries are invalidated in place).
    """
    wire = resolved_wire(kernel)
    key = f"{abbr}|{wire}"
    if key in _profile_cache:
        return _profile_cache[key]
    path = cache_dir() / f"profile_{abbr}.json"
    profile = None
    if path.exists():
        try:
            profile = _load_cached(path, lambda p: _load_profile_payload(p, wire))
        except _CorruptCacheEntry:
            profile = None
    if profile is None:
        a = get_matrix(abbr)
        node = get_node(abbr)
        grid = plan_grid(a, a, node).grid
        profile, _ = execute_chunk_grid(a, a, grid, name=abbr, kernel=kernel)
        path.write_text(json.dumps({"kernel": wire, **profile.to_dict()}))
    _profile_cache[key] = profile
    return profile


def get_profile_for_grid(abbr: str, rows: int, cols: int, kernel=None) -> ChunkProfile:
    """Executed profile at an explicit grid (cached per grid and per
    resolved kernel) — used by the chunk-size sensitivity sweep."""
    wire = resolved_wire(kernel)
    key = f"{abbr}@{rows}x{cols}|{wire}"
    if key in _profile_cache:
        return _profile_cache[key]
    path = cache_dir() / f"profile_{abbr}_{rows}x{cols}.json"
    profile = None
    if path.exists():
        try:
            profile = _load_cached(path, lambda p: _load_profile_payload(p, wire))
        except _CorruptCacheEntry:
            profile = None
    if profile is None:
        a = get_matrix(abbr)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, rows, cols)
        profile, _ = execute_chunk_grid(a, a, grid, name=key, kernel=kernel)
        path.write_text(json.dumps({"kernel": wire, **profile.to_dict()}))
    _profile_cache[key] = profile
    return profile
