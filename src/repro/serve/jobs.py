"""Job specs, records, and operand-spec resolution for the server.

A multiply job names two operands and how to run them.  Operand specs
are small JSON objects in one of five forms:

* ``{"suite": "stokes"}`` — a benchmark-suite matrix by name/abbr;
* ``{"path": "m.npz"}`` — an ``.npz``/``.mtx`` file on the server host;
* ``{"gen": {"family": "banded", "n": 512, ...}}`` — a deterministic
  generator invocation (seeded, so the same spec is the same matrix);
* ``{"inline": {"shape": [r, c], "row_offsets": [...], "col_ids":
  [...], "data": [...]}}`` — the matrix shipped in the request body;
* ``{"hash": "<sha256>"}`` — a content address of an operand already in
  the server's cache (uploaded via ``POST /v1/operands`` or left behind
  by an earlier job).

``suite``/``path``/``gen`` specs are deterministic, so their canonical
string (:func:`canonical_spec`) is a valid cache alias: once built, the
server maps spec -> content hash and repeat jobs skip materialization
entirely.  ``inline`` payloads are hashed on arrival; ``hash`` specs
never materialize at all (a cache miss is a client error).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.executor.engine import EXECUTOR_BACKENDS
from ..sparse import generators
from ..sparse.formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE
from ..sparse.io import load_npz, read_matrix_market
from ..sparse.suite import SUITE, build_matrix
from ..spgemm.kernels import resolve_kernel

__all__ = [
    "JobState",
    "JobSpec",
    "JobRecord",
    "canonical_spec",
    "resolve_operand",
]

_job_counter = itertools.count(1)

#: generator families a ``gen`` spec may name, with their argument sets
_GEN_FAMILIES = {
    "banded": ("n", "bandwidth", "seed", "fill"),
    "rmat": ("scale", "degree", "seed"),
    "erdos-renyi": ("n", "avg_degree", "seed"),
    "diagonal-blocks": ("n", "block", "seed", "density"),
}


def canonical_spec(spec: Dict[str, Any]) -> str:
    """Deterministic string form of an operand spec (sorted-key JSON) —
    the cache-alias key for deterministic (non-inline) specs."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def _build_gen(params: Dict[str, Any]) -> CSRMatrix:
    family = params.get("family")
    if family not in _GEN_FAMILIES:
        raise ValueError(
            f"unknown generator family {family!r}; "
            f"choose from {sorted(_GEN_FAMILIES)}"
        )
    allowed = _GEN_FAMILIES[family]
    extra = set(params) - set(allowed) - {"family"}
    if extra:
        raise ValueError(f"unknown {family} parameters: {sorted(extra)}")
    kwargs = {k: params[k] for k in allowed if k in params}
    seed = int(kwargs.pop("seed", 0))
    if family == "banded":
        return generators.banded(
            int(kwargs.pop("n", 512)), int(kwargs.pop("bandwidth", 8)),
            seed=seed, **kwargs,
        )
    if family == "rmat":
        return generators.rmat(
            int(kwargs.pop("scale", 9)), int(kwargs.pop("degree", 8)),
            seed=seed,
        )
    if family == "erdos-renyi":
        return generators.erdos_renyi(
            int(kwargs.pop("n", 512)), float(kwargs.pop("avg_degree", 8.0)),
            seed=seed,
        )
    return generators.diagonal_blocks(
        int(kwargs.pop("n", 512)), int(kwargs.pop("block", 64)),
        seed=seed, **kwargs,
    )


def _build_inline(payload: Dict[str, Any]) -> CSRMatrix:
    try:
        n_rows, n_cols = (int(x) for x in payload["shape"])
        ro = np.asarray(payload["row_offsets"], dtype=INDEX_DTYPE)
        ci = np.asarray(payload["col_ids"], dtype=INDEX_DTYPE)
        da = np.asarray(payload["data"], dtype=VALUE_DTYPE)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed inline operand: {exc}") from exc
    return CSRMatrix(n_rows, n_cols, ro, ci, da)


def resolve_operand(spec: Dict[str, Any]) -> CSRMatrix:
    """Materialize one operand spec (every form except ``hash``, which
    only the server's cache can resolve)."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(
            "an operand spec is one of {'suite': name}, {'path': file}, "
            "{'gen': {...}}, {'inline': {...}}, {'hash': sha256}"
        )
    (kind, value), = spec.items()
    if kind == "suite":
        by_name = {e.name: e.name for e in SUITE}
        by_name.update({e.abbr: e.name for e in SUITE})
        if value not in by_name:
            raise ValueError(f"unknown suite matrix {value!r}")
        return build_matrix(by_name[value])
    if kind == "path":
        if str(value).endswith(".mtx"):
            return read_matrix_market(value)
        if str(value).endswith(".npz"):
            return load_npz(value)
        raise ValueError(f"operand path must be .npz or .mtx, got {value!r}")
    if kind == "gen":
        return _build_gen(dict(value))
    if kind == "inline":
        return _build_inline(value)
    if kind == "hash":
        raise ValueError(
            "a {'hash': ...} operand can only be resolved by the server "
            "cache (upload it first via POST /v1/operands)"
        )
    raise ValueError(f"unknown operand spec kind {kind!r}")


class JobState(str, Enum):
    QUEUED = "queued"        # accepted, waiting in the fair queue
    ADMITTED = "admitted"    # ledger reservation held, awaiting a slot
    RUNNING = "running"      # executing on the worker pool
    DONE = "done"
    FAILED = "failed"
    REJECTED = "rejected"    # quota/validation refusal — never queued


@dataclass
class JobSpec:
    """Validated request payload of one multiply job."""

    a_spec: Dict[str, Any]
    b_spec: Dict[str, Any]
    tenant: str = "default"
    kernel: Optional[str] = None
    backend: Optional[str] = None
    workers: int = 1
    grid: Optional[List[int]] = None   # [row_panels, col_panels]
    return_result: bool = False        # ship the product arrays back
    trace: bool = False                # record + export a per-job trace

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ValueError("job payload must be a JSON object")
        known = {"a", "b", "tenant", "kernel", "backend", "workers",
                 "grid", "return_result", "trace", "stream", "wait"}
        extra = set(payload) - known
        if extra:
            raise ValueError(f"unknown job fields: {sorted(extra)}")
        if "a" not in payload or "b" not in payload:
            raise ValueError("a job needs operands 'a' and 'b'")
        workers = int(payload.get("workers", 1))
        if workers < 1:
            raise ValueError("workers must be >= 1")
        grid = payload.get("grid")
        if grid is not None:
            grid = [int(x) for x in grid]
            if len(grid) != 2 or min(grid) < 1:
                raise ValueError("grid must be [row_panels, col_panels] >= 1")
        kernel = payload.get("kernel")
        if kernel is not None:
            if not isinstance(kernel, str):
                raise ValueError("kernel must be a string")
            resolve_kernel(kernel)  # ValueError naming the accepted kinds
        backend = payload.get("backend")
        if backend is not None and backend not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {EXECUTOR_BACKENDS}"
            )
        return cls(
            a_spec=payload["a"], b_spec=payload["b"],
            tenant=str(payload.get("tenant", "default")),
            kernel=kernel,
            backend=backend,
            workers=workers, grid=grid,
            return_result=bool(payload.get("return_result", False)),
            trace=bool(payload.get("trace", False)),
        )


@dataclass
class JobRecord:
    """Lifecycle of one accepted job: state machine + timings + result
    summary.  Mutated by the scheduler/runner threads; read by the HTTP
    handlers — all under :attr:`lock`."""

    spec: JobSpec
    job_id: int = field(default_factory=lambda: next(_job_counter))
    state: JobState = JobState.QUEUED
    error: Optional[str] = None
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cost_bytes: int = 0                # estimated footprint charged
    shard: Optional[int] = None        # device shard placement (shards > 1)
    result: Dict[str, Any] = field(default_factory=dict)
    cache_hits: Dict[str, bool] = field(default_factory=dict)
    chunks_done: int = 0
    chunks_total: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def latency_seconds(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view for ``GET /v1/jobs/<id>`` and event payloads."""
        with self.lock:
            out = {
                "job_id": self.job_id,
                "tenant": self.spec.tenant,
                "state": self.state.value,
                "chunks_done": self.chunks_done,
                "chunks_total": self.chunks_total,
                "cost_bytes": self.cost_bytes,
                "cache": dict(self.cache_hits),
            }
            if self.shard is not None:
                out["shard"] = self.shard
            if self.error is not None:
                out["error"] = self.error
            if self.latency_seconds is not None:
                out["latency_seconds"] = self.latency_seconds
            if self.result:
                out["result"] = dict(self.result)
            return out
