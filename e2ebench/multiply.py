"""The three library-caller workloads: ``mesh-ooc``, ``graph-hybrid``
and ``shard-socket``.

Each times one public entry point back to back from one process.  The
traced variant calls the layers the entry point is built from, in the
entry point's own order, times each call from outside, and checks that
the composed product is bit-identical to the entry point's.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.api import (run_hybrid, run_out_of_core, simulate_hybrid,
                            simulate_out_of_core)
from repro.core.assemble import assemble_chunks
from repro.core.chunks import ChunkProfile, chunk_flops
from repro.core.executor import execute_chunk_grid, plan_hybrid_lanes
from repro.core.executor.plan import ChunkPlan
from repro.core.governor.integrity import crc32_matrix
from repro.core.hybrid import DEFAULT_RATIO
from repro.core.planner import plan_grid
from repro.device.specs import NodeSpec, v100_node
from repro.distributed.shard import ShardConfig, plan_shards, run_sharded
from repro.distributed.transport.pool import RemoteShardPool
from repro.sparse.formats import CSRMatrix
from repro.sparse.partition import partition_columns
from repro.spgemm.kernels import resolve_kernel

from . import inputs, stats

clock = time.perf_counter

#: worker count of the hybrid workload: one per core of the 2-core host
HYBRID_WORKERS = 2
#: shard count of the socket workload
SHARDS = 2


@dataclass
class Operand:
    label: str
    a: CSRMatrix
    ref: inputs.Reference
    node: NodeSpec
    #: scipy copy of ``a`` for the interleaved outside baseline
    sa: object = None
    #: simulated makespan of the first call; every later call must
    #: repeat it exactly (the simulator is deterministic)
    makespan: Optional[float] = None


@dataclass
class Traced:
    """One decomposed call: ``layers`` add up to ``wall`` up to the
    reported remainder; ``extra`` holds sub-layer and count metrics."""

    wall: float
    layers: Dict[str, float]
    extra: Dict[str, float]
    crc32: int
    makespan: Optional[float]


@dataclass
class LoopResult:
    """Samples of one timed loop, grouped by operand label."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: scipy ``A @ B`` times on the same operands, taken in the loop
    scipy: Dict[str, List[float]] = field(default_factory=dict)
    traced_samples: Dict[str, List[float]] = field(default_factory=dict)
    traced: List[Dict[str, float]] = field(default_factory=list)
    #: operand label of each traced record
    traced_ops: List[str] = field(default_factory=list)
    #: run-level counters (server statistics over the loop)
    counters: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    verified: int = 0
    #: loop wall time minus the benchmark's own verification work
    busy_seconds: float = 0.0


def executor_metrics(profile: ChunkProfile, executor_s: float,
                     workers: int) -> Dict[str, float]:
    """Executor and kernel-stage figures of one executed grid, from the
    ``ChunkStats`` the executor returns.  Bytes are computed from array
    sizes, not measured."""
    chunks = profile.chunks
    kernel_s = sum(c.measured_seconds for c in chunks)
    flops = profile.total_flops
    out = {
        "executor.chunks": float(len(chunks)),
        "kernel.s": kernel_s,
        "kernel.analysis_s": sum(c.analysis_seconds for c in chunks),
        "kernel.symbolic_s": sum(c.symbolic_seconds for c in chunks),
        "kernel.numeric_s": sum(c.numeric_seconds for c in chunks),
        "kernel.flops": float(flops),
        "kernel.gflops": flops / kernel_s / 1e9 if kernel_s > 0 else 0.0,
        "kernel.bytes_computed": float(sum(
            c.a_panel_bytes + c.b_panel_bytes + c.output_bytes
            for c in chunks)),
    }
    if executor_s > 0:
        out["executor.s"] = executor_s
        out["executor.busy_frac"] = kernel_s / (workers * executor_s)
        out["executor.overhead_s"] = executor_s - kernel_s / workers
    return out


class MultiplyWorkload:
    """Set-up, timed loop and teardown shared by the library workloads."""

    name = ""
    labels: tuple = ()
    #: verified warm-up calls per operand during set-up
    warmup_calls = 1

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.mats: Dict[str, CSRMatrix] = {}
        self.ops: List[Operand] = []
        self._input_crcs: Optional[Dict[str, int]] = None

    # -- set-up -------------------------------------------------------
    def generate(self) -> None:
        self.mats = {lb: inputs.analog(lb, self.seed, smoke=self.smoke)
                     for lb in self.labels}

    def oracle(self) -> None:
        """Reference products and device sizing (excluded from set-up
        time); on later set-ups, proves the inputs came out identical."""
        crcs = {lb: crc32_matrix(m) for lb, m in self.mats.items()}
        if self._input_crcs is not None:
            if crcs != self._input_crcs:
                raise AssertionError("seeded inputs differ between set-ups")
            for op in self.ops:
                op.a = self.mats[op.label]
                op.sa = op.a.to_scipy()
            return
        self._input_crcs = crcs
        for lb, a in self.mats.items():
            ref = inputs.reference(a, a)
            node = v100_node(inputs.device_memory(a, ref.flops, ref.nnz))
            self.ops.append(Operand(lb, a, ref, node, a.to_scipy()))

    def start(self) -> None:
        """Warm-up: verified calls on every operand."""
        for _ in range(self.warmup_calls):
            for op in self.ops:
                if not self.verify(op, *self.result_of(self.call(op))):
                    raise AssertionError(
                        f"{self.name}: warm-up call on {op.label} returned "
                        "a wrong product")

    def stop(self) -> None:
        pass

    def child_pids(self) -> List[int]:
        return []

    # -- calls --------------------------------------------------------
    def call(self, op: Operand):
        raise NotImplementedError

    def result_of(self, result):
        """``(crc32, simulated makespan or None)`` of an entry-point
        result."""
        return crc32_matrix(result.matrix), result.elapsed

    def traced(self, op: Operand) -> Traced:
        raise NotImplementedError

    def verify(self, op: Operand, crc: int, makespan: Optional[float]) -> bool:
        if crc != op.ref.crc32:
            return False
        if makespan is None:
            return True
        if op.makespan is None:
            op.makespan = makespan
        return makespan == op.makespan

    # -- the timed loop -------------------------------------------------
    def _attempt(self, fn, op: Operand, res: LoopResult):
        res.attempted += 1
        t0 = clock()
        try:
            out = fn(op)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            res.failed += 1
            return None, 0.0
        return out, clock() - t0

    def run_loop(self, seconds: float, trace: bool) -> LoopResult:
        res = LoopResult(samples={op.label: [] for op in self.ops},
                         scipy={op.label: [] for op in self.ops},
                         traced_samples={op.label: [] for op in self.ops})
        # the benchmark's own work (verification, scipy) is taken out of
        # the busy time that calls_per_s divides by
        own_s = 0.0
        t_start = clock()
        deadline = t_start + seconds
        while clock() < deadline:
            for op in self.ops:
                result, wall = self._attempt(self.call, op, res)
                if result is not None:
                    v0 = clock()
                    ok = self.verify(op, *self.result_of(result))
                    own_s += clock() - v0
                    if ok:
                        res.verified += 1
                        res.samples[op.label].append(wall)
                    else:
                        res.failed += 1
                # the outside baseline, interleaved so that drift in the
                # host's speed moves both sides of scipy_ratio alike
                v0 = clock()
                op.sa @ op.sa
                res.scipy[op.label].append(clock() - v0)
                own_s += clock() - v0
                if not trace:
                    continue
                tr, _ = self._attempt(self.traced, op, res)
                if tr is None:
                    continue
                v0 = clock()
                ok = self.verify(op, tr.crc32, tr.makespan)
                own_s += clock() - v0
                if not ok:
                    res.failed += 1
                    continue
                res.verified += 1
                res.traced_samples[op.label].append(tr.wall)
                rec = dict(tr.layers)
                rec.update(tr.extra)
                rec["trace.call_s"] = tr.wall
                rec["unattributed.s"] = stats.unattributed(tr.wall, tr.layers)
                res.traced.append(rec)
                res.traced_ops.append(op.label)
            if res.attempted >= 8 and res.failed == res.attempted:
                break  # nothing works: stop instead of spinning
        res.busy_seconds = clock() - t_start - own_s
        return res

    def scipy_seconds(self, loop: LoopResult) -> Dict[str, float]:
        return {g: stats.percentile(v, 50) for g, v in loop.scipy.items()}


def _timed(layers: Dict[str, float], key: str, fn, *args, **kwargs):
    t0 = clock()
    out = fn(*args, **kwargs)
    layers[key] = clock() - t0
    return out


class MeshOOC(MultiplyWorkload):
    """Serial ``run_out_of_core`` on the stokes and nlp banded analogs:
    the planner dominates the call."""

    name = "mesh-ooc"
    labels = ("stokes", "nlp")

    def call(self, op):
        return run_out_of_core(op.a, op.a, op.node)

    def traced(self, op):
        a, node = op.a, op.node
        lay: Dict[str, float] = {}
        t0 = clock()
        grid = _timed(lay, "planner.s", plan_grid, a, a, node).grid
        cols = _timed(lay, "partition.s", partition_columns, a,
                      grid.num_col_panels)
        profile, outputs = _timed(lay, "executor.s", execute_chunk_grid,
                                  a, a, grid, keep_outputs=True,
                                  col_panels=cols)
        sim = _timed(lay, "simulate.s", simulate_out_of_core, profile, node)
        matrix = _timed(lay, "assemble.s", assemble_chunks, outputs)
        wall = clock() - t0
        # outside the call: one chunk_flops pass on the chosen grid, the
        # unit of work the planner repeats per candidate grid
        extra: Dict[str, float] = {}
        _timed(extra, "chunk_flops.s", chunk_flops, a, a, grid)
        extra.update(executor_metrics(profile, lay["executor.s"], 1))
        extra["sim.makespan_s"] = sim.elapsed
        return Traced(wall, lay, extra, crc32_matrix(matrix), sim.elapsed)


class GraphHybrid(MultiplyWorkload):
    """``run_hybrid`` with two thread lanes on the wiki0206 and lj2008
    R-MAT analogs: kernel and assembly dominate, dispatch is stressed."""

    name = "graph-hybrid"
    labels = ("wiki0206", "lj2008")

    def call(self, op):
        return run_hybrid(op.a, op.a, op.node, workers=HYBRID_WORKERS)

    def traced(self, op):
        a, node = op.a, op.node
        lay: Dict[str, float] = {}
        t0 = clock()
        grid = _timed(lay, "planner.s", plan_grid, a, a, node).grid
        flops = _timed(lay, "chunk_flops.s", chunk_flops, a, a, grid)
        lanes = plan_hybrid_lanes(flops, HYBRID_WORKERS, DEFAULT_RATIO)
        plan = ChunkPlan.from_hybrid(lanes, kernel=resolve_kernel(None))
        cols = _timed(lay, "partition.s", partition_columns, a,
                      grid.num_col_panels)
        profile, outputs = _timed(lay, "executor.s", execute_chunk_grid,
                                  a, a, grid, keep_outputs=True, plan=plan,
                                  col_panels=cols)
        sim = _timed(lay, "simulate.s", simulate_hybrid, profile, node,
                     ratio=DEFAULT_RATIO)
        matrix = _timed(lay, "assemble.s", assemble_chunks, outputs)
        wall = clock() - t0
        extra = executor_metrics(profile, lay["executor.s"], HYBRID_WORKERS)
        lane_s = {name: sum(profile.chunks[c].measured_seconds for c in ids)
                  for ids, _, name in lanes}
        extra["hybrid.gpu_lane_s"] = lane_s.get("gpu", 0.0)
        extra["hybrid.cpu_lane_s"] = lane_s.get("cpu", 0.0)
        extra["hybrid.lane_imbalance"] = (
            max(lane_s.values()) / stats.mean(lane_s.values()))
        extra["sim.makespan_s"] = sim.elapsed
        return Traced(wall, lay, extra, crc32_matrix(matrix), sim.elapsed)


class ShardSocket(MultiplyWorkload):
    """``run_sharded`` over two remote shard workers on unix sockets, on
    the nlp analog: the only workload that moves bytes through
    ``distributed.transport``."""

    name = "shard-socket"
    labels = ("nlp",)
    # freshly spawned workers run their first few calls slower (first
    # touch of the frame and chunk buffers)
    warmup_calls = 4

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.config = ShardConfig(num_shards=SHARDS, transport="socket",
                                  socket_kind="unix")
        self.pool: Optional[RemoteShardPool] = None

    def start(self) -> None:
        self.pool = RemoteShardPool.spawn(SHARDS, kind="unix")
        super().start()

    def stop(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def child_pids(self) -> List[int]:
        if self.pool is None:
            return []
        return [w.process.pid for w in self.pool.workers
                if w.process is not None]

    def call(self, op):
        return run_sharded(op.a, op.a, self.config, worker_pool=self.pool)

    def result_of(self, result):
        # a socket run's transfer timeline is built from measured walls,
        # so it is not a deterministic simulation output
        return crc32_matrix(result.matrix), None

    def traced(self, op):
        a = op.a
        t0 = clock()
        result = self.call(op)
        wall = clock() - t0
        grid = result.grid
        # outside the call, on the grid it used: the two planning steps
        # run_sharded performs before any shard starts
        lay: Dict[str, float] = {}
        extra: Dict[str, float] = {}
        t1 = clock()
        flops = _timed(extra, "chunk_flops.s", chunk_flops, a, a, grid)
        plan_shards(grid, self.config.num_shards, flops,
                    self.config.balance)
        lay["shard.plan_s"] = clock() - t1
        _timed(lay, "partition.s", partition_columns, a,
               grid.num_col_panels)
        recs = result.records
        crit = max(recs, key=lambda r: r.wall_seconds)
        lay["shard.wall_max_s"] = crit.wall_seconds
        extra.update(executor_metrics(result.profile, 0.0, 1))
        extra.update({
            "shard.compute_s": crit.compute_seconds,
            "shard.imbalance": crit.wall_seconds / stats.mean(
                r.wall_seconds for r in recs),
            "transport.bcast_s": crit.bcast_seconds,
            "transport.gather_s": crit.gather_seconds,
            "transport.share": (crit.bcast_seconds + crit.gather_seconds)
            / wall,
            "transport.bytes_sent": float(sum(r.bytes_sent for r in recs)),
            "transport.bytes_received": float(
                sum(r.bytes_received for r in recs)),
            "transport.reconnects": float(sum(r.reconnects for r in recs)),
            "transport.failovers": float(sum(1 for r in recs if r.failover)),
        })
        return Traced(wall, lay, extra, crc32_matrix(result.matrix), None)
