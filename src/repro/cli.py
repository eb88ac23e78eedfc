"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Show the simulated device (Table I) and package metadata.
``suite [--features]``
    List the nine evaluation matrices, optionally with their Table II rows.
``gen <family> --n N [options] --out FILE``
    Generate a synthetic matrix (rmat / erdos-renyi / banded) to .npz/.mtx.
``multiply A [B] [--mode ...] [--device-mem MB] [--workers N] [--backend ...] [--out FILE]``
    (alias: ``run``) Out-of-core multiply: operands are .npz/.mtx paths
    or suite names; ``B`` defaults to ``A`` (the paper's ``C = A x A``).
    Prints the run summary; optionally writes the product.  ``--workers
    N`` executes the chunks through the execution engine; ``--backend``
    picks where the kernels run (``serial`` / ``thread`` / ``process``).
    Fault tolerance: ``--retries N`` retries failed chunks with backoff,
    ``--crash-budget N`` lets the process backend survive worker deaths,
    ``--checkpoint PATH`` writes a resumable run manifest, and
    ``--resume PATH`` continues an interrupted run, recomputing only its
    unfinished chunks (see docs/FAULT_TOLERANCE.md).
``bench [--matrices ...] [--workers N] [--backend ...] [--repeats N] [--out FILE]``
    Serial-vs-parallel wall-clock benchmark over suite matrices; times
    the thread and/or process backends against the serial baseline
    (min + median over ``--repeats``) and writes a JSON record
    (``BENCH_parallel.json``) for cross-PR perf trajectories.  Flags
    single-core hosts, where "speedup" only measures overhead.
``kernel-bench [--matrices ...] [--kernels ...] [--repeats N] [--out FILE]``
    Single-thread shoot-out of the kernels (esc / native) with
    cross-kernel bit-identity and scipy checks; writes
    ``BENCH_kernels.json`` and exits nonzero on any equivalence failure.
``trace MATRIX [--mode ...] [--workers N] [--backend ...] [--trace-out FILE]``
    Run the real pipeline under the tracer and export a Chrome-trace JSON
    (measured spans as pid 0, the simulated schedule as pid 1) plus a
    per-lane utilization and critical-path summary.
``experiment <name|all>``
    Regenerate a paper table/figure (fig4, fig7, fig8, fig9, fig10,
    table1, table2, table3, ablations, all).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.api import run_hybrid, run_out_of_core
from .device.specs import v100_node
from .sparse import generators
from .sparse.formats import CSRMatrix
from .sparse.io import load_npz, read_matrix_market, save_npz, write_matrix_market
from .sparse.suite import SUITE
from .spgemm.kernels import KERNEL_KINDS

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Out-of-core CPU-GPU SpGEMM (IPDPS 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="simulated device and package info")

    p_suite = sub.add_parser("suite", help="list the evaluation matrices")
    p_suite.add_argument("--features", action="store_true",
                         help="compute Table II feature rows (slower)")

    p_gen = sub.add_parser("gen", help="generate a synthetic matrix")
    p_gen.add_argument("family", choices=["rmat", "erdos-renyi", "banded"])
    p_gen.add_argument("--n", type=int, required=True,
                       help="rows (rmat: rounded up to a power of two)")
    p_gen.add_argument("--degree", type=float, default=8.0,
                       help="average nonzeros per row (graphs)")
    p_gen.add_argument("--bandwidth", type=int, default=4, help="banded half-width")
    p_gen.add_argument("--fill", type=float, default=1.0, help="banded fill ratio")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output .npz or .mtx path")

    p_mul = sub.add_parser("multiply", aliases=["run"],
                           help="out-of-core SpGEMM")
    p_mul.add_argument("a", help="matrix A: .npz/.mtx path or suite name")
    p_mul.add_argument("b", nargs="?", default=None,
                       help="matrix B (default: A, computing A^2)")
    p_mul.add_argument("--mode", choices=["sync", "async", "hybrid"],
                       default="async")
    p_mul.add_argument("--ratio", type=float, default=0.65,
                       help="hybrid GPU flop share")
    p_mul.add_argument("--device-mem", type=int, default=None, metavar="MiB",
                       help="simulated device memory (default: auto out-of-core)")
    p_mul.add_argument("--workers", type=_positive_int, default=1,
                       help="workers for real chunk execution (default 1)")
    p_mul.add_argument("--backend", choices=["serial", "thread", "process"],
                       default=None,
                       help="chunk executor backend (default: serial for "
                            "--workers 1, thread otherwise)")
    p_mul.add_argument("--kernel", choices=list(KERNEL_KINDS), default=None,
                       help="SpGEMM kernel (default: auto — native C "
                            "when buildable, else esc; see docs/KERNELS.md)")
    p_mul.add_argument("--retries", type=_positive_int, default=1,
                       metavar="N",
                       help="max attempts per chunk (default 1 = no retry)")
    p_mul.add_argument("--retry-delay", type=float, default=0.05,
                       metavar="SECONDS",
                       help="base backoff delay between chunk attempts "
                            "(default 0.05; doubles per attempt, jittered)")
    p_mul.add_argument("--crash-budget", type=int, default=0, metavar="N",
                       help="process backend: worker deaths absorbed by "
                            "respawn before the run aborts (default 0)")
    p_mul.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-chunk wall-clock deadline; a chunk past it "
                            "raises ChunkTimeout (retryable), and under the "
                            "process backend the hung worker is killed")
    p_mul.add_argument("--heartbeat-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="process backend: worker heartbeat period; a "
                            "worker silent for 2x this is presumed frozen "
                            "and killed by the watchdog")
    p_mul.add_argument("--host-mem-budget", type=int, default=None,
                       metavar="MiB",
                       help="cap on in-flight + stored chunk bytes; "
                            "dispatch blocks (and spills the chunk store "
                            "when possible) instead of exceeding it")
    p_mul.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="write a resumable run manifest to PATH and "
                            "spill chunks next to it (PATH.chunks/)")
    p_mul.add_argument("--resume", default=None, metavar="PATH",
                       help="resume from the manifest at PATH, recomputing "
                            "only its unfinished chunks")
    p_mul.add_argument("--out", default=None, help="write the product (.npz/.mtx)")

    p_bench = sub.add_parser(
        "bench", help="serial vs parallel chunk-execution benchmark")
    p_bench.add_argument("--matrices", default="stokes,nlp",
                        help="comma-separated suite names/abbrs")
    p_bench.add_argument("--workers", type=_positive_int, default=4,
                        help="parallel worker count to compare against serial")
    p_bench.add_argument("--backend", choices=["thread", "process", "both"],
                        default="both",
                        help="parallel backend(s) to time against serial "
                             "(default: both)")
    p_bench.add_argument("--grid", type=int, default=None, metavar="N",
                        help="force an NxN chunk grid (default: planned)")
    p_bench.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per configuration; min and "
                             "median wall times are reported, speedup uses "
                             "the mins (default 3)")
    p_bench.add_argument("--kernel", choices=list(KERNEL_KINDS), default=None,
                        help="SpGEMM kernel for every timed run "
                             "(default: auto)")
    p_bench.add_argument("--autotune", action="store_true",
                        help="also time a serial run whose grid, kernel, and "
                             "hybrid ratio come from the sampled nnz "
                             "estimator (spgemm/estimate.py) and record it "
                             "against the default grid")
    p_bench.add_argument("--no-estimate", action="store_true",
                        help="disable sampled estimation in the governed "
                             "run (pure upper-bound sizing fallback)")
    p_bench.add_argument("--gate-model-error", type=float, default=None,
                        metavar="FRAC",
                        help="exit nonzero when any run's recalibrated "
                             "model_mean_abs_rel_error reaches FRAC or any "
                             "chunk is an outlier (CI gate)")
    p_bench.add_argument("--shards", type=_positive_int, default=None,
                         metavar="N",
                         help="additionally run each matrix sharded across "
                              "N simulated devices (distributed.shard) and "
                              "record per-shard utilization/transfers")
    p_bench.add_argument("--transport", choices=["local", "socket"],
                         default="local",
                         help="transport for the --shards leg: 'socket' "
                              "spawns shard-worker processes and records "
                              "measured transfer walls")
    p_bench.add_argument("--out", default="BENCH_parallel.json",
                        help="output JSON path")

    p_kb = sub.add_parser(
        "kernel-bench",
        help="single-thread kernel shoot-out: time every kernel on whole "
             "matrices and verify cross-kernel and scipy equivalence")
    p_kb.add_argument("--matrices", default="stokes,nlp",
                      help="comma-separated suite names/abbrs or .npz/.mtx paths")
    p_kb.add_argument("--kernels", default="all",
                      help="comma-separated kernel kinds to time (default: "
                           "all; native is skipped when not buildable)")
    p_kb.add_argument("--repeats", type=int, default=3,
                      help="timed repetitions per kernel; min and median "
                           "wall times are recorded (default 3)")
    p_kb.add_argument("--out", default="BENCH_kernels.json",
                      help="output JSON path")

    p_tr = sub.add_parser(
        "trace",
        help="run the real pipeline under the tracer and export a Chrome "
             "trace (measured spans + simulated schedule side by side)")
    p_tr.add_argument("matrix", help="suite name or .npz/.mtx path")
    p_tr.add_argument("--mode", choices=["sync", "async", "hybrid"], default="async")
    p_tr.add_argument("--device-mem", type=int, default=None, metavar="MiB")
    p_tr.add_argument("--workers", type=_positive_int, default=1,
                      help="workers for the real traced execution (default 1)")
    p_tr.add_argument("--backend", choices=["serial", "thread", "process"],
                      default=None,
                      help="chunk executor backend; process-backend worker "
                           "spans are merged into the exported trace")
    p_tr.add_argument("--kernel", choices=list(KERNEL_KINDS), default=None,
                      help="SpGEMM kernel (kernel and per-stage "
                           "throughput gauges land in the exported trace)")
    p_tr.add_argument("--window", type=_positive_int, default=None,
                      help="bounded in-flight window (default: 2 x workers)")
    p_tr.add_argument("--trace-out", "--out", dest="trace_out",
                      default="trace.json",
                      help="output .json (chrome://tracing / Perfetto)")

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument(
        "name",
        choices=["table1", "table2", "table3", "fig4", "fig7", "fig8",
                 "fig9", "fig10", "fig56", "ablations", "scaling", "breakdown", "chunksweep", "reorder", "all"],
    )

    p_srv = sub.add_parser(
        "serve",
        help="run the async multi-tenant SpGEMM job server "
             "(HTTP/JSON + NDJSON event streaming; see docs/SERVING.md)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8642,
                       help="TCP port (0 = ephemeral, printed at start)")
    p_srv.add_argument("--unix-socket", default=None, metavar="PATH",
                       help="additionally serve on this unix socket")
    p_srv.add_argument("--slots", type=_positive_int, default=4,
                       help="concurrent jobs on the shared worker pool")
    p_srv.add_argument("--host-mem", type=int, default=2048, metavar="MiB",
                       help="cross-job host-memory admission budget "
                            "(default 2048 MiB)")
    p_srv.add_argument("--cache-mem", type=int, default=256, metavar="MiB",
                       help="content-addressed operand cache budget "
                            "(default 256 MiB)")
    p_srv.add_argument("--shards", type=_positive_int, default=1,
                       help="device shards jobs are placed across "
                            "(least-loaded placement; default 1)")
    p_srv.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="write one Chrome trace per traced job here")

    p_sb = sub.add_parser(
        "serve-bench",
        help="serving load test: drive concurrent jobs through a real "
             "socket; p50/p99 latency, throughput, cache hit rate -> "
             "BENCH_serve.json")
    p_sb.add_argument("--jobs", type=_positive_int, default=120,
                      help="jobs per phase, all submitted concurrently "
                           "(two phases: cold then warm; default 120)")
    p_sb.add_argument("--tenants", type=_positive_int, default=4)
    p_sb.add_argument("--operands", type=_positive_int, default=6,
                      help="distinct operands in the warm phase's shared "
                           "pool (default 6)")
    p_sb.add_argument("--slots", type=_positive_int, default=4,
                      help="server worker-pool slots (default 4)")
    p_sb.add_argument("--workers", type=_positive_int, default=1,
                      help="engine workers per job (default 1)")
    p_sb.add_argument("--backend", choices=["serial", "thread", "process"],
                      default=None, help="engine backend per job")
    p_sb.add_argument("--scale", type=int, default=9,
                      help="rmat scale of the workload operands (default 9)")
    p_sb.add_argument("--degree", type=int, default=8,
                      help="rmat average degree (default 8)")
    p_sb.add_argument("--host-mem", type=int, default=1024, metavar="MiB",
                      help="server admission budget (default 1024 MiB)")
    p_sb.add_argument("--no-oracle", action="store_true",
                      help="skip the bit-identity oracle recomputation")
    p_sb.add_argument("--oracle-scipy", action="store_true",
                      help="additionally verify oracle products against "
                           "scipy (slower; the CI smoke uses this)")
    p_sb.add_argument("--out", default="BENCH_serve.json",
                      help="output JSON path (deltas are printed against "
                           "the previous record there)")
    p_shb = sub.add_parser(
        "shard-bench",
        help="multi-device scaling curve: one workload sharded across "
             "1..N simulated devices -> BENCH_scaling.json")
    p_shb.add_argument("--matrix", default=None,
                       help="suite name or .npz/.mtx path (default: a "
                            "seeded rmat of --scale)")
    p_shb.add_argument("--scale", type=int, default=11,
                       help="rmat scale of the default workload (default 11)")
    p_shb.add_argument("--degree", type=int, default=8,
                       help="rmat average degree (default 8)")
    p_shb.add_argument("--seed", type=int, default=0)
    p_shb.add_argument("--shards", default="1,2,4,8",
                       help="comma-separated shard counts (default 1,2,4,8)")
    p_shb.add_argument("--workers", type=_positive_int, default=1,
                       help="engine workers per shard (default 1)")
    p_shb.add_argument("--backend", choices=["serial", "thread", "process"],
                       default=None, help="engine backend per shard")
    p_shb.add_argument("--grid", type=int, default=16, metavar="N",
                       help="row panels of the chunk grid (default 16; "
                            "column panels fixed at 2)")
    p_shb.add_argument("--host-mem", type=int, default=512, metavar="MiB",
                       help="node host-memory budget shared by all shards "
                            "(default 512 MiB)")
    p_shb.add_argument("--transport", choices=["local", "socket"],
                       default="local",
                       help="'local' runs shards in-process with modeled "
                            "transfers; 'socket' drives spawned "
                            "shard-worker processes and records *measured* "
                            "transfer walls")
    p_shb.add_argument("--socket-kind", choices=["unix", "tcp"],
                       default="unix",
                       help="socket flavor for --transport socket "
                            "(default unix)")
    p_shb.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the largest shard count's merged Chrome "
                            "trace (tracer streams + transfer timeline) here")
    p_shb.add_argument("--out", default=None,
                       help="output JSON path (default BENCH_scaling.json, "
                            "or BENCH_scaling_socket.json with "
                            "--transport socket — the two curves never "
                            "clobber each other)")

    p_sw = sub.add_parser(
        "shard-worker",
        help="host one remote shard's executor: serve run requests over "
             "the length-prefixed socket transport (see docs/SHARDING.md)")
    p_sw.add_argument("--listen", default="tcp:127.0.0.1:0",
                      metavar="ADDR",
                      help="listen address, tcp:HOST:PORT or unix:PATH "
                           "(default tcp:127.0.0.1:0 = ephemeral port)")
    p_sw.add_argument("--announce", action="store_true",
                      help="print 'LISTENING <addr>' on stdout once bound "
                           "(how a spawning node discovers the real port)")
    return parser


def _load_matrix(spec: str) -> CSRMatrix:
    """Resolve a CLI matrix operand: file path or suite name."""
    by_name = {e.name: e for e in SUITE}
    by_name.update({e.abbr: e for e in SUITE})
    if spec in by_name:
        from .experiments.runner import get_matrix

        return get_matrix(by_name[spec].abbr)
    if spec.endswith(".npz"):
        return load_npz(spec)
    if spec.endswith(".mtx"):
        return read_matrix_market(spec)
    raise SystemExit(
        f"cannot resolve matrix {spec!r}: not a suite name and not .npz/.mtx"
    )


def _save_matrix(path: str, mat: CSRMatrix) -> None:
    if path.endswith(".npz"):
        save_npz(path, mat)
    elif path.endswith(".mtx"):
        write_matrix_market(path, mat)
    else:
        raise SystemExit(f"output must be .npz or .mtx, got {path!r}")


def _cmd_info(_args) -> int:
    from . import __version__
    from .experiments.table1 import run as table1_run

    print(f"repro {__version__} — out-of-core CPU-GPU SpGEMM reproduction")
    print(table1_run())
    return 0


def _cmd_suite(args) -> int:
    if args.features:
        from .experiments.table2 import run as table2_run

        print(table2_run())
    else:
        for e in SUITE:
            print(f"{e.abbr:<10} {e.name:<22} [{e.family}]  {e.description}")
    return 0


def _cmd_gen(args) -> int:
    if args.family == "rmat":
        scale = max(1, (args.n - 1).bit_length())
        mat = generators.rmat(scale, args.degree, seed=args.seed)
    elif args.family == "erdos-renyi":
        mat = generators.erdos_renyi(args.n, args.degree, seed=args.seed)
    else:
        mat = generators.banded(args.n, args.bandwidth, seed=args.seed, fill=args.fill)
    _save_matrix(args.out, mat)
    print(f"wrote {mat} -> {args.out}")
    return 0


def _cmd_multiply(args) -> int:
    a = _load_matrix(args.a)
    b = _load_matrix(args.b) if args.b else a
    if args.device_mem is not None:
        node = v100_node(args.device_mem << 20)
    else:
        from .core.planner import working_set_bytes
        from .spgemm.flops import total_flops
        from .spgemm.symbolic import symbolic_sort

        flops = total_flops(a, b)
        nnz_out = int(symbolic_sort(a, b).sum())
        from .core.chunks import csr_bytes

        inputs = csr_bytes(a.n_rows, a.nnz) + csr_bytes(b.n_rows, b.nnz)
        rest = working_set_bytes(a.n_rows, max(a.nnz, b.nnz), flops, nnz_out) - inputs
        node = v100_node(inputs + max(rest // 2, 8 << 20))

    keep = args.out is not None
    retry = None
    if args.retries > 1:
        from .core.executor import RetryPolicy

        retry = RetryPolicy(max_attempts=args.retries,
                            base_delay=args.retry_delay)
    governor = None
    if (args.deadline is not None or args.heartbeat_interval is not None
            or args.host_mem_budget is not None):
        from .core.governor import Governor, GovernorConfig

        governor = Governor(GovernorConfig(
            deadline_seconds=args.deadline,
            heartbeat_interval=args.heartbeat_interval,
            host_mem_budget_bytes=(args.host_mem_budget << 20
                                   if args.host_mem_budget is not None
                                   else None),
        ))
    if args.mode == "hybrid":
        if args.checkpoint or args.resume:
            raise SystemExit(
                "--checkpoint/--resume support the sync/async modes only"
            )
        result = run_hybrid(a, b, node, ratio=args.ratio, keep_output=keep,
                            name=args.a, workers=args.workers,
                            backend=args.backend, kernel=args.kernel,
                            retry=retry, crash_budget=args.crash_budget,
                            governor=governor)
    else:
        store = None
        checkpoint = resume = None
        if args.resume:
            from .core.spill import DiskChunkStore, RunManifest

            resume = RunManifest.load(args.resume)
            if resume.store_dir is not None:
                store = DiskChunkStore(resume.store_dir)
            elif keep:
                raise SystemExit(
                    f"manifest {args.resume} records no spill directory; "
                    "cannot rebuild the full product (--out) from it"
                )
        elif args.checkpoint:
            from .core.spill import DiskChunkStore

            store = DiskChunkStore(args.checkpoint + ".chunks")
            checkpoint = args.checkpoint
        result = run_out_of_core(
            a, b, node, mode=args.mode, keep_output=keep, name=args.a,
            order="natural" if args.mode == "sync" else "flops_desc",
            workers=args.workers, backend=args.backend, kernel=args.kernel,
            retry=retry, crash_budget=args.crash_budget,
            chunk_store=store, checkpoint=checkpoint, resume=resume,
            governor=governor,
        )
    grid = result.profile.grid
    print(result.summary())
    if governor is not None and governor.hostmem is not None:
        hm = governor.hostmem
        print(f"host-mem budget {hm.budget_bytes >> 20} MiB: "
              f"peak {hm.peak_bytes} bytes, overcommits {hm.overcommits}")
    if args.mode != "hybrid":
        if args.resume:
            done = result.profile.grid.num_chunks - result.resumed_chunks
            print(f"resumed {result.resumed_chunks} chunks from "
                  f"{args.resume}; recomputed {done}")
        elif args.checkpoint:
            print(f"checkpoint manifest -> {args.checkpoint} "
                  f"(chunks in {args.checkpoint}.chunks/)")
    print(
        f"grid {grid.num_row_panels}x{grid.num_col_panels}, "
        f"device {node.gpu.device_memory_bytes >> 20} MiB, "
        f"output nnz {result.profile.total_nnz_out}"
    )
    if keep:
        _save_matrix(args.out, result.matrix)
        print(f"product written to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    """Serial vs parallel chunk execution on suite matrices -> JSON record.

    Each matrix runs through the real out-of-core chunk pipeline with
    ``workers=1`` (serial baseline) and ``workers=N`` on the requested
    backend(s) — thread, process, or both — asserting bit-identical
    products and recording measured wall-clock (min and median over
    ``--repeats``), GFLOPS, and the model-vs-measured error, so future
    PRs have a perf trajectory to compare against.  Speedups divide the
    min serial time by the min parallel time (min is the standard
    low-noise wall-clock estimator).  The legacy top-level keys
    (``parallel_seconds`` / ``speedup`` / ``identical``) report the
    *primary* backend — the one with the best measured ``min_seconds``
    on that matrix (a fixed preference order would headline a backend
    that measured slower, e.g. process on a single-core host).
    """
    import json
    import os
    import statistics

    import numpy as np

    from .core.assemble import assemble_chunks
    from .core.chunks import ChunkGrid
    from .core.executor import execute_chunk_grid
    from .core.planner import plan_grid
    from .device.kernels import fit_cost_model
    from .metrics.modelerror import model_error_report

    names = [s.strip() for s in args.matrices.split(",") if s.strip()]
    if not names:
        raise SystemExit("bench: no matrices given")
    if args.workers < 2:
        raise SystemExit("bench: --workers must be >= 2 to compare against serial")
    backends = ["thread", "process"] if args.backend == "both" else [args.backend]
    repeats = max(args.repeats, 1)

    runs = []
    for spec in names:
        a = _load_matrix(spec)
        from .experiments.runner import get_node
        from .sparse.suite import SUITE as _S

        known = {e.abbr for e in _S} | {e.name for e in _S}
        node = get_node(spec) if spec in known else v100_node()
        if args.grid is not None:
            grid = ChunkGrid.regular(a.n_rows, a.n_cols, args.grid, args.grid)
        else:
            grid = plan_grid(a, a, node).grid

        # one sampled estimate per matrix (OCEAN-style, spgemm/estimate):
        # feeds the governed run's admission/pre-check and --autotune
        estimate = None
        if not args.no_estimate:
            from .spgemm.estimate import estimate_row_nnz

            estimate = estimate_row_nnz(a, a, seed=0)

        def timed(workers: int, backend: str, grid=grid, kernel=args.kernel):
            """One full profiled run (outputs kept, for the identity check
            and the model-error report), then ``repeats - 1`` timing-only
            repeats — the workload statistics are deterministic, so only
            the wall clock needs re-measuring."""
            profile, outputs = execute_chunk_grid(
                a, a, grid, keep_outputs=True, name=spec,
                workers=workers, backend=backend, kernel=kernel,
            )
            times = [profile.measured_wall_seconds]
            for _ in range(repeats - 1):
                rep, _none = execute_chunk_grid(
                    a, a, grid, keep_outputs=False, name=spec,
                    workers=workers, backend=backend, kernel=kernel,
                )
                times.append(rep.measured_wall_seconds)
            return profile, outputs, min(times), statistics.median(times)

        # warm the kernel path once on a toy matrix (native lib load,
        # allocator pools) so the first timed chunk doesn't absorb
        # one-time process costs and skew the model-error report
        from .sparse.generators import banded as _banded
        from .spgemm.twophase import spgemm_twophase as _warm

        _warm(_banded(64, 3, seed=0), _banded(64, 3, seed=0), kernel=args.kernel)

        serial_profile, serial_out, s_min, s_median = timed(1, "serial")
        c_serial = assemble_chunks(serial_out)

        per_backend = {}
        for backend in backends:
            profile, outputs, p_min, p_median = timed(args.workers, backend)
            c_par = assemble_chunks(outputs)
            identical = (
                np.array_equal(c_serial.row_offsets, c_par.row_offsets)
                and np.array_equal(c_serial.col_ids, c_par.col_ids)
                and np.array_equal(c_serial.data, c_par.data)
            )
            per_backend[backend] = {
                "min_seconds": p_min,
                "median_seconds": p_median,
                "speedup": s_min / p_min if p_min > 0 else 0.0,
                # throughput against the best (min) wall time
                "gflops": (profile.total_flops / p_min / 1e9
                           if p_min > 0 else 0.0),
                "identical": bool(identical),
                "profile": profile,
            }
            print(
                f"{spec:<10} grid {grid.num_row_panels}x{grid.num_col_panels}  "
                f"serial {s_min * 1e3:8.1f} ms  "
                f"{backend}[{args.workers}w] min {p_min * 1e3:8.1f} ms "
                f"median {p_median * 1e3:8.1f} ms  "
                f"speedup {per_backend[backend]['speedup']:5.2f}x  "
                f"identical={identical}"
            )

        # headline backend: whichever measured fastest on this matrix
        primary = min(backends, key=lambda k: per_backend[k]["min_seconds"])
        if len(backends) > 1:
            print(f"{spec:<10} primary backend: {primary} "
                  f"(best min_seconds of {', '.join(backends)})")

        # governed run: a host budget below the total output forces the
        # spill-under-pressure path and an undersized device pool
        # (sized from the *upper bound*) exercises the pre-check, so the
        # record carries a robustness trajectory (peak host bytes,
        # spilled bytes, timeouts, re-splits) alongside the perf one.
        # With estimation on, the pre-check consumes sampled chunk
        # bytes: chunks whose UB footprint exceeds the pool but whose
        # estimated footprint fits run whole (avoided_resplits), and
        # re-splits only fire on real pressure.
        import tempfile
        from pathlib import Path

        from .core.chunks import chunk_flops
        from .core.executor.plan import chunk_output_estimates
        from .core.governor import Governor, GovernorConfig
        from .core.memcheck import chunk_device_bytes
        from .core.spill import SpillableChunkStore
        from .observability import Tracer

        estimates = chunk_output_estimates(a, a, grid)
        host_budget = 2 * max(estimates)
        products = (chunk_flops(a, a, grid) // 2).ravel()
        row_counts = np.diff(grid.row_bounds)
        per_chunk_dev = [
            chunk_device_bytes(int(row_counts[cid // grid.num_col_panels]),
                               int(products[cid]))
            for cid in range(grid.num_chunks)
        ]
        # just under the largest chunk: the densest chunk(s) re-split,
        # the rest run whole — exercises recovery without dominating
        # the bench wall clock
        device_pool = max(int(0.9 * max(per_chunk_dev)), 1024)
        gov_tracer = Tracer()
        governed = {}
        with tempfile.TemporaryDirectory(prefix="repro-bench-spill-") as sd:
            store = SpillableChunkStore(Path(sd) / "chunks",
                                        tracer=gov_tracer)
            gov = Governor(GovernorConfig(host_mem_budget_bytes=host_budget,
                                          device_pool_bytes=device_pool),
                           tracer=gov_tracer)
            gov.attach_store(store)
            gov_profile, _ = execute_chunk_grid(
                a, a, grid, keep_outputs=False, chunk_sink=store.put,
                name=spec, workers=args.workers, backend=primary,
                tracer=gov_tracer, governor=gov, kernel=args.kernel,
                estimate=estimate,
            )
            c_gov = store.assemble()
            gov_identical = (
                np.array_equal(c_serial.row_offsets, c_gov.row_offsets)
                and np.array_equal(c_serial.col_ids, c_gov.col_ids)
                and np.array_equal(c_serial.data, c_gov.data)
            )
            counters = gov_tracer.counters("faults")
            governed = {
                "backend": primary,
                "host_budget_bytes": int(host_budget),
                "device_pool_bytes": int(device_pool),
                "peak_host_bytes": int(gov.hostmem.peak_bytes),
                "spilled_bytes": int(store.spilled_bytes_total),
                "overcommits": int(gov.hostmem.overcommits),
                "timeouts": int(counters.get("timeouts", 0)),
                "resplits": int(counters.get("resplits", 0)),
                "avoided_resplits": int(counters.get("avoided_resplits", 0)),
                "estimated": estimate is not None,
                "wall_seconds": gov_profile.measured_wall_seconds,
                "identical": bool(gov_identical),
            }
        print(
            f"{spec:<10} governed[{primary}]  "
            f"peak host {governed['peak_host_bytes']} / "
            f"{host_budget} B  spilled {governed['spilled_bytes']} B  "
            f"resplits {governed['resplits']} "
            f"(avoided {governed['avoided_resplits']})  "
            f"identical={gov_identical}"
        )

        prim = per_backend[primary]
        # model error against the *recalibrated* per-kernel cost model:
        # stage coefficients fitted from the serial profile's measured
        # per-chunk stage times (contention-free), then compared chunk by
        # chunk.  The analytic model's fixed coefficients date from the
        # pre-fast-kernel era and misprice every kernel by a different
        # shape — the post-PR-6 outlier class.
        cost = fit_cost_model([serial_profile], node=v100_node())
        err = model_error_report(serial_profile, cost)
        # per-stage throughput of the serial run: host seconds each stage
        # spent summed over chunks, and the whole-workload GFLOP/s it
        # implies (stage gauges mirror the tracer's throughput[...] gauges)
        flops_total = serial_profile.total_flops
        stage_seconds = {}
        stage_gflops = {}
        for stage in ("analysis", "symbolic", "numeric"):
            secs = [getattr(c, f"{stage}_seconds")
                    for c in serial_profile.chunks]
            secs = [s for s in secs if s >= 0.0]
            total = float(sum(secs)) if secs else -1.0
            stage_seconds[stage] = total
            stage_gflops[stage] = (flops_total / total / 1e9
                                   if total > 0 else 0.0)
        kernel_used = (serial_profile.chunks[0].kernel
                       or (args.kernel or "auto"))
        print(
            f"{spec:<10} stages[serial/{kernel_used}]  "
            + "  ".join(f"{st} {stage_seconds[st] * 1e3:7.1f} ms "
                        f"({stage_gflops[st]:.3f} GF/s)"
                        for st in ("analysis", "symbolic", "numeric"))
        )
        serial_gflops = (serial_profile.total_flops / s_min / 1e9
                         if s_min > 0 else 0.0)

        # --autotune: grid + kernel + hybrid ratio from one sampled
        # estimate (core.planner.plan_autotuned), timed serially against
        # the default grid above and checked bit-identical against it
        autotune = None
        if args.autotune:
            from .core.planner import plan_autotuned

            # measured trial: the estimate prunes the grid space to a
            # short admissible list (estimate-planned, UB default, and a
            # row-only ladder); one quick serial run per candidate picks
            # the winner by wall clock rather than by model
            def _trial(g, kspec):
                p, _none = execute_chunk_grid(
                    a, a, g, keep_outputs=False, name=spec,
                    workers=1, backend="serial", kernel=kspec.encode(),
                )
                return p.measured_wall_seconds

            at = plan_autotuned(a, a, node, seed=0, trial=_trial)
            at_kernel = at.kernel.encode()
            at_profile, at_out, at_min, at_median = timed(
                1, "serial", grid=at.grid, kernel=at_kernel)
            # re-time the default grid back-to-back with the tuned one:
            # minutes of benching separate the first serial measurement
            # from this point, and cache/load drift would otherwise
            # dominate the few-percent grid effect being compared
            _p, _o, base_min, _m = timed(1, "serial")
            base_gflops = (_p.total_flops / base_min / 1e9
                           if base_min > 0 else 0.0)
            c_at = assemble_chunks(at_out)
            at_identical = (
                np.array_equal(c_serial.row_offsets, c_at.row_offsets)
                and np.array_equal(c_serial.col_ids, c_at.col_ids)
                and np.array_equal(c_serial.data, c_at.data)
            )
            at_gflops = (at_profile.total_flops / at_min / 1e9
                         if at_min > 0 else 0.0)
            actual_nnz = at_profile.total_nnz_out
            est_nnz = at.estimate.total_nnz
            autotune = {
                "grid": [at.grid.num_row_panels, at.grid.num_col_panels],
                "kernel": at_kernel,
                "hybrid_ratio": at.ratio,
                "sampled_rows": int(at.estimate.sampled_rows.size),
                "sample_fraction": at.estimate.sample_fraction,
                "estimated_nnz": est_nnz,
                "estimated_nnz_hi": at.estimate.total_nnz_hi,
                "actual_nnz": int(actual_nnz),
                "estimate_rel_error": (abs(est_nnz - actual_nnz) / actual_nnz
                                       if actual_nnz else 0.0),
                "serial_seconds": at_min,
                "serial_median_seconds": at_median,
                "serial_gflops": at_gflops,
                "default_serial_seconds": base_min,
                "default_serial_gflops": base_gflops,
                "beats_default": bool(at_gflops > base_gflops),
                "identical": bool(at_identical),
            }
            print(
                f"{spec:<10} autotune  grid "
                f"{at.grid.num_row_panels}x{at.grid.num_col_panels} "
                f"kernel {at_kernel}  ratio {at.ratio:.2f}  "
                f"est nnz {est_nnz:.0f} vs actual {actual_nnz} "
                f"({autotune['estimate_rel_error']:.1%} off)  "
                f"serial {at_min * 1e3:8.1f} ms "
                f"({at_gflops:.4f} GF/s vs default {base_gflops:.4f})  "
                f"beats_default={autotune['beats_default']}  "
                f"identical={at_identical}"
            )

        # --shards: the same workload across N simulated devices under
        # one shared node ledger; identity against the serial product is
        # the cross-layer bit-identity gate (engine -> shard -> assemble)
        sharded = None
        if args.shards:
            from .distributed.shard import (ShardConfig, ShardedRunError,
                                            run_sharded)

            try:
                sh = run_sharded(
                    a, a, ShardConfig(
                        num_shards=args.shards, workers=args.workers,
                        backend=(args.backend if args.backend != "both"
                                 else None),
                        kernel=args.kernel,
                        governor=GovernorConfig(
                            host_mem_budget_bytes=host_budget),
                        transport=getattr(args, "transport", "local"),
                    ),
                    grid=grid, name=spec,
                )
            except ShardedRunError as err:
                _print_sharded_error("bench", err)
                return 1
            sh_identical = sh.matrix == c_serial
            sharded = {
                "shards": sh.num_shards,
                "transport": sh.transport,
                "wall_seconds": sh.wall_seconds,
                "sim_makespan_seconds": sh.sim_makespan,
                "transfer_bytes_total": sh.transfer_bytes_total,
                "transfer_seconds_measured": sh.measured_transfer_seconds,
                "ledger_peak_bytes": sh.ledger_peak_bytes,
                "overcommits": sh.ledger_overcommits,
                "identical": bool(sh_identical),
                "per_shard": [r.as_dict() for r in sh.records],
            }
            print(
                f"{spec:<10} sharded[{sh.num_shards}]  wall "
                f"{sh.wall_seconds * 1e3:8.1f} ms  sim makespan "
                f"{sh.sim_makespan * 1e3:8.1f} ms  transfers "
                f"{sh.transfer_bytes_total} B  identical={sh_identical}"
            )

        # model_mean_abs_rel_error is a dimensionless *fraction* (1.0 =
        # 100% relative error), see repro.metrics.modelerror
        runs.append({
            "matrix": spec,
            "n": a.n_rows,
            "nnz": a.nnz,
            "flops": serial_profile.total_flops,
            "grid": [grid.num_row_panels, grid.num_col_panels],
            "workers": args.workers,
            "backend": primary,
            "kernel": kernel_used,
            "serial_stage_seconds": stage_seconds,
            "serial_stage_gflops": stage_gflops,
            "serial_seconds": s_min,
            "serial_median_seconds": s_median,
            "parallel_seconds": prim["min_seconds"],
            "parallel_median_seconds": prim["median_seconds"],
            "speedup": prim["speedup"],
            "serial_gflops": serial_gflops,
            "parallel_gflops": prim["gflops"],
            "identical": all(r["identical"] for r in per_backend.values()),
            "backends": {
                name: {k: v for k, v in rec.items() if k != "profile"}
                for name, rec in per_backend.items()
            },
            "model_mean_abs_rel_error": err.mean_abs_rel_error,
            "model_median_abs_rel_error": err.median_abs_rel_error,
            "model_p95_abs_rel_error": err.p95_abs_rel_error,
            "model_outliers": err.outliers,
            "model_correlation": err.correlation,
            "model_cost": "per_kernel_stage_fit",
            "governed": governed,
            "autotune": autotune,
            "sharded": sharded,
        })

    cpu_count = os.cpu_count() or 1
    single_core = cpu_count <= 1
    if single_core:
        print(
            "WARNING: single-core host (cpu_count == 1): workers cannot run "
            "concurrently, so the speedup numbers above measure executor "
            "overhead, not parallel scaling."
        )
    payload = {
        "bench": "parallel_chunk_execution",
        "cpu_count": cpu_count,
        # speedup on a single-core host measures executor overhead only;
        # consumers should skip speedup comparisons when this flag is set
        "single_core_host": single_core,
        "units": {
            "model_mean_abs_rel_error": "fraction (1.0 = 100%)",
            "model_median_abs_rel_error": "fraction (1.0 = 100%)",
            "model_p95_abs_rel_error": "fraction (1.0 = 100%)",
            "model_outliers": "chunks with rel error > 0.5",
            "serial_stage_seconds": "seconds (summed over chunks; -1 = unmeasured)",
            "serial_stage_gflops": "GFLOP/s (total flops / stage seconds)",
            "serial_seconds": "seconds",
            "parallel_seconds": "seconds",
            "min_seconds": "seconds",
            "median_seconds": "seconds",
            "governed.host_budget_bytes": "bytes",
            "governed.device_pool_bytes": "bytes",
            "governed.peak_host_bytes": "bytes",
            "governed.spilled_bytes": "bytes",
            "governed.wall_seconds": "seconds",
            "governed.avoided_resplits": (
                "chunks the UB pre-check would have re-split but the "
                "sampled estimate admitted whole"),
            "autotune.hybrid_ratio": "GPU work share S/(S+1), fraction",
            "autotune.estimate_rel_error": "fraction (1.0 = 100%)",
        },
        "workers": args.workers,
        "backends": backends,
        # most common per-matrix primary (each matrix headlines its own
        # fastest backend; ties resolve to the earliest in --backend)
        "primary_backend": max(
            backends, key=lambda b: sum(r["backend"] == b for r in runs)
        ),
        "repeats": repeats,
        "runs": runs,
    }
    # compare against the previous record at --out, if one exists; a
    # fresh clone (or a corrupt file) has no baseline and that is fine
    baseline_runs = {}
    try:
        with open(args.out) as fh:
            baseline = json.load(fh)
        baseline_runs = {r["matrix"]: r for r in baseline.get("runs", [])
                         if isinstance(r, dict) and "matrix" in r}
    except (OSError, ValueError):
        pass
    if baseline_runs:
        for run in runs:
            prev = baseline_runs.get(run["matrix"])
            if prev is None or not prev.get("speedup"):
                continue
            delta = run["speedup"] / prev["speedup"] - 1.0
            print(f"{run['matrix']:<10} speedup vs previous record: "
                  f"{prev['speedup']:.2f}x -> {run['speedup']:.2f}x "
                  f"({delta:+.1%})")
            prev_g = prev.get("serial_gflops")
            if prev_g:
                g = run["serial_gflops"]
                print(f"{run['matrix']:<10} serial GFLOP/s vs previous "
                      f"record: {prev_g:.4f} -> {g:.4f} "
                      f"({g / prev_g - 1.0:+.1%})")
    else:
        print(f"no previous benchmark record at {args.out}; writing a fresh baseline")

    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(runs)} run(s) -> {args.out}")

    if args.gate_model_error is not None:
        failed = []
        for run in runs:
            if (run["model_mean_abs_rel_error"] >= args.gate_model_error
                    or run["model_outliers"] > 0):
                failed.append(
                    f"{run['matrix']}: mean_abs_rel_error="
                    f"{run['model_mean_abs_rel_error']:.4f} "
                    f"(gate {args.gate_model_error}), "
                    f"outliers={run['model_outliers']}"
                )
            at = run.get("autotune")
            if at is not None and not at["identical"]:
                failed.append(f"{run['matrix']}: autotuned product diverged")
        if failed:
            for line in failed:
                print(f"MODEL-ERROR GATE FAILED  {line}")
            return 1
        print(f"model-error gate passed (< {args.gate_model_error}, 0 outliers)")
    return 0


def _cmd_kernel_bench(args) -> int:
    """Single-thread shoot-out of the kernels -> JSON record.

    Every requested kernel multiplies each matrix by itself through
    :func:`~repro.spgemm.twophase.spgemm_twophase` (whole matrix, one
    thread — the per-kernel number parallel speedups build on).  Every
    product must be **bit-identical** to the ``esc`` kernel's (all kernels
    sum duplicates in the same expansion order, see docs/KERNELS.md) and
    allclose to scipy's ``A @ A`` (recorded as ``scipy_allclose``).  Any
    failure of either check makes the command exit nonzero, so CI can
    gate on it.
    """
    import json
    import statistics
    import time

    import numpy as np

    from .sparse.ops import drop_explicit_zeros
    from .spgemm.flops import total_flops
    from .spgemm.native import native_available, native_build_error
    from .spgemm.reference import spgemm_scipy
    from .spgemm.twophase import spgemm_twophase

    if args.kernels.strip() == "all":
        kernels = [k for k in KERNEL_KINDS if k != "auto"]
    else:
        kernels = [s.strip() for s in args.kernels.split(",") if s.strip()]
        bad = sorted(set(kernels) - set(KERNEL_KINDS))
        if bad:
            raise SystemExit(f"kernel-bench: unknown kernel(s) {bad}; "
                             f"choose from {list(KERNEL_KINDS)}")
    if "native" in kernels and not native_available():
        print(f"kernel-bench: native kernel unavailable "
              f"({native_build_error()}); skipping it")
        kernels = [k for k in kernels if k != "native"]
    if not kernels:
        raise SystemExit("kernel-bench: no kernels to run")
    names = [s.strip() for s in args.matrices.split(",") if s.strip()]
    if not names:
        raise SystemExit("kernel-bench: no matrices given")
    repeats = max(args.repeats, 1)

    runs = []
    failures = 0
    for spec in names:
        a = _load_matrix(spec)
        flops = total_flops(a, a)
        ref = spgemm_twophase(a, a, kernel="esc").matrix
        expected = spgemm_scipy(a, a)
        rows = {}
        for kind in kernels:
            times = []
            result = None
            for _ in range(repeats):
                t0 = time.perf_counter()
                result = spgemm_twophase(a, a, kernel=kind)
                times.append(time.perf_counter() - t0)
            c = result.matrix
            equivalent = (
                np.array_equal(ref.row_offsets, c.row_offsets)
                and np.array_equal(ref.col_ids, c.col_ids)
                and np.array_equal(ref.data, c.data)
            )
            scipy_ok = drop_explicit_zeros(c).allclose(
                expected, rtol=1e-9, atol=1e-12)
            if not (equivalent and scipy_ok):
                failures += 1
            best = min(times)
            rows[kind] = {
                "min_seconds": best,
                "median_seconds": statistics.median(times),
                "gflops": flops / best / 1e9 if best > 0 else 0.0,
                "equivalence_policy": "bit_identical",
                "equivalent": bool(equivalent),
                "scipy_allclose": bool(scipy_ok),
            }
            print(
                f"{spec:<10} {kind:<7} min {best * 1e3:8.1f} ms  "
                f"median {statistics.median(times) * 1e3:8.1f} ms  "
                f"{rows[kind]['gflops']:7.4f} GFLOP/s  "
                f"bit_identical={equivalent} scipy_allclose={scipy_ok}"
            )
        runs.append({
            "matrix": spec,
            "n": a.n_rows,
            "nnz": a.nnz,
            "flops": flops,
            "kernels": rows,
        })

    payload = {
        "bench": "kernel_shootout",
        "reference_kernel": "esc",
        "native_available": bool(native_available()),
        "repeats": repeats,
        "units": {
            "min_seconds": "seconds",
            "median_seconds": "seconds",
            "gflops": "GFLOP/s (2*flops convention of total_flops)",
        },
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(runs)} run(s) x {len(kernels)} kernel(s) -> {args.out}")
    if failures:
        print(f"kernel-bench: {failures} equivalence FAILURE(S)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args) -> int:
    """Run the real out-of-core pipeline under the tracer and export a
    Chrome trace: measured spans (queue wait, analysis/symbolic/numeric,
    sink writes, lane gauges) as pid 0, the cost-model schedule of the
    same workload as pid 1 — loadable side by side in Perfetto.  Prints
    the per-lane utilization and critical-path summary."""
    from .core.api import run_hybrid, run_out_of_core
    from .core.schedule import export_chrome_events
    from .observability import Tracer, render_summary, tracer_events, write_chrome_trace

    a = _load_matrix(args.matrix)
    if args.device_mem is not None:
        node = v100_node(args.device_mem << 20)
    else:
        from .experiments.runner import get_node
        from .sparse.suite import SUITE as _S

        known = {e.abbr for e in _S} | {e.name for e in _S}
        if args.matrix in known:
            node = get_node(args.matrix)
        else:
            node = v100_node()

    tracer = Tracer()
    # a traced store receives every chunk, so the trace shows the full
    # lifecycle including sink/store_put spans and the bytes-held gauge
    from .core.spill import MemoryChunkStore

    store = MemoryChunkStore(tracer=tracer)
    if args.mode == "hybrid":
        # run_hybrid has no chunk_store hook; keeping outputs exercises
        # the same traced sink path
        result = run_hybrid(a, a, node, keep_output=True, name=args.matrix,
                            workers=args.workers, window=args.window,
                            tracer=tracer, backend=args.backend,
                            kernel=args.kernel)
    else:
        result = run_out_of_core(
            a, a, node, mode=args.mode, keep_output=False, name=args.matrix,
            order="natural" if args.mode == "sync" else "flops_desc",
            workers=args.workers, window=args.window, tracer=tracer,
            chunk_store=store, backend=args.backend, kernel=args.kernel,
        )
    events = tracer_events(tracer) + export_chrome_events(result.timeline)
    write_chrome_trace(args.trace_out, events, metadata={
        "matrix": args.matrix, "mode": result.mode, "workers": args.workers,
        "backend": args.backend or "auto", "kernel": args.kernel or "auto",
    })
    print(render_summary(tracer))
    print(
        f"wrote {len(events)} events ({result.mode}, measured "
        f"{tracer.wall_seconds() * 1e3:.3f} ms + simulated "
        f"{result.elapsed * 1e3:.3f} ms) -> {args.trace_out}"
    )
    print("open with chrome://tracing or https://ui.perfetto.dev")
    return 0


def _cmd_experiment(args) -> int:
    from . import experiments

    table = {
        "table1": experiments.table1.run,
        "table2": experiments.table2.run,
        "table3": experiments.table3.run,
        "fig4": experiments.fig04.run,
        "fig7": experiments.fig07.run,
        "fig8": experiments.fig08.run,
        "fig9": experiments.fig09.run,
        "fig10": experiments.fig10.run,
        "fig56": experiments.fig56.run,
        "ablations": experiments.ablations.run,
        "scaling": experiments.scaling.run,
        "breakdown": experiments.breakdown.run,
        "chunksweep": experiments.chunksweep.run,
        "reorder": experiments.reorder_matrix.run,
        "all": experiments.run_all,
    }
    print(table[args.name]())
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import ServerConfig, SpgemmServer

    config = ServerConfig(
        host=args.host, port=args.port, unix_socket=args.unix_socket,
        slots=args.slots, shards=args.shards,
        host_mem_bytes=args.host_mem << 20,
        cache_bytes=args.cache_mem << 20,
        trace_dir=args.trace_dir,
    )

    async def _serve() -> None:
        server = SpgemmServer(config)
        await server.start()
        host, port = server.address
        print(f"repro serve: listening on http://{host}:{port}"
              + (f" and {config.unix_socket}" if config.unix_socket else ""))
        print(f"  slots={config.slots} shards={config.shards} host-mem="
              f"{config.host_mem_bytes >> 20}MiB "
              f"cache={config.cache_bytes >> 20}MiB")
        try:
            await asyncio.Event().wait()  # until interrupted
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: shut down")
    return 0


def _cmd_serve_bench(args) -> int:
    from .serve.bench import run_serve_bench

    payload = run_serve_bench(
        jobs=args.jobs, tenants=args.tenants, operands=args.operands,
        slots=args.slots, workers=args.workers, backend=args.backend,
        scale=args.scale, degree=args.degree,
        host_mem_bytes=args.host_mem << 20,
        oracle=not args.no_oracle, oracle_scipy=args.oracle_scipy,
        out=args.out,
    )
    failures = (payload["phases"]["cold"]["failed"]
                + payload["phases"]["warm"]["failed"])
    if failures:
        print(f"serve-bench: {failures} jobs failed")
        return 1
    if payload["oracle"].get("enabled") and payload["oracle"]["mismatches"]:
        print("serve-bench: served results diverged from the single-run "
              "engine (CRC mismatch)")
        return 1
    if not payload["ledger_within_budget"]:
        print("serve-bench: host-mem ledger exceeded its budget without "
              "an accounted overcommit")
        return 1
    return 0


def _print_sharded_error(where: str, err) -> None:
    """Render a :class:`~repro.distributed.shard.ShardedRunError` with
    its per-shard tracebacks (which die with their shard threads /
    worker processes unless carried on the error itself)."""
    print(f"{where}: {err}", file=sys.stderr)
    for t in sorted(err.failures):
        exc = err.failures[t]
        print(f"--- shard {t}: {type(exc).__name__}: {exc} ---",
              file=sys.stderr)
        tb = err.tracebacks.get(t, "").rstrip()
        print(tb if tb else "  (no traceback recorded)", file=sys.stderr)


def _cmd_shard_worker(args) -> int:
    from .distributed.transport import shard_worker_main

    return shard_worker_main(args.listen, announce=args.announce)


def _cmd_shard_bench(args) -> int:
    """One workload across 1..N devices -> a scaling-curve JSON.

    Every shard count runs the same chunk grid through
    :func:`repro.distributed.shard.run_sharded` under one node
    host-memory budget.  With the default ``--transport local`` the
    curve records, per count, the *simulated* makespan (per-shard
    measured kernel seconds + alpha-beta modeled B-broadcast/C-gather
    transfers — the honest multi-device number on a host whose cores
    the shards share) next to the measured node wall.  With
    ``--transport socket`` each count drives real ``shard-worker``
    processes over one shared pool and the transfer legs are *measured*
    walls clocked on the wire, so no compute normalization is applied.
    Exit 1 if any count's product is not bit-identical to the 1-shard
    product.
    """
    import json

    from .core.chunks import ChunkGrid
    from .core.governor import GovernorConfig
    from .distributed.shard import ShardConfig, ShardedRunError, run_sharded
    from .sparse import generators

    if args.matrix:
        a = _load_matrix(args.matrix)
        label = args.matrix
    else:
        a = generators.rmat(args.scale, args.degree, seed=args.seed)
        label = f"rmat{args.scale}"
    counts = sorted({int(x) for x in args.shards.split(",") if x.strip()})
    if not counts or counts[0] < 1:
        raise SystemExit("shard-bench: --shards needs positive counts")
    row_panels = max(args.grid, max(counts))
    grid = ChunkGrid.regular(a.n_rows, a.n_cols, row_panels, 2)
    budget = args.host_mem << 20
    socket_transport = args.transport == "socket"
    out = args.out or ("BENCH_scaling_socket.json" if socket_transport
                       else "BENCH_scaling.json")

    # warm the kernel path (native lib load, allocator pools) so the
    # 1-shard baseline's per-chunk walls don't absorb one-time costs
    from .sparse.generators import banded as _banded
    from .spgemm.twophase import spgemm_twophase as _warm

    _warm(_banded(64, 3, seed=0), _banded(64, 3, seed=0))

    pool = None
    if socket_transport:
        from .distributed.transport import RemoteShardPool

        # one worker per device across the whole curve: every count
        # drives a prefix of the same pool (1 -> N real processes)
        pool = RemoteShardPool.spawn(max(counts), kind=args.socket_kind)

    baseline = None
    base_makespan = None
    base_secs = None
    curve = []
    trace_events = None
    try:
        for n in counts:
            cfg = ShardConfig(num_shards=n, workers=args.workers,
                              backend=args.backend,
                              governor=GovernorConfig(
                                  host_mem_budget_bytes=budget),
                              transport=args.transport,
                              socket_kind=args.socket_kind)
            try:
                res = run_sharded(a, a, cfg, grid=grid,
                                  name=f"{label}.s{n}", worker_pool=pool)
            except ShardedRunError as err:
                _print_sharded_error("shard-bench", err)
                return 1
            if socket_transport:
                # measured walls: no normalization — the whole point of
                # the socket leg is that transfers are clocked, not priced
                pass
            elif base_secs is None:
                base_secs = {c.chunk_id: max(c.measured_seconds, 0.0)
                             for c in res.profile.chunks}
            else:
                # normalize the curve: price every count's compute from the
                # first run's per-chunk walls, so shard counts differ only
                # in partitioning + transfers, not in host-contention noise
                # (N shards time-share this host's cores while the simulated
                # devices they stand for would not)
                from .distributed.sharding import shard_transfer_timeline

                C = grid.num_col_panels
                for rec in res.records:
                    rec.compute_seconds = sum(
                        base_secs[rp * C + cp]
                        for rp in range(rec.rp_lo, rec.rp_hi)
                        for cp in range(C)
                    )
                res.timeline = shard_transfer_timeline(
                    res.records, b_bytes=a.nbytes(), network=cfg.network)
            if baseline is None:
                baseline = res.matrix
                base_makespan = res.sim_makespan
            identical = res.matrix == baseline
            speedup = (base_makespan / res.sim_makespan
                       if res.sim_makespan > 0 else 0.0)
            entry = {
                "shards": res.num_shards,
                "transport": args.transport,
                "wall_seconds": res.wall_seconds,
                "sim_makespan_seconds": res.sim_makespan,
                "sim_speedup": speedup,
                "transfer_bytes_total": res.transfer_bytes_total,
                "ledger_peak_bytes": res.ledger_peak_bytes,
                "overcommits": res.ledger_overcommits,
                "identical": bool(identical),
                "per_shard": [r.as_dict() for r in res.records],
            }
            if socket_transport:
                entry["transfer_seconds_measured"] = \
                    res.measured_transfer_seconds
                entry["bcast_seconds"] = sum(
                    r.bcast_seconds for r in res.records)
                entry["gather_seconds"] = sum(
                    r.gather_seconds for r in res.records)
                entry["reconnects"] = sum(
                    r.reconnects for r in res.records)
            curve.append(entry)
            trace_events = res.trace_events()
            util = "/".join(f"{r.utilization:.2f}" for r in res.records)
            xfer = (f"xfer {res.measured_transfer_seconds * 1e3:7.2f} ms"
                    if socket_transport
                    else f"transfers {res.transfer_bytes_total:>10} B")
            print(
                f"{label:<10} shards {res.num_shards:>2}  sim makespan "
                f"{res.sim_makespan * 1e3:8.2f} ms  speedup {speedup:5.2f}x  "
                f"{xfer}  util {util}  identical={identical}"
            )
    finally:
        if pool is not None:
            pool.close()

    all_identical = all(c["identical"] for c in curve)
    payload = {
        "bench": "shard_scaling",
        "matrix": label,
        "n": a.n_rows,
        "nnz": a.nnz,
        "grid": [grid.num_row_panels, grid.num_col_panels],
        "workers_per_shard": args.workers,
        "backend": args.backend or "auto",
        "transport": args.transport,
        "host_mem_bytes": budget,
        "units": {
            "sim_makespan_seconds": (
                "device/NIC makespan: per-shard measured kernel walls + "
                + ("measured socket bcast/gather walls"
                   if socket_transport else "alpha-beta modeled transfers")),
            "wall_seconds": "measured node wall (shards share host cores)",
            "utilization": "per-shard device busy fraction of the makespan",
        },
        "identical": all_identical,
        "curve": curve,
    }
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"shard-bench: wrote {out}")
    if args.trace_out and trace_events is not None:
        from .observability import write_chrome_trace

        write_chrome_trace(args.trace_out, trace_events, metadata={
            "bench": "shard_scaling", "matrix": label,
            "transport": args.transport, "shards": counts[-1],
        })
        print(f"shard-bench: wrote {args.trace_out}")
    if not all_identical:
        print("shard-bench: FAIL — sharded product diverged from 1-shard")
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "suite": _cmd_suite,
        "gen": _cmd_gen,
        "multiply": _cmd_multiply,
        "run": _cmd_multiply,
        "bench": _cmd_bench,
        "kernel-bench": _cmd_kernel_bench,
        "trace": _cmd_trace,
        "experiment": _cmd_experiment,
        "serve": _cmd_serve,
        "serve-bench": _cmd_serve_bench,
        "shard-bench": _cmd_shard_bench,
        "shard-worker": _cmd_shard_worker,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
