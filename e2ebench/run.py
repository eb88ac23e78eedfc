"""End-to-end benchmark of record: whole public calls, split into layers.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload mesh-ooc --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one process, at most two threads or clients):

* ``mesh-ooc`` — serial ``run_out_of_core`` on the stokes / nlp analogs;
* ``graph-hybrid`` — ``run_hybrid`` on two thread lanes on the
  wiki0206 / lj2008 analogs;
* ``shard-socket`` — ``run_sharded`` over two unix-socket shard workers
  on the nlp analog;
* ``serve-mixed`` — two clients against a ``repro serve`` process,
  three pool-hit jobs to one upload job.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` interleaves
untraced calls with calls decomposed into their layers from outside the
program, and prints the per-layer metrics.  Every call's product is
checked against a reference fingerprint computed once during set-up.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every call was correct and nothing leaked.

``--smoke`` shrinks every operand to a few hundred rows so the full
plumbing runs in seconds (used by ``e2ebench/tests``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: everything the benchmark writes (compiled kernel, sockets) lives here
WORK = ROOT / ".e2ebench_work"
#: unix socket paths must stay under the kernel's 108-byte limit
MAX_SOCKET_DIR = 60

WORKLOADS = ("mesh-ooc", "graph-hybrid", "shard-socket", "serve-mixed")
#: set-ups per run; set-up time is reported as their median
SETUP_REPEATS = 3

#: (name, unit) of every end-to-end metric (--trace 0)
END_TO_END = (
    ("setup_s", "s"), ("call_p50_s", "s"), ("call_p90_s", "s"),
    ("calls_per_s", "1/s"), ("scipy_ratio", "x"), ("ok_rate", "fraction"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric (--trace 1); layers a workload
#: does not exercise read 0
PER_LAYER = (
    ("planner.s", "s"), ("planner.share", "fraction"),
    ("chunk_flops.s", "s"), ("partition.s", "s"),
    ("executor.s", "s"), ("executor.chunks", "count"),
    ("executor.busy_frac", "fraction"), ("executor.overhead_s", "s"),
    ("kernel.s", "s"), ("kernel.analysis_s", "s"),
    ("kernel.symbolic_s", "s"), ("kernel.numeric_s", "s"),
    ("kernel.gflops", "GFLOP/s"), ("kernel.flops", "count"),
    ("kernel.bytes_computed", "B"),
    ("hybrid.gpu_lane_s", "s"), ("hybrid.cpu_lane_s", "s"),
    ("hybrid.lane_imbalance", "ratio"),
    ("simulate.s", "s"), ("sim.makespan_s", "sim_s"),
    ("assemble.s", "s"),
    ("shard.plan_s", "s"), ("shard.compute_s", "s"),
    ("shard.wall_max_s", "s"), ("shard.imbalance", "ratio"),
    ("transport.bcast_s", "s"), ("transport.gather_s", "s"),
    ("transport.share", "fraction"), ("transport.bytes_sent", "B"),
    ("transport.bytes_received", "B"), ("transport.reconnects", "count"),
    ("transport.failovers", "count"),
    ("serve.server_s", "s"), ("serve.http_s", "s"),
    ("serve.upload_s", "s"), ("serve.first_chunk_s", "s"),
    ("serve.resolve_s", "s"), ("serve.estimate_s", "s"),
    ("serve.compute_s", "s"), ("serve.wait_s", "s"),
    ("cache.hits", "count"), ("cache.misses", "count"),
    ("cache.evictions", "count"), ("cache.hit_rate", "fraction"),
    ("scheduler.rejected", "count"), ("scheduler.failed", "count"),
    ("ledger.overcommits", "count"), ("ledger.peak_bytes", "B"),
    ("unattributed.s", "s"), ("unattributed.share", "fraction"),
    ("scipy.s", "s"), ("trace.overhead_frac", "fraction"),
    ("trace.call_s", "s"), ("trace.calls", "count"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 reproduces the suite matrices")
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny operands, for the benchmark's own tests")
    return p.parse_args(argv)


def _prepare_environment() -> None:
    """Keep every file the run creates inside the checkout."""
    (WORK / "native").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    tmp = WORK / "tmp"
    tmp.mkdir(exist_ok=True)
    if len(str(tmp)) <= MAX_SOCKET_DIR:
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = None
    else:
        print(f"e2ebench: {tmp} is too long for unix socket paths; "
              "shard-worker sockets go to the system temp dir",
              file=sys.stderr)
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def make_workload(name: str, seed: int, smoke: bool):
    from e2ebench import multiply, serve_load

    if name == "serve-mixed":
        return serve_load.ServeMixed(seed, smoke, ROOT)
    cls = {"mesh-ooc": multiply.MeshOOC,
           "graph-hybrid": multiply.GraphHybrid,
           "shard-socket": multiply.ShardSocket}[name]
    return cls(seed, smoke)


def set_up(wl, clock):
    """``SETUP_REPEATS`` full set-ups; all but the last are torn down.
    Returns the set-up seconds (oracle work excluded) and the leaks the
    torn-down set-ups left."""
    from e2ebench import host
    from repro.spgemm.native import native_available

    times, leaks = [], 0
    for i in range(SETUP_REPEATS):
        t0 = clock()
        wl.generate()
        native_available()
        t_gen = clock() - t0
        wl.oracle()
        t1 = clock()
        wl.start()
        times.append(t_gen + clock() - t1)
        if i + 1 < SETUP_REPEATS:
            pids = wl.child_pids()
            wl.stop()
            found = host.collect_leaks(pids, WORK / "tmp")
            leaks += host.leak_count(found)
            host.reap(found, WORK / "tmp")
    return times, leaks


def end_to_end(loop, setups, scipy, rss_bytes):
    from e2ebench import stats

    groups = {g: v for g, v in loop.samples.items() if v}
    p50 = {g: stats.percentile(v, 50) for g, v in groups.items()}
    return {
        "setup_s": stats.percentile(setups, 50),
        "call_p50_s": stats.grouped_percentile(groups, 50),
        "call_p90_s": stats.grouped_percentile(groups, 90),
        "calls_per_s": loop.verified / loop.busy_seconds,
        "scipy_ratio": stats.ratio(sum(p50.values()),
                                   sum(scipy[g] for g in p50)),
        "ok_rate": 1.0 - loop.failed / loop.attempted,
        "peak_rss_mb": rss_bytes / 2 ** 20,
    }


def per_layer(loop, scipy):
    from e2ebench import stats

    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update(loop.counters)
    if loop.traced:
        out.update(stats.layer_means(loop.traced))
        call = out["trace.call_s"]
        out["planner.share"] = out["planner.s"] / call
        out["unattributed.share"] = out["unattributed.s"] / call
    traced = {g: v for g, v in loop.traced_samples.items() if v}
    untraced = {g: v for g, v in loop.samples.items() if v}
    if traced and untraced:
        out["trace.overhead_frac"] = stats.ratio(
            stats.grouped_percentile(traced, 50),
            stats.grouped_percentile(untraced, 50)) - 1.0
    out["trace.calls"] = float(len(loop.traced))
    out["scipy.s"] = stats.mean(scipy.values())
    return out


def summary(name, loop, scipy, metrics, units, trace):
    """Human-readable lines printed before the JSON result."""
    from e2ebench import stats

    lines = []
    for g, v in loop.samples.items():
        if not v:
            continue
        p90 = stats.percentile(v, 90)
        lines.append(
            f"# {g}: {len(v)} untraced calls, p50 {stats.percentile(v, 50):.4f}"
            f" s, p90 {p90:.4f} s ({stats.samples_above(v, p90)} samples "
            f"above p90), scipy A@B {scipy[g]:.4f} s")
    for key, value in metrics.items():
        lines.append(f"# {key:<26} {value:>16.6g} {units[key]}")
    if trace and name == "mesh-ooc" and loop.traced:
        # the ROADMAP baseline table, from this run
        by_op = {}
        for lb, rec in zip(loop.traced_ops, loop.traced):
            by_op.setdefault(lb, []).append(rec)
        ops = [lb for lb in ("stokes", "nlp") if lb in by_op]

        def row(vals):
            return " / ".join(f"{v * 1e3:.1f} ms" for v in vals)

        lines.append("# ROADMAP baseline rows (" + " / ".join(ops) + "):")
        lines.append("#   scipy A @ A                    "
                     + row(scipy[lb] for lb in ops))
        lines.append("#   plan_grid alone                "
                     + row(stats.mean(r["planner.s"] for r in by_op[lb])
                           for lb in ops))
        lines.append("#   run_out_of_core, serial, p50   "
                     + row(stats.percentile(loop.samples[lb], 50)
                           for lb in ops))
    return lines


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2ebench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("e2ebench: --seconds must be positive", file=sys.stderr)
        return 2
    _prepare_environment()
    from e2ebench import host

    clock = time.perf_counter
    record = host.stamp(ROOT)
    print("# stamp " + json.dumps(record, sort_keys=True))
    if not record["native_available"] and not args.smoke:
        print("e2ebench: the native kernel is unavailable "
              f"({record['native_error']}); numbers from the numpy "
              "fallback are not comparable with the record", file=sys.stderr)
        return 3

    tmp = WORK / "tmp"
    wl = make_workload(args.workload, args.seed, args.smoke)
    try:
        try:
            setups, setup_leaks = set_up(wl, clock)
            steal0 = host.cpu_ticks()
            loop = wl.run_loop(args.seconds, bool(args.trace))
            steal = host.steal_fraction(steal0, host.cpu_ticks())
            rss = host.vm_hwm_bytes(os.getpid()) + sum(
                host.vm_hwm_bytes(p) for p in wl.child_pids())
            scipy = wl.scipy_seconds(loop)
        finally:
            # also on failure or SIGTERM: no server or shard worker may
            # outlive the benchmark
            pids = wl.child_pids()
            wl.stop()
            leaks = host.collect_leaks(pids, tmp)
            host.reap(leaks, tmp)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1
    if host.leak_count(leaks):
        print(f"e2ebench: leaked resources {leaks}", file=sys.stderr)
    loop.failed += setup_leaks + host.leak_count(leaks)
    loop.attempted = max(loop.attempted, 1)

    if loop.verified == 0:
        print("e2ebench: no call verified", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(loop, scipy)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(loop, setups, scipy, rss)
        units = dict(END_TO_END)
    print(f"# hypervisor steal during the loop: {steal:.1%} of CPU time")
    for line in summary(args.workload, loop, scipy, metrics, units,
                        args.trace):
        print(line)
    correct = loop.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
