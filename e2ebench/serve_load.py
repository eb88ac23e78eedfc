"""The serve-tenant workload, ``serve-mixed``.

A ``repro serve`` process is started during set-up.  Two closed-loop
clients in this process drive it: client 0 submits in wait mode,
client 1 in NDJSON stream mode.  Three of every four jobs take both
operands from a 4-entry pool of R-MAT generator specs (the read path:
an alias hit with a zero-copy attach); one of every four first uploads
a fresh inline operand (the write path: decode, hash, insert).  The
operand-cache budget is below the working set, so uploads evict.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.assemble import assemble_chunks
from repro.core.chunks import ChunkGrid
from repro.core.executor import execute_chunk_grid
from repro.core.governor.integrity import crc32_matrix
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import resolve_operand
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import rmat
from repro.spgemm.estimate import estimate_row_nnz

from . import inputs, stats
from .multiply import LoopResult, executor_metrics

clock = time.perf_counter

#: R-MAT operand size (scale, degree); the smoke mode shrinks the scale
SCALE, DEGREE, SMOKE_SCALE = 11, 8, 7
POOL = 4
#: every UPLOAD_EVERY-th job uploads a fresh operand first
UPLOAD_EVERY = 4
#: operand-cache budget: the pool plus about four fresh operands, well
#: below the working set of a run, so uploads evict
CACHE_MIB = 2
#: distinct upload bodies, reused round-robin: far more than the cache
#: holds besides the pool, so each one is evicted before it comes round
#: again and every upload takes the write path
FRESH = 16
CLIENTS = 2
SCIPY_REPEATS = 7
SERVER_START_TIMEOUT = 60.0


def server_grid(a: CSRMatrix, b: CSRMatrix) -> ChunkGrid:
    """The grid ``repro serve`` picks for a job without an explicit one
    (``serve.server.SpgemmServer._run_job``)."""
    rp = min(4, max(1, a.n_rows // 256))
    return ChunkGrid.regular(a.n_rows, b.n_cols, rp, 1)


def _inline(m: CSRMatrix) -> Dict[str, Any]:
    return {"shape": list(m.shape), "row_offsets": m.row_offsets.tolist(),
            "col_ids": m.col_ids.tolist(), "data": m.data.tolist()}


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, seed: int, smoke: bool, root: Path) -> None:
        self.seed = seed
        self.scale = SMOKE_SCALE if smoke else SCALE
        self.root = root
        self.pool_specs: List[Dict[str, Any]] = []
        self.pool_mats: List[CSRMatrix] = []
        self.pool_refs: List[inputs.Reference] = []
        self.fresh: List[Tuple[CSRMatrix, Dict[str, Any]]] = []
        self.fresh_refs: List[inputs.Reference] = []
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self._next_fresh = 0
        self._pair_s: Dict[Tuple[str, int], Dict[str, float]] = {}
        self._resolve_s: Dict[str, float] = {}

    def _gen_seed(self, i: int) -> int:
        return inputs.SEED_STRIDE * self.seed + i

    # -- set-up -------------------------------------------------------
    def generate(self) -> None:
        # pool operands are generator specs: the server materializes
        # them during the cache fill in start(), which set-up times
        self.pool_specs = [
            {"gen": {"family": "rmat", "scale": self.scale,
                     "degree": DEGREE, "seed": self._gen_seed(i)}}
            for i in range(POOL)]

    def oracle(self) -> None:
        """Local copies, fresh upload bodies and reference products for
        every operand pair a run can submit (excluded from set-up)."""
        if self.pool_refs:
            return
        self.pool_mats = [resolve_operand(s) for s in self.pool_specs]
        self.pool_refs = [inputs.reference(*self._pool_pair(i))
                          for i in range(POOL)]
        for j in range(FRESH):
            m = rmat(self.scale, DEGREE, seed=self._gen_seed(POOL + j))
            self.fresh.append((m, _inline(m)))
            self.fresh_refs.append(
                inputs.reference(m, self.pool_mats[j % POOL]))

    def _pool_pair(self, i: int) -> Tuple[CSRMatrix, CSRMatrix]:
        return self.pool_mats[i], self.pool_mats[(i + 1) % POOL]

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--cache-mem", str(CACHE_MIB)],
            stdout=subprocess.PIPE, text=True, env=env)
        self.port = self._read_port()
        self._next_fresh = 0
        asyncio.run(self._warm_up())

    def _read_port(self) -> int:
        deadline = clock() + SERVER_START_TIMEOUT
        assert self.proc is not None and self.proc.stdout is not None
        while clock() < deadline and self.proc.poll() is None:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.25)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            marker = "listening on http://"
            if marker in line:
                return int(line.split(marker, 1)[1].split()[0]
                           .rsplit(":", 1)[1])
        raise RuntimeError("repro serve did not announce its port")

    async def _warm_up(self) -> None:
        """Cache fill: one job per pool pair, then one upload job."""
        client = ServeClient("127.0.0.1", self.port)
        for pair in [("pool", i) for i in range(POOL)] + [self._fresh()]:
            if await self._one(client, 0, pair, False, False) is None:
                raise AssertionError(f"warm-up job on {pair} failed")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None

    def child_pids(self) -> List[int]:
        return [] if self.proc is None else [self.proc.pid]

    # -- one client operation -----------------------------------------
    def _fresh(self) -> Tuple[str, int]:
        j = self._next_fresh % FRESH
        self._next_fresh += 1
        return ("fresh", j)

    def _pair_for(self, k: int) -> Tuple[str, int]:
        """Job ``k``'s operand pair: every UPLOAD_EVERY-th job uploads
        the next fresh operand, the others cycle through the pool."""
        if k % UPLOAD_EVERY == UPLOAD_EVERY - 1:
            return self._fresh()
        return ("pool", (k - k // UPLOAD_EVERY) % POOL)

    def _pair_specs(self, pair) -> Tuple[Optional[Dict[str, Any]],
                                         Dict[str, Any]]:
        """The operand specs of a pair; an upload's ``a`` side has none
        (the job names it by content hash)."""
        kind, idx = pair
        if kind == "pool":
            return self.pool_specs[idx], self.pool_specs[(idx + 1) % POOL]
        return None, self.pool_specs[idx % POOL]

    def _operands(self, pair) -> Tuple[CSRMatrix, CSRMatrix,
                                       inputs.Reference]:
        kind, idx = pair
        if kind == "pool":
            a, b = self._pool_pair(idx)
            return a, b, self.pool_refs[idx]
        return (self.fresh[idx][0], self.pool_mats[idx % POOL],
                self.fresh_refs[idx])

    async def _one(self, client: ServeClient, cid: int, pair,
                   stream: bool, traced: bool) -> Optional[Dict[str, Any]]:
        """One client operation on ``pair``: the upload of a fresh
        operand if the pair has one, then submit until the final
        snapshot or last stream event.  Returns the call record, or
        ``None`` when the job did not end ``done`` with the reference
        CRC."""
        a_spec, b_spec = self._pair_specs(pair)
        ref = self._operands(pair)[2]
        t0 = clock()
        upload_s = 0.0
        if a_spec is None:
            body = await client.upload_operand(
                {"inline": self.fresh[pair[1]][1]})
            upload_s = clock() - t0
            a_spec = {"hash": body["hash"]}
        payload = {"a": a_spec, "b": b_spec, "tenant": f"client{cid}"}
        if traced:
            payload["trace"] = True
        t_submit = clock()
        first_chunk = None
        if stream:
            snap = None
            async for event in client.stream_job(payload):
                if event.get("event") == "chunk" and first_chunk is None:
                    first_chunk = clock() - t_submit
                snap = event
        else:
            snap = await client.submit_job(payload)
        wall = clock() - t0
        if (snap is None or snap.get("state") != "done"
                or snap.get("result", {}).get("crc32") != ref.crc32):
            print(f"serve job on {pair} failed: {json.dumps(snap)[:300]}",
                  file=sys.stderr)
            return None
        return {"wall": wall, "upload_s": upload_s,
                "server_s": float(snap["latency_seconds"]),
                "first_chunk_s": first_chunk, "cache": snap.get("cache", {}),
                "pair": pair}

    # -- the timed loop -------------------------------------------------
    def run_loop(self, seconds: float, trace: bool) -> LoopResult:
        return asyncio.run(self._run_loop(seconds, trace))

    async def _run_loop(self, seconds: float, trace: bool) -> LoopResult:
        res = LoopResult(samples={"serve": []}, scipy={"serve": []},
                         traced_samples={"serve": []})
        # the clients share one event loop, so the scipy baseline cannot
        # be interleaved with them: it brackets the loop instead
        self._time_scipy(res)
        client = ServeClient("127.0.0.1", self.port)
        before = await client.stats()
        counter = itertools.count()
        records: List[Dict[str, Any]] = []
        t_start = clock()
        deadline = t_start + seconds

        async def client_loop(cid: int) -> None:
            for n in itertools.count():
                if clock() >= deadline:
                    return
                pair = self._pair_for(next(counter))
                traced = trace and n % 2 == 1
                res.attempted += 1
                try:
                    rec = await self._one(client, cid, pair, cid == 1,
                                          traced)
                except (ServeError, OSError, EOFError, KeyError, ValueError):
                    traceback.print_exc(file=sys.stderr)
                    rec = None
                if rec is None:
                    res.failed += 1
                    continue
                res.verified += 1
                if traced:
                    res.traced_samples["serve"].append(rec["wall"])
                    records.append(rec)
                else:
                    res.samples["serve"].append(rec["wall"])

        await asyncio.gather(*(client_loop(c) for c in range(CLIENTS)))
        res.busy_seconds = clock() - t_start
        after = await client.stats()
        self._time_scipy(res)
        res.counters = self._counters(before, after)
        if trace:
            res.traced = self._decompose(records)
            res.traced_ops = ["serve"] * len(res.traced)
        return res

    @staticmethod
    def _counters(before: Dict[str, Any],
                  after: Dict[str, Any]) -> Dict[str, float]:
        """``/v1/stats`` counters over the timed loop."""
        def delta(group: str, key: str) -> float:
            return float(after[group][key] - before[group][key])

        hits, misses = delta("cache", "hits"), delta("cache", "misses")
        return {
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.evictions": delta("cache", "evictions"),
            "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "scheduler.rejected": delta("scheduler", "rejected"),
            "scheduler.failed": delta("scheduler", "failed"),
            "ledger.overcommits": delta("scheduler", "overcommits"),
            "ledger.peak_bytes": float(after["scheduler"]["host_peak_bytes"]),
        }

    # -- the traced decomposition ----------------------------------------
    def _resolve_seconds(self, spec: Dict[str, Any]) -> float:
        key = json.dumps(spec, sort_keys=True)
        if key not in self._resolve_s:
            t0 = clock()
            resolve_operand(spec)
            self._resolve_s[key] = clock() - t0
        return self._resolve_s[key]

    def _pair_layers(self, pair) -> Dict[str, float]:
        """Estimation, execution and assembly of one operand pair,
        re-run here with the server's default grid (once per pair: a
        run cycles through only 4 pool and 16 upload pairs)."""
        if pair in self._pair_s:
            return self._pair_s[pair]
        a, b, ref = self._operands(pair)
        lay: Dict[str, float] = {}
        t0 = clock()
        estimate_row_nnz(a, b)
        lay["serve.estimate_s"] = clock() - t0
        t0 = clock()
        profile, outputs = execute_chunk_grid(a, b, server_grid(a, b),
                                              keep_outputs=True)
        executor_s = clock() - t0
        t1 = clock()
        matrix = assemble_chunks(outputs)
        lay["assemble.s"] = clock() - t1
        lay["serve.compute_s"] = clock() - t0
        if crc32_matrix(matrix) != ref.crc32:
            raise AssertionError(f"decomposed serve job {pair} diverged")
        lay.update(executor_metrics(profile, executor_s, 1))
        self._pair_s[pair] = lay
        return lay

    def _local_layers(self, pair, cache_hits: Dict[str, bool]
                      ) -> Dict[str, float]:
        """The job's server-side layers re-run here on the job's
        operands: resolution of the operand sides that missed the
        cache, then the pair's estimation and compute."""
        specs = dict(zip("ab", self._pair_specs(pair)))
        lay = dict(self._pair_layers(pair))
        lay["serve.resolve_s"] = sum(
            self._resolve_seconds(spec) for side, spec in specs.items()
            if spec is not None and not cache_hits.get(side, True))
        return lay

    def _decompose(self, records: List[Dict[str, Any]]
                   ) -> List[Dict[str, float]]:
        out = []
        for rec in records:
            layers = {
                "serve.upload_s": rec["upload_s"],
                "serve.server_s": rec["server_s"],
                "serve.http_s": rec["wall"] - rec["upload_s"]
                - rec["server_s"],
            }
            local = self._local_layers(rec["pair"], rec["cache"])
            local["serve.wait_s"] = rec["server_s"] - (
                local["serve.resolve_s"] + local["serve.estimate_s"]
                + local["serve.compute_s"])
            row = dict(local, **layers)
            if rec["first_chunk_s"] is not None:
                row["serve.first_chunk_s"] = rec["first_chunk_s"]
            row["trace.call_s"] = rec["wall"]
            row["unattributed.s"] = stats.unattributed(rec["wall"], layers)
            out.append(row)
        return out

    def _time_scipy(self, res: LoopResult) -> None:
        for i in range(POOL):
            res.scipy["serve"].append(inputs.scipy_seconds(
                *self._pool_pair(i), SCIPY_REPEATS, clock))

    def scipy_seconds(self, loop: LoopResult) -> Dict[str, float]:
        return {"serve": stats.percentile(loop.scipy["serve"], 50)}
