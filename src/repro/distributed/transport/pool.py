"""Node-side pool of remote shard workers: drive, watch, reconnect.

The :class:`RemoteShardPool` owns N :class:`RemoteWorker` connections
(optionally the worker *processes* too, spawned via ``repro
shard-worker``) and :func:`run_remote_span` drives one shard's chunk
strip over one of them:

* **operand broadcast** — the run request frames the shard's A slice
  and the full B in binary CSR; the measured ``sendall`` wall is the
  shard's *B-broadcast transfer wall* (what the alpha-beta model used
  to guess);
* **chunk gather** — every finished chunk streams back as a CRC-stamped
  frame; per-frame wire seconds accumulate into the shard's measured
  *C-gather wall*;
* **liveness** — a :class:`~repro.core.governor.watchdog.HeartbeatLease`
  is renewed by every received frame (heartbeats and chunks alike) and
  polled between reads; an expired lease means the worker is stalled
  even though its socket is open;
* **reconnect** — any transport fault (severed socket, torn frame,
  expired lease) tears the connection down and retries it under an
  exponential-backoff :class:`~repro.core.executor.faults.RetryPolicy`
  whose jitter is deterministic in ``(attempt, shard id)`` — chaos runs
  replay byte-identically.  A successful reconnect re-sends the run
  request with every chunk the node already holds listed in ``skip``,
  so the worker recomputes only what was in flight — bit-identical by
  chunk determinism;
* **permanent loss** — a worker whose reconnect budget is exhausted is
  marked dead and surfaces as :class:`TransportWorkerLost`; the caller
  (``run_sharded``) re-places the span's remaining chunks on a
  surviving worker or degrades to an in-process shard under a
  :class:`TransportDegradedWarning`.

Chaos injection (``faults`` / ``debug`` in the run request) is sent on
the *first* attempt only: a re-sent request after a transport fault
must not re-kill the replacement, mirroring the latch rule of
:class:`~repro.core.executor.faults.FaultSpec`.
"""

from __future__ import annotations

import os
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from threading import Lock
from typing import Callable, Dict, List, Optional, Sequence, Set

from ...core.chunks import ChunkStats
from ...core.executor.faults import RetryPolicy
from ...core.governor.integrity import ChunkCorruption
from ...core.governor.watchdog import HeartbeatLease
from ...sparse.shm import cleanup_segments
from .wire import (
    PROTOCOL_VERSION,
    FrameCorruption,
    TransportClosed,
    TransportError,
    connect_address,
    csr_from_arrays,
    recv_frame,
    send_frame,
)
from .worker import DEFAULT_HEARTBEAT_INTERVAL, stats_from_record, stats_record

__all__ = [
    "DEFAULT_RECONNECT",
    "TransportDegradedWarning",
    "TransportWorkerLost",
    "RemoteShardError",
    "RemoteWorker",
    "RemoteShardPool",
    "RemoteRunResult",
    "run_remote_span",
]

#: default reconnect policy: 3 retry attempts behind exponential backoff
#: with deterministic jitter (salted by shard id — replayable chaos)
DEFAULT_RECONNECT = RetryPolicy(max_attempts=4, base_delay=0.05,
                                max_delay=1.0, jitter=0.5)


class TransportDegradedWarning(RuntimeWarning):
    """A remote shard was lost and its span re-placed in-process."""


class TransportWorkerLost(TransportError):
    """A remote worker is permanently gone (reconnect budget exhausted)."""

    def __init__(self, worker_id: int, address: str, reason: str) -> None:
        super().__init__(
            f"shard worker {worker_id} at {address} lost: {reason}"
        )
        self.worker_id = worker_id
        self.address = address
        self.reason = reason


class RemoteShardError(RuntimeError):
    """The remote run itself failed (a compute error, not a transport
    fault) — carries the worker-side traceback for the node's error
    report.  Not retried over the transport: the same deterministic
    failure would recur."""

    def __init__(self, exc_type: str, message: str, remote_traceback: str) -> None:
        super().__init__(f"remote shard run failed: {exc_type}: {message}")
        self.exc_type = exc_type
        self.remote_traceback = remote_traceback


class RemoteWorker:
    """One remote shard worker endpoint (connection + owned process)."""

    def __init__(self, worker_id: int, address: str, *,
                 process: Optional[subprocess.Popen] = None,
                 connect_timeout: float = 10.0) -> None:
        self.worker_id = worker_id
        self.address = address
        self.process = process
        self.connect_timeout = connect_timeout
        #: serializes runs on this worker (one run per connection at a
        #: time; failover re-placement queues behind the owner's run)
        self.lock = Lock()
        self.sock: Optional[socket.socket] = None
        self.hello: dict = {}
        #: cleared when the reconnect budget is exhausted; a dead worker
        #: is never picked as a failover target
        self.alive = True
        self.reconnects = 0

    @property
    def connected(self) -> bool:
        return self.sock is not None

    def connect(self) -> None:
        """One connection attempt: socket + ``hello`` handshake.

        A TCP connect can succeed against a wedged worker's listen
        backlog — only the ``hello`` frame proves a live serve loop, so
        the handshake runs under ``connect_timeout`` too.
        """
        self.disconnect()
        sock = connect_address(self.address, timeout=self.connect_timeout)
        try:
            sock.settimeout(self.connect_timeout)
            frame = recv_frame(sock)
            if frame.kind != "hello":
                raise TransportError(
                    f"expected hello from {self.address}, got {frame.kind!r}"
                )
            proto = frame.meta.get("proto")
            if proto != PROTOCOL_VERSION:
                raise TransportError(
                    f"worker at {self.address} speaks protocol {proto!r}, "
                    f"node speaks {PROTOCOL_VERSION}"
                )
        except BaseException:
            try:
                sock.close()
            except OSError:
                pass
            raise
        self.sock = sock
        self.hello = frame.meta

    def disconnect(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def request_shutdown(self, timeout: float = 2.0) -> None:
        """Ask the worker process to exit (best-effort, for owned pools)."""
        try:
            if self.sock is None:
                self.connect()
            self.sock.settimeout(timeout)
            send_frame(self.sock, "shutdown", {})
            recv_frame(self.sock)  # bye (or EOF — either is fine)
        except (TransportError, OSError):
            pass
        finally:
            self.disconnect()

    def kill(self) -> None:
        """Chaos helper / teardown: SIGKILL the owned worker process."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10.0)
        self.disconnect()
        self.sweep_shm()

    def sweep_shm(self) -> None:
        """Reclaim ``/dev/shm`` segments a hard-killed worker left.

        Segment names embed the creating pid, so the sweep can only
        touch the dead worker's own run prefixes — a SIGKILL skips the
        worker's atexit sweep, making this the last line of defence
        against leaked shared memory."""
        if self.process is not None and self.process.poll() is not None:
            cleanup_segments(f"repro-{self.process.pid}-")


class RemoteShardPool:
    """N remote shard workers behind one handle.

    Build it with :meth:`spawn` (local ``repro shard-worker``
    subprocesses over unix sockets or localhost TCP — the pool owns and
    reaps them) or :meth:`connect` (externally launched workers, e.g.
    on other hosts reachable by TCP).  More shards than workers is
    fine: spans map onto workers round-robin and serialize on each
    worker's lock.
    """

    def __init__(self, workers: Sequence[RemoteWorker], *,
                 tmpdir: Optional[str] = None,
                 owns_processes: bool = False) -> None:
        if not workers:
            raise ValueError("a RemoteShardPool needs >= 1 worker")
        self.workers: List[RemoteWorker] = list(workers)
        self._tmpdir = tmpdir
        self._owns = owns_processes
        #: observer called with (worker_id, reason) when a worker is
        #: declared permanently lost — the serve scheduler hooks this to
        #: steer new jobs away from the dead shard
        self.on_worker_lost: Optional[Callable[[int, str], None]] = None
        #: times that hook raised; the worker is still marked lost
        self.hook_errors = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def spawn(cls, count: int, *, kind: str = "unix",
              python: Optional[str] = None,
              startup_timeout: float = 30.0,
              connect_timeout: float = 10.0) -> "RemoteShardPool":
        """Launch ``count`` local worker processes and connect to them.

        ``kind="unix"`` binds one unix socket per worker under a fresh
        temp dir; ``kind="tcp"`` binds ephemeral localhost TCP ports
        (each worker announces its real port on stdout).
        """
        if kind not in ("unix", "tcp"):
            raise ValueError(f"socket kind must be 'unix' or 'tcp', got {kind!r}")
        tmpdir = tempfile.mkdtemp(prefix="repro-transport-")
        env = os.environ.copy()
        pkg_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p)
        workers: List[RemoteWorker] = []
        procs: List[subprocess.Popen] = []
        try:
            for t in range(count):
                listen = (f"unix:{tmpdir}/worker{t}.sock" if kind == "unix"
                          else "tcp:127.0.0.1:0")
                proc = subprocess.Popen(
                    [python or sys.executable, "-m", "repro", "shard-worker",
                     "--listen", listen, "--announce"],
                    stdout=subprocess.PIPE, text=True, env=env,
                )
                procs.append(proc)
                address = cls._read_announcement(proc, startup_timeout)
                workers.append(RemoteWorker(t, address, process=proc,
                                            connect_timeout=connect_timeout))
            for w in workers:
                w.connect()
        except BaseException:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10.0)
            shutil.rmtree(tmpdir, ignore_errors=True)
            raise
        return cls(workers, tmpdir=tmpdir, owns_processes=True)

    @classmethod
    def connect(cls, addresses: Sequence[str], *,
                connect_timeout: float = 10.0) -> "RemoteShardPool":
        """Attach to already-running workers (``tcp:...`` / ``unix:...``)."""
        workers = [RemoteWorker(t, addr, connect_timeout=connect_timeout)
                   for t, addr in enumerate(addresses)]
        for w in workers:
            w.connect()
        return cls(workers)

    @staticmethod
    def _read_announcement(proc: subprocess.Popen, timeout: float) -> str:
        """Wait for the worker's ``LISTENING <addr>`` line on stdout."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or proc.poll() is not None:
                raise TransportError(
                    "shard worker failed to announce its address "
                    f"(exit code {proc.poll()})"
                )
            ready, _, _ = select.select([proc.stdout], [], [],
                                        min(remaining, 0.25))
            if not ready:
                continue
            line = proc.stdout.readline()
            if not line:
                continue
            if line.startswith("LISTENING "):
                return line.split(" ", 1)[1].strip()

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def worker_for(self, shard_id: int) -> RemoteWorker:
        """The span's home worker (round-robin when shards > workers)."""
        return self.workers[shard_id % len(self.workers)]

    def failover_targets(self, exclude: Set[int]) -> List[RemoteWorker]:
        """Live candidate workers for a dead span, idle ones first."""
        candidates = [w for w in self.workers
                      if w.alive and w.worker_id not in exclude]
        return sorted(candidates,
                      key=lambda w: (w.lock.locked(), w.worker_id))

    def mark_lost(self, worker: RemoteWorker, reason: str) -> None:
        worker.alive = False
        worker.disconnect()
        if self.on_worker_lost is not None:
            try:
                self.on_worker_lost(worker.worker_id, reason)
            except Exception as exc:
                self.hook_errors += 1
                warnings.warn(f"on_worker_lost hook failed for worker {worker.worker_id}: "
                              f"{exc!r}", RuntimeWarning, stacklevel=2)

    # ------------------------------------------------------------------
    # chaos / lifecycle
    # ------------------------------------------------------------------
    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL one owned worker process (chaos testing)."""
        self.workers[worker_id].kill()

    def close(self) -> None:
        for w in self.workers:
            if self._owns and w.alive:
                w.request_shutdown()
            else:
                w.disconnect()
        if self._owns:
            for w in self.workers:
                if w.process is not None:
                    if w.process.poll() is None:
                        w.process.terminate()
                        try:
                            w.process.wait(timeout=5.0)
                        except subprocess.TimeoutExpired:
                            w.process.kill()
                            w.process.wait(timeout=10.0)
                    if w.process.stdout is not None:
                        w.process.stdout.close()
                    w.sweep_shm()
        if self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)

    def __enter__(self) -> "RemoteShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# driving one span over one worker
# ----------------------------------------------------------------------
@dataclass
class RemoteRunResult:
    """Measured transport accounting for one span's remote run."""

    wall_seconds: float = 0.0
    #: measured wall of the operand-broadcast send(s) (A slice + B)
    bcast_seconds: float = 0.0
    #: measured wire seconds of the gathered chunk frames
    gather_seconds: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    reconnects: int = 0
    heartbeats: int = 0


def run_remote_span(
    worker: RemoteWorker,
    *,
    run_meta: dict,
    run_arrays: Dict[str, object],
    completed: Dict[int, ChunkStats],
    on_chunk: Callable[[ChunkStats, object, Optional[int]], None],
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    lease_grace: float = 3.0,
    reconnect: Optional[RetryPolicy] = None,
    salt: int = 0,
    mark_lost: Optional[Callable[[RemoteWorker, str], None]] = None,
) -> RemoteRunResult:
    """Drive one shard span to completion on ``worker``.

    ``completed`` maps local chunk id -> stats the node already holds
    (checkpoint-resumed chunks plus chunks received on earlier
    attempts); it is read on every (re)send to build the skip list and
    **mutated by the caller's** ``on_chunk``.  ``on_chunk(stats, matrix,
    crc)`` is invoked per received chunk and must raise
    :class:`~repro.core.governor.integrity.ChunkCorruption` if the
    chunk fails its end-to-end CRC — the driver converts that into a
    transport fault so the chunk is recomputed, never trusted.

    Raises :class:`TransportWorkerLost` when the reconnect budget runs
    out and :class:`RemoteShardError` when the remote run itself fails.
    """
    policy = reconnect if reconnect is not None else DEFAULT_RECONNECT
    result = RemoteRunResult()
    t0 = time.perf_counter()
    attempt = 0
    include_chaos = True
    while True:
        try:
            if worker.sock is None:
                worker.connect()
            _drive_once(worker, run_meta, run_arrays, completed, on_chunk,
                        heartbeat_interval, lease_grace, result,
                        include_chaos=include_chaos)
            result.wall_seconds = time.perf_counter() - t0
            return result
        except RemoteShardError:
            raise
        except (TransportError, OSError) as exc:
            worker.disconnect()
            failure = exc
            attempt += 1
            # chaos already fired (or the fault predates it) — a re-sent
            # request must not re-inject it into the recovered worker
            include_chaos = False
            while True:
                if not policy.should_retry(failure, attempt):
                    reason = f"{type(failure).__name__}: {failure}"
                    if mark_lost is not None:
                        mark_lost(worker, reason)
                    else:
                        worker.alive = False
                    raise TransportWorkerLost(
                        worker.worker_id, worker.address, reason
                    ) from failure
                time.sleep(policy.delay_for(attempt, salt=salt))
                try:
                    worker.connect()
                    worker.reconnects += 1
                    result.reconnects += 1
                    break
                except (TransportError, OSError) as retry_exc:
                    failure = retry_exc
                    attempt += 1


def _drive_once(worker, run_meta, run_arrays, completed, on_chunk,
                heartbeat_interval, lease_grace, result, *,
                include_chaos: bool) -> None:
    sock = worker.sock
    meta = dict(run_meta)
    meta["heartbeat_interval"] = heartbeat_interval
    meta["skip"] = [stats_record(st) for st in completed.values()]
    if not include_chaos:
        meta.pop("faults", None)
        meta.pop("debug", None)
    sock.settimeout(60.0)
    t_send = time.perf_counter()
    result.bytes_sent += send_frame(sock, "run", meta, run_arrays)
    result.bcast_seconds += time.perf_counter() - t_send
    lease = HeartbeatLease(heartbeat_interval, grace=lease_grace)
    poll = max(min(heartbeat_interval / 2.0, 0.2), 0.02)
    while True:
        sock.settimeout(poll)
        try:
            frame = recv_frame(sock)
        except socket.timeout:
            if lease.expired():
                raise TransportError(
                    f"heartbeat lease expired: worker {worker.worker_id} "
                    f"silent for > {lease.deadline_seconds:.3g}s"
                ) from None
            continue
        lease.beat(frame.meta.get("counter") if frame.kind == "hb" else None)
        if frame.kind == "hb":
            result.heartbeats += 1
        elif frame.kind == "chunk":
            result.bytes_received += frame.nbytes
            result.gather_seconds += frame.wire_seconds
            stats = stats_from_record(frame.meta["stats"])
            matrix = csr_from_arrays(frame.meta, frame.arrays, prefix="c_")
            crc = frame.meta.get("crc32")
            try:
                on_chunk(stats, matrix,
                         int(crc) if crc is not None else None)
            except ChunkCorruption as exc:
                # a chunk that fails its end-to-end CRC poisons the
                # stream: reconnect and let the worker recompute it
                raise FrameCorruption(
                    f"received chunk failed integrity check: {exc}"
                ) from exc
        elif frame.kind == "done":
            return
        elif frame.kind == "error":
            raise RemoteShardError(
                frame.meta.get("exc_type", "Exception"),
                frame.meta.get("message", ""),
                frame.meta.get("traceback", ""),
            )
        # run-ack and unknown kinds renew the lease and are ignored
