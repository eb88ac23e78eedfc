"""Cross-job admission control and weighted fair queueing.

The single-run governor polices *chunks* of one run; the server needs
the same discipline one level up, across concurrent *jobs*:

* **admission** reuses :class:`~repro.core.governor.hostmem.\
HostMemoryGovernor` verbatim as a jobs-keyed byte ledger.  Each job is
  charged its estimated peak footprint — operands plus the
  :func:`~repro.spgemm.estimate.estimate_row_nnz`-predicted output —
  before it may start, so N concurrent jobs can never overcommit the
  node's host-memory budget.  The governor's ``host_mem`` gauge stream
  is emitted on the scheduler's tracer, which is how the no-overcommit
  tests assert the ceiling held.  The minimum-progress escape carries
  over too: a job larger than the whole budget runs alone (counted in
  ``overcommits``) instead of deadlocking the queue.
* **ordering** is start-time weighted fair queueing.  Every tenant has
  a :class:`TenantQuota` with a *weight*; a job's virtual finish time is
  ``max(queue vtime, tenant's last finish) + cost / weight``, and the
  dispatch loop always starts the eligible job with the smallest
  virtual finish.  Cost is the same estimated footprint admission
  charges, so a tenant submitting huge jobs advances its virtual clock
  faster and yields the node to lighter tenants — weighted max-min
  fairness in bytes, not job counts.  Per-tenant ``max_concurrent``
  bounds how many of one tenant's jobs hold slots at once and
  ``max_queued`` bounds its backlog (excess submissions are rejected
  up front, the only non-queue outcome).

The scheduler runs a plain background thread (no event-loop coupling —
the asyncio server talks to it through thread-safe calls and receives
events via a thread-safe callback), dispatching jobs onto a shared
bounded :class:`~concurrent.futures.ThreadPoolExecutor`; each job's run
is re-entrant engine work with per-run tracer/governor state, so many
grids execute concurrently in one process.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.governor.hostmem import HostMemoryGovernor
from ..distributed.sharding import ShardPlacement
from .jobs import JobRecord, JobState

__all__ = ["TenantQuota", "FairQueue", "JobScheduler"]

#: default cross-job host-memory budget (matches the paper's assembly
#: budget scaled to test hosts; ``repro serve`` exposes --host-mem)
DEFAULT_HOST_BUDGET = 2 << 30


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant scheduling contract."""

    weight: float = 1.0        # fair-queue share (bigger = more bytes/sec)
    max_concurrent: int = 4    # jobs of this tenant running at once
    max_queued: int = 256      # backlog bound; beyond it submissions reject

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("tenant weight must be > 0")
        if self.max_concurrent < 1 or self.max_queued < 1:
            raise ValueError("tenant quotas must be >= 1")


class FairQueue:
    """Start-time weighted fair queue of job records.

    Not thread-safe on its own — the scheduler serializes access under
    its condition lock.  ``pop_eligible`` returns the smallest-virtual-
    finish job whose tenant passes the caller's eligibility predicate,
    leaving ineligible jobs queued in order.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, JobRecord]] = []
        self._seq = itertools.count()
        self.vtime = 0.0
        self._tenant_vf: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def queued_for(self, tenant: str) -> int:
        return sum(1 for _, _, r in self._heap if r.spec.tenant == tenant)

    def push(self, record: JobRecord, cost: float, weight: float) -> float:
        """Enqueue with virtual finish ``max(vtime, tenant vf) + cost/weight``
        (returned, mainly for tests)."""
        start = max(self.vtime, self._tenant_vf.get(record.spec.tenant, 0.0))
        vf = start + max(cost, 1.0) / weight
        self._tenant_vf[record.spec.tenant] = vf
        heapq.heappush(self._heap, (vf, next(self._seq), record))
        return vf

    def requeue_front(self, item: Tuple[float, int, JobRecord]) -> None:
        """Put back a popped-but-not-dispatched job with its original
        virtual finish (admission denied; it stays at the head)."""
        heapq.heappush(self._heap, item)

    def pop_eligible(
        self, eligible: Callable[[JobRecord], bool]
    ) -> Optional[Tuple[float, int, JobRecord]]:
        """Pop the lowest-virtual-finish job with ``eligible(record)``.

        Skipped (ineligible) jobs keep their positions.  Advances the
        queue's virtual time to the popped job's virtual finish."""
        skipped: List[Tuple[float, int, JobRecord]] = []
        found = None
        while self._heap:
            item = heapq.heappop(self._heap)
            if eligible(item[2]):
                found = item
                break
            skipped.append(item)
        for item in skipped:
            heapq.heappush(self._heap, item)
        if found is not None:
            self.vtime = max(self.vtime, found[0])
        return found


class JobScheduler:
    """Admission + fair dispatch of jobs onto a shared worker pool.

    ``runner(record)`` executes one job synchronously on a pool thread
    (the server supplies it); it must set the record's terminal state
    and never raise.  ``on_event(record, event)`` is the thread-safe
    progress callback (events: ``admitted``, ``started`` are emitted
    here; the runner emits ``chunk`` and terminal events itself).  A
    raising ``on_event`` never stops a job: each failure is counted as
    ``callback_errors`` in :meth:`stats` and warned as a
    :class:`RuntimeWarning`.

    ``shards`` splits the worker slots into per-shard pools — N
    simulated devices serving one job mix.  Each admitted job is placed
    on the least-loaded shard (:class:`~repro.distributed.sharding.\
    ShardPlacement`) and runs on that shard's pool; admission stays
    global, so the shards still share one node host-memory ledger.
    ``shards=1`` is exactly the previous single-pool scheduler.
    """

    def __init__(
        self,
        runner: Callable[[JobRecord], None],
        *,
        slots: int = 4,
        host_budget_bytes: int = DEFAULT_HOST_BUDGET,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        on_event: Optional[Callable[[JobRecord, Dict[str, Any]], None]] = None,
        tracer=None,
        shards: int = 1,
    ) -> None:
        if slots < 1:
            raise ValueError("scheduler needs >= 1 slots")
        if shards < 1:
            raise ValueError("scheduler needs >= 1 shards")
        self._runner = runner
        self.slots = int(slots)
        self.shards = int(shards)
        self.hostmem = HostMemoryGovernor(host_budget_bytes, tracer=tracer)
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota or TenantQuota()
        self._on_event = on_event
        self._cond = threading.Condition()
        self._queue = FairQueue()
        self._running: Dict[int, JobRecord] = {}
        self._running_by_tenant: Dict[str, int] = {}
        self.placement = ShardPlacement(self.shards)
        # wired to a transport pool's on_worker_lost: a remote shard
        # whose worker died stops receiving new jobs until marked up
        per_shard = max(1, self.slots // self.shards)
        self._pools = [
            ThreadPoolExecutor(
                max_workers=per_shard,
                thread_name_prefix=f"serve-job-s{t}",
            )
            for t in range(self.shards)
        ]
        self._thread: Optional[threading.Thread] = None
        self._stopped = False
        self.submitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.callback_errors = 0  # on_event hook raises, counted + warned

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def _emit(self, record: JobRecord, event: Dict[str, Any]) -> None:
        if self._on_event is not None:
            try:
                self._on_event(record, event)
            except Exception as exc:
                # the job proceeds; the failure is counted and surfaced
                with self._cond:
                    self.callback_errors += 1
                warnings.warn(
                    f"serve event hook raised for job {record.job_id}: "
                    f"{type(exc).__name__}: {exc}",
                    RuntimeWarning, stacklevel=2,
                )

    # ------------------------------------------------------------------
    # submission (any thread)
    # ------------------------------------------------------------------
    def submit(self, record: JobRecord) -> Tuple[bool, Optional[str]]:
        """Enqueue one job.  Returns ``(accepted, reject_reason)`` —
        the only refusal is a tenant exceeding its ``max_queued``."""
        quota = self.quota_for(record.spec.tenant)
        with self._cond:
            if self._stopped:
                return False, "scheduler is shut down"
            if self._queue.queued_for(record.spec.tenant) >= quota.max_queued:
                self.rejected += 1
                record.state = JobState.REJECTED
                record.error = (
                    f"tenant {record.spec.tenant!r} backlog exceeds "
                    f"max_queued={quota.max_queued}"
                )
                return False, record.error
            self.submitted += 1
            self._queue.push(record, float(record.cost_bytes), quota.weight)
            self._cond.notify_all()
        return True, None

    # ------------------------------------------------------------------
    # dispatch loop (own thread)
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="serve-scheduler", daemon=True
            )
            self._thread.start()

    def _eligible(self, record: JobRecord) -> bool:
        quota = self.quota_for(record.spec.tenant)
        return (self._running_by_tenant.get(record.spec.tenant, 0)
                < quota.max_concurrent)

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._stopped and not self._dispatchable():
                    self._cond.wait(0.05)
                if self._stopped:
                    return
                item = self._queue.pop_eligible(self._eligible)
                if item is None:
                    continue
                record = item[2]
                # jobs-keyed ledger: reserve the estimated footprint.
                # Non-blocking — the loop must keep serving other
                # tenants — with the minimum-progress escape when the
                # node is idle (ledger empty => may_wait=True returns
                # immediately as a counted overcommit).
                ok = self.hostmem.admit(record.job_id, record.cost_bytes,
                                        may_wait=False)
                if not ok and not self._running:
                    ok = self.hostmem.admit(record.job_id, record.cost_bytes,
                                            may_wait=True)
                if not ok:
                    self._queue.requeue_front(item)
                    self._cond.wait(0.05)
                    continue
                shard = self.placement.pick(record.cost_bytes)
                with record.lock:
                    record.state = JobState.ADMITTED
                    record.shard = shard
                self._running[record.job_id] = record
                tenant = record.spec.tenant
                self._running_by_tenant[tenant] = (
                    self._running_by_tenant.get(tenant, 0) + 1
                )
            self._emit(record, {"event": "admitted",
                                "job_id": record.job_id,
                                "reserved_bytes": record.cost_bytes,
                                "shard": shard})
            self._pools[shard].submit(self._run_one, record)

    def _dispatchable(self) -> bool:
        return len(self._queue) > 0 and len(self._running) < self.slots

    def _run_one(self, record: JobRecord) -> None:
        self._emit(record, {"event": "started", "job_id": record.job_id})
        try:
            self._runner(record)
        except Exception as exc:  # the runner's own guard failed
            with record.lock:
                record.state = JobState.FAILED
                record.error = f"{type(exc).__name__}: {exc}"
        finally:
            self.hostmem.release(record.job_id)
            if record.shard is not None:
                self.placement.release(record.shard, record.cost_bytes)
            with self._cond:
                self._running.pop(record.job_id, None)
                tenant = record.spec.tenant
                left = self._running_by_tenant.get(tenant, 1) - 1
                if left > 0:
                    self._running_by_tenant[tenant] = left
                else:
                    self._running_by_tenant.pop(tenant, None)
                if record.state is JobState.FAILED:
                    self.failed += 1
                else:
                    self.completed += 1
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def set_shard_health(self, shard: int, up: bool) -> None:
        """Mark one shard placeable (``up=True``) or not.

        The remote-transport hook: bind a pool's ``on_worker_lost`` to
        ``lambda wid, reason: scheduler.set_shard_health(wid, False)``
        and new jobs steer away from the dead worker's shard while
        running jobs drain normally."""
        if not 0 <= int(shard) < self.shards:
            raise ValueError(f"shard {shard} outside 0..{self.shards - 1}")
        if up:
            self.placement.mark_up(shard)
        else:
            self.placement.mark_down(shard)

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            return {
                "slots": self.slots,
                "shards": self.shards,
                "placement": self.placement.snapshot(),
                "queued": len(self._queue),
                "running": len(self._running),
                "submitted": self.submitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "callback_errors": self.callback_errors,
                "host_budget_bytes": self.hostmem.budget_bytes,
                "host_reserved_bytes": sum(
                    self.hostmem._reserved.values()
                ),
                "host_peak_bytes": self.hostmem.peak_bytes,
                "overcommits": self.hostmem.overcommits,
            }

    def wait_idle(self, timeout: float = 30.0) -> bool:
        """Block until queue and slots drain (tests / bench)."""
        end = time.monotonic() + timeout
        with self._cond:
            while len(self._queue) or self._running:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.05))
        return True

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        for pool in self._pools:
            pool.shutdown(wait=True)
