"""Socket transport for remote shard workers.

The node ships each shard's operands to a ``repro shard-worker``
process over a length-prefixed, CRC-framed socket protocol
(:mod:`.wire`), the worker (:mod:`.worker`) runs the span through the
ordinary chunk executor and streams results back, and the node-side
pool (:mod:`.pool`) supplies heartbeat-lease liveness, deterministic
exponential-backoff reconnect, and failover re-placement when a worker
dies for good.
"""

from .pool import (
    DEFAULT_RECONNECT,
    RemoteRunResult,
    RemoteShardError,
    RemoteShardPool,
    RemoteWorker,
    TransportDegradedWarning,
    TransportWorkerLost,
    run_remote_span,
)
from .wire import (
    PROTOCOL_VERSION,
    Frame,
    FrameCorruption,
    TransportClosed,
    TransportError,
    connect_address,
    create_listener,
    csr_arrays,
    csr_from_arrays,
    format_address,
    pack_frame,
    parse_address,
    recv_frame,
    send_frame,
)
from .worker import (
    DEFAULT_HEARTBEAT_INTERVAL,
    ShardWorker,
    run_settings,
    settings_record,
    shard_worker_main,
    stats_from_record,
    stats_record,
)

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_RECONNECT",
    "Frame",
    "FrameCorruption",
    "TransportClosed",
    "TransportError",
    "TransportDegradedWarning",
    "TransportWorkerLost",
    "RemoteRunResult",
    "RemoteShardError",
    "RemoteShardPool",
    "RemoteWorker",
    "ShardWorker",
    "connect_address",
    "create_listener",
    "csr_arrays",
    "csr_from_arrays",
    "format_address",
    "pack_frame",
    "parse_address",
    "recv_frame",
    "run_remote_span",
    "run_settings",
    "send_frame",
    "settings_record",
    "shard_worker_main",
    "stats_from_record",
    "stats_record",
]
