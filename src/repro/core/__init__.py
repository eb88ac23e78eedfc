"""The paper's contribution: out-of-core, asynchronous, hybrid SpGEMM."""

from .api import (
    run_hybrid,
    run_out_of_core,
    simulate_cpu_baseline,
    simulate_hybrid,
    simulate_out_of_core,
    spgemm,
)
from .assemble import assemble_chunks
from .chunks import ChunkGrid, ChunkProfile, ChunkStats, chunk_flops
from .executor import (
    EXECUTOR_BACKENDS,
    BackendDegradedWarning,
    BackendUnavailable,
    ChunkCorruption,
    ChunkExecutionError,
    ChunkTimeout,
    FaultInjector,
    FaultSpec,
    Governor,
    GovernorConfig,
    InjectedFault,
    RetryPolicy,
    WorkerCrashed,
    execute_chunk_grid,
    plan_hybrid_lanes,
)
from .hybrid import (
    DEFAULT_RATIO,
    HybridAssignment,
    assign_chunks,
    assign_first_n,
    best_gpu_chunk_count,
    build_hybrid_engine,
)
from .memcheck import MemoryReplay, replay_dynamic, replay_pool
from .multigpu import (
    MultiGPUAssignment,
    assign_lpt,
    build_multi_gpu_engine,
    simulate_multi_gpu,
)
from .planner import PlanReport, chunk_footprint_bytes, plan_grid, working_set_bytes
from .results import RunResult
from .spill import (
    DiskChunkStore,
    ManifestMismatch,
    MemoryChunkStore,
    RunManifest,
    SpillableChunkStore,
)
from .verify import verify_product, verify_run, verify_store
from .schedule import build_async_schedule, build_sync_schedule

__all__ = [
    "run_hybrid",
    "run_out_of_core",
    "simulate_cpu_baseline",
    "simulate_hybrid",
    "simulate_out_of_core",
    "spgemm",
    "assemble_chunks",
    "ChunkGrid",
    "ChunkProfile",
    "ChunkStats",
    "chunk_flops",
    "EXECUTOR_BACKENDS",
    "BackendDegradedWarning",
    "BackendUnavailable",
    "ChunkCorruption",
    "ChunkExecutionError",
    "ChunkTimeout",
    "FaultInjector",
    "FaultSpec",
    "Governor",
    "GovernorConfig",
    "InjectedFault",
    "RetryPolicy",
    "WorkerCrashed",
    "execute_chunk_grid",
    "plan_hybrid_lanes",
    "DEFAULT_RATIO",
    "HybridAssignment",
    "assign_chunks",
    "assign_first_n",
    "best_gpu_chunk_count",
    "build_hybrid_engine",
    "PlanReport",
    "chunk_footprint_bytes",
    "plan_grid",
    "working_set_bytes",
    "MemoryReplay",
    "replay_dynamic",
    "replay_pool",
    "MultiGPUAssignment",
    "assign_lpt",
    "build_multi_gpu_engine",
    "simulate_multi_gpu",
    "RunResult",
    "DiskChunkStore",
    "ManifestMismatch",
    "MemoryChunkStore",
    "RunManifest",
    "SpillableChunkStore",
    "verify_product",
    "verify_run",
    "verify_store",
    "build_async_schedule",
    "build_sync_schedule",
]
