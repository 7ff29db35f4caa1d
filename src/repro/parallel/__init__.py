"""Process-parallel population evaluation with shared-memory batches.

The batched cost-model engine made ``evaluate_population`` the unit of
work; this package shards that unit across execution backends:

* :func:`~repro.parallel.backend.make_backend` builds a ``serial`` /
  ``thread`` / ``process`` / ``chaos`` :class:`~repro.parallel.backend
  .ExecutionBackend`; the process backend hands batches to persistent
  workers via zero-copy shared memory (:mod:`repro.parallel.shm`) and
  *supervises* them -- dead or hung workers are respawned and their lost
  shards re-dispatched, bounded by a retry budget
  (:mod:`repro.parallel.errors` is the failure taxonomy).
* :class:`~repro.parallel.distributed.DistributedBackend` extends the
  ladder past one host: batches shard over socket-connected
  ``repro worker`` node agents (self-spawned localhost fleet, or an
  external one via ``$REPRO_BIND``), with pull-based work stealing and
  the same supervision/recovery contract.
* :class:`~repro.parallel.backend.ResilientBackend` adds the
  distributed -> process -> thread -> serial degradation ladder on top
  of any backend.
* :class:`~repro.parallel.faults.FaultPlan` scripts deterministic
  worker kills / injected exceptions / delays (``$REPRO_FAULTS``, the
  ``chaos`` executor), so every recovery path is tested, not hoped for.
* :class:`~repro.parallel.coordinator.ParallelCoordinator` is the
  session observer that owns worker lifecycle and surfaces the
  fault-tolerance counters into ``SessionResult.provenance``; sessions
  build one automatically from ``SearchSpec.executor`` /
  ``SearchSpec.workers``.
* :mod:`repro.parallel.tuning` is the profile-guided layer:
  :class:`~repro.parallel.tuning.ThroughputModel` (per-worker EWMA of
  rows/sec from shard timing echoes), :class:`~repro.parallel.tuning
  .ShardPlanner` (initial shard spans proportional to measured rates),
  and break-even calibration (``dispatch_min_batch="auto"``) -- all
  behind ``SearchSpec.autotune`` / ``$REPRO_AUTOTUNE``.  Scheduling
  only: results stay bit-identical with tuning on or off.

Every backend is bit-identical to the serial kernel -- crash-free,
recovered, or degraded -- the determinism suite in
``tests/test_parallel_parity.py`` holds that line.
"""

from repro.parallel.backend import (
    DEFAULT_DISPATCH_MIN_BATCH,
    DEFAULT_MAX_RETRIES,
    DEGRADATION_LADDER,
    EXECUTORS,
    ExecutionBackend,
    ProcessBackend,
    ResilientBackend,
    SerialBackend,
    ThreadBackend,
    TRANSPORT_MIN_BATCH,
    default_dispatch_min_batch,
    default_max_retries,
    default_task_timeout,
    default_workers,
    make_backend,
    shard_bounds,
)
from repro.parallel.coordinator import ParallelCoordinator, PoolLease
from repro.parallel.distributed import (
    DistributedBackend,
    default_bind,
    default_nodes,
    run_worker_agent,
    worker_agent_main,
)
from repro.parallel.errors import (
    ExecutionError,
    FaultInjected,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.parallel.faults import FaultPlan
from repro.parallel.shm import BatchBlock
from repro.parallel.tuning import (
    AUTOTUNE_ENV,
    BreakEvenCalibrator,
    ShardPlanner,
    ThroughputModel,
    TuningState,
    default_autotune,
)

__all__ = [
    "AUTOTUNE_ENV",
    "DEFAULT_DISPATCH_MIN_BATCH",
    "DEFAULT_MAX_RETRIES",
    "DEGRADATION_LADDER",
    "EXECUTORS",
    "BatchBlock",
    "BreakEvenCalibrator",
    "DistributedBackend",
    "ExecutionBackend",
    "ExecutionError",
    "FaultInjected",
    "FaultPlan",
    "ParallelCoordinator",
    "PoolLease",
    "ProcessBackend",
    "ResilientBackend",
    "SerialBackend",
    "ShardPlanner",
    "TRANSPORT_MIN_BATCH",
    "TaskTimeoutError",
    "ThreadBackend",
    "ThroughputModel",
    "TuningState",
    "WorkerCrashError",
    "default_autotune",
    "default_bind",
    "default_dispatch_min_batch",
    "default_max_retries",
    "default_nodes",
    "default_task_timeout",
    "default_workers",
    "make_backend",
    "run_worker_agent",
    "shard_bounds",
    "worker_agent_main",
]
