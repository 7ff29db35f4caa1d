"""Process-parallel population evaluation with shared-memory batches.

The batched cost-model engine made ``evaluate_population`` the unit of
work; this package shards that unit across execution backends:

* :func:`~repro.parallel.backend.make_backend` builds a ``serial`` /
  ``thread`` / ``process`` / ``distributed``
  :class:`~repro.parallel.backend.ExecutionBackend`; the process backend
  hands batches to persistent workers via zero-copy shared memory
  (:mod:`repro.parallel.shm`).
* :class:`~repro.parallel.distributed.DistributedBackend` extends the
  ladder past one host: batches shard over socket-connected
  ``repro worker`` node agents (self-spawned localhost fleet, or an
  external one via ``$REPRO_BIND``).
* :class:`~repro.parallel.backend.SupervisedBackend` is the scheduler
  core under both: dead or hung workers are replaced and their lost
  shards re-dispatched, bounded by a retry budget
  (:mod:`repro.parallel.errors` is the failure taxonomy).
* :class:`~repro.parallel.backend.ResilientBackend` adds the
  distributed -> process -> thread -> serial degradation ladder on top
  of any backend.
* :class:`~repro.parallel.faults.FaultPlan` scripts deterministic
  worker kills / injected exceptions / delays (``$REPRO_FAULTS`` or
  ``fault_plan=``), so every recovery path is tested, not hoped for.
* :class:`~repro.parallel.coordinator.ParallelCoordinator` is the
  session observer that owns worker lifecycle and surfaces the
  fault-tolerance counters into ``SessionResult.provenance``; sessions
  build one automatically from ``SearchSpec.executor`` /
  ``SearchSpec.workers``.
* Scheduling is static, one policy per transport.  Batches below the
  measured per-transport break-even
  (:data:`~repro.parallel.backend.TRANSPORT_MIN_BATCH`) run in-process;
  the thread and process backends split the rest into one uniform
  shard per worker (:func:`~repro.parallel.backend.shard_bounds`), the
  distributed backend into finer shards that idle nodes pull.

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
    SupervisedBackend,
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

__all__ = [
    "DEFAULT_DISPATCH_MIN_BATCH",
    "DEFAULT_MAX_RETRIES",
    "DEGRADATION_LADDER",
    "EXECUTORS",
    "BatchBlock",
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
    "SupervisedBackend",
    "TRANSPORT_MIN_BATCH",
    "TaskTimeoutError",
    "ThreadBackend",
    "WorkerCrashError",
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
