"""Pluggable execution backends for batched population evaluation.

A backend answers one call -- :meth:`ExecutionBackend.evaluate` -- with
exactly the :class:`~repro.costmodel.report.BatchCostReport` the in-process
kernel would have produced.  Because
:func:`~repro.costmodel.batched.evaluate_batch_kernel` is elementwise over
the batch axis, a backend may split the batch at any boundaries, evaluate
the shards anywhere (threads, worker processes), and write the shard
outputs back at their offsets: the gathered report is bit-identical to a
single serial call, which is the invariant the parity suite in
``tests/test_parallel_parity.py`` locks down.

Four backends ship:

* :class:`SerialBackend` -- the in-process kernel (the do-nothing
  reference implementation every other backend must match bit for bit).
* :class:`ThreadBackend` -- shards across a persistent thread pool; NumPy
  releases the GIL inside its inner loops, so large batches overlap.
* :class:`ProcessBackend` -- shards across persistent worker processes
  with zero-copy array handoff via :mod:`repro.parallel.shm`.  Workers
  are spawned once, reused for every batch of a session, and shut down
  deterministically (``shutdown``, context-manager exit, or finalizer).
  The backend *supervises* its pool: a worker that dies or hangs
  mid-batch is respawned, its cached tables re-shipped, and only the
  lost shards re-dispatched -- bounded by a retry budget with
  exponential backoff -- so the recovered batch is bit-identical to a
  crash-free run (the kernel is pure and shard-invariant).
* ``chaos`` -- the process backend with a deterministic
  :class:`~repro.parallel.faults.FaultPlan` always attached
  (``$REPRO_FAULTS`` or a default seeded plan), so every recovery path
  is exercised by ordinary test runs.

:class:`ResilientBackend` wraps any parallel backend in the degradation
ladder: when a pool fails outright (retry budget exhausted -- an
:class:`~repro.parallel.errors.ExecutionError`), it downshifts
process -> thread -> serial via :func:`make_backend`, re-runs the failed
batch on the new rung, and records ``degraded_to`` -- the session
completes instead of dying.

Pick one by name with :func:`make_backend`.
"""

from __future__ import annotations

import os
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.batched import (
    LayerTable,
    evaluate_batch_kernel,
    table_token,
)
from repro.costmodel.constants import HardwareConfig
from repro.costmodel.report import BatchCostReport
from repro.parallel.errors import (
    ExecutionError,
    FaultInjected,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.parallel.faults import FaultPlan
from repro.parallel.shm import BatchBlock, mute_resource_tracker

__all__ = [
    "DEFAULT_DISPATCH_MIN_BATCH",
    "DEFAULT_MAX_RETRIES",
    "DEGRADATION_LADDER",
    "EXECUTORS",
    "ExecutionBackend",
    "ProcessBackend",
    "ResilientBackend",
    "SerialBackend",
    "ThreadBackend",
    "TRANSPORT_MIN_BATCH",
    "default_dispatch_min_batch",
    "default_max_retries",
    "default_task_timeout",
    "default_workers",
    "make_backend",
    "shard_bounds",
]

#: Names accepted by :func:`make_backend` and ``SearchSpec.executor``.
#: ``chaos`` is the process backend with a deterministic fault plan
#: attached -- same results, injected failures.  ``distributed`` shards
#: over socket-connected node agents (see
#: :mod:`repro.parallel.distributed`).
EXECUTORS: Tuple[str, ...] = ("serial", "thread", "process", "chaos",
                              "distributed")

#: Per-batch recovery budget: how many crash/timeout/fault recoveries a
#: single ``evaluate`` call may spend before raising (override with
#: ``$REPRO_MAX_RETRIES`` or the ``max_retries`` argument).
DEFAULT_MAX_RETRIES = 3

#: The downshift order :class:`ResilientBackend` walks after a pool
#: failure.  ``serial`` has no entry: it cannot fail for infrastructure
#: reasons, so an error there propagates.  A distributed fleet that
#: fails outright falls back to this host's process pool.
DEGRADATION_LADDER: Dict[str, str] = {"distributed": "process",
                                      "process": "thread",
                                      "thread": "serial"}

#: Default adaptive-dispatch threshold: batches smaller than this many
#: elements *per worker* run in-process instead of being sharded -- the
#: per-batch IPC cost (queue hop + shared-memory map) beats the kernel
#: itself below roughly this size (see the ``break_even`` section of
#: BENCH_parallel.json, written by ``bench_parallel_scaling.py``).
DEFAULT_DISPATCH_MIN_BATCH = 256

#: Measured per-transport break-even thresholds (elements per worker
#: below which the in-process kernel beats sharding): each hop up the
#: transport ladder adds per-batch cost -- thread wakeup < queue hop +
#: shared-memory map < socket round-trip + pickled arrays -- so each
#: needs a bigger batch to amortize it.  Calibrated by the
#: ``break_even.per_transport`` section of BENCH_parallel.json
#: (``bench_parallel_scaling.py``); resolved per executor by
#: ``SearchSpec.resolved_dispatch_min_batch``.
TRANSPORT_MIN_BATCH: Dict[str, int] = {
    "serial": 0,           # no dispatch cost to amortize
    "thread": 128,
    "process": DEFAULT_DISPATCH_MIN_BATCH,
    "chaos": DEFAULT_DISPATCH_MIN_BATCH,
    "distributed": 1024,
}


def default_workers() -> int:
    """Worker count when none is requested: ``$REPRO_WORKERS`` if set,
    else every available core (capped at 8 -- the batch sizes this
    repository produces stop scaling long before that)."""
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        workers = int(env)
        if workers < 1:
            raise ValueError(f"REPRO_WORKERS must be >= 1, got {env!r}")
        return workers
    return max(1, min(8, os.cpu_count() or 1))


def default_dispatch_min_batch(executor: Optional[str] = None) -> int:
    """Adaptive-dispatch threshold when none is requested:
    ``$REPRO_DISPATCH_MIN`` if set (0 disables the fallback), else the
    transport's measured break-even from :data:`TRANSPORT_MIN_BATCH`
    (:data:`DEFAULT_DISPATCH_MIN_BATCH` when ``executor`` is ``None``
    or unknown -- the pre-calibration behavior)."""
    env = os.environ.get("REPRO_DISPATCH_MIN")
    if env is not None:
        threshold = int(env)
        if threshold < 0:
            raise ValueError(
                f"REPRO_DISPATCH_MIN must be >= 0, got {env!r}")
        return threshold
    if executor is None:
        return DEFAULT_DISPATCH_MIN_BATCH
    return TRANSPORT_MIN_BATCH.get(executor, DEFAULT_DISPATCH_MIN_BATCH)


def default_max_retries() -> int:
    """Per-batch recovery budget when none is requested:
    ``$REPRO_MAX_RETRIES`` if set (0 disables recovery: the first
    failure raises), else :data:`DEFAULT_MAX_RETRIES`."""
    env = os.environ.get("REPRO_MAX_RETRIES")
    if env is not None:
        retries = int(env)
        if retries < 0:
            raise ValueError(f"REPRO_MAX_RETRIES must be >= 0, got {env!r}")
        return retries
    return DEFAULT_MAX_RETRIES


def default_task_timeout() -> float:
    """Per-batch deadline in seconds when none is requested:
    ``$REPRO_TASK_TIMEOUT`` if set, else 0 (no deadline)."""
    env = os.environ.get("REPRO_TASK_TIMEOUT")
    if env is not None:
        timeout = float(env)
        if timeout < 0:
            raise ValueError(
                f"REPRO_TASK_TIMEOUT must be >= 0, got {env!r}")
        return timeout
    return 0.0


def shard_bounds(batch: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``[0, batch)`` into at most ``shards`` contiguous ranges.

    Remainder elements go to the leading shards, so shard sizes differ by
    at most one; empty shards are never produced.  The boundaries affect
    only *where* elements are computed, never their values.
    """
    shards = max(1, min(shards, batch))
    base, remainder = divmod(batch, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < remainder else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class ExecutionBackend:
    """Interface: evaluate one validated batch, own any worker state.

    Args:
        workers: Degree of sharding.
        min_batch_per_worker: Adaptive-dispatch threshold -- batches with
            fewer than ``min_batch_per_worker * workers`` elements run
            through the in-process kernel instead of the workers (the
            IPC/wakeup cost exceeds the kernel below the break-even; see
            :func:`default_dispatch_min_batch`).  Directly constructed
            backends default to ``0`` (always shard, the legacy
            behavior); the spec-level surfaces (``SearchSpec`` sessions,
            ``compare_methods``, the CLI) resolve the adaptive default.
            Sharding never changes results, so neither does the
            fallback.
        tuner: Optional :class:`~repro.parallel.tuning.TuningState`.
            When set, completed shards feed its throughput model, its
            planner sizes initial shards, and (``auto_dispatch``) its
            calibrator replaces the static break-even table.  All of
            that only moves work between equally bit-identical
            execution paths, so a tuner never changes results either.
    """

    name = "base"

    def __init__(self, workers: int = 1,
                 min_batch_per_worker: int = 0, tuner=None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if min_batch_per_worker < 0:
            raise ValueError("min_batch_per_worker must be >= 0")
        self.workers = workers
        self.min_batch_per_worker = min_batch_per_worker
        self.tuner = tuner
        #: Dispatch counters: how many batches ran in-process vs sharded
        #: (observability for the adaptive fallback; never affects
        #: results).
        self.inline_batches = 0
        self.sharded_batches = 0

    def _below_break_even(self, batch: int) -> bool:
        """Whether ``batch`` is too small to be worth sharding."""
        return batch < self.min_batch_per_worker * self.workers

    def _route_inline(self, batch: int) -> bool:
        """Inline-vs-shard decision: the tuner's calibrated crossover
        when one is attached and calibrating, else the static
        threshold.  Both routes are bit-identical, so this only ever
        moves wall clock."""
        if self.tuner is not None and self.tuner.auto_dispatch:
            return self.tuner.route_inline(
                self.name, batch,
                self.min_batch_per_worker * self.workers)
        return self._below_break_even(batch)

    def _observe_route(self, batch: int, inline: bool,
                       elapsed_s: float) -> None:
        """Feed one timed batch back into the break-even calibrator."""
        if self.tuner is not None:
            self.tuner.observe_route(self.name, inline, batch, elapsed_s)

    def _plan_shards(self, batch: int, chunks_per_key: int = 1):
        """``(bounds, owners)`` for one batch: throughput-proportional
        when the tuner plans shards, else the static uniform
        round-robin (identical to the tuner's own fallback)."""
        keys = list(range(self.workers))
        if self.tuner is not None and self.tuner.plan_shards:
            return self.tuner.plan(batch, self.name, keys, chunks_per_key)
        bounds = shard_bounds(batch, self.workers * chunks_per_key)
        return bounds, [keys[i % len(keys)] for i in range(len(bounds))]

    def _observe_shard(self, key, rows: int, elapsed_s: float) -> None:
        """Feed one completed shard's timing into the throughput model."""
        if self.tuner is not None:
            self.tuner.observe(self.name, key, rows, elapsed_s)

    def evaluate(self, hw: HardwareConfig, table: LayerTable,
                 layer_idx: np.ndarray, style_idx: np.ndarray,
                 pes: np.ndarray, l1_bytes: np.ndarray) -> BatchCostReport:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release workers; the backend restarts lazily if reused."""

    @property
    def alive_workers(self) -> int:
        """Live worker processes/threads (0 for in-process backends)."""
        return 0

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ExecutionBackend):
    """The in-process kernel; the reference the other backends must match."""

    name = "serial"

    def evaluate(self, hw, table, layer_idx, style_idx, pes,
                 l1_bytes) -> BatchCostReport:
        return evaluate_batch_kernel(hw, table, layer_idx, style_idx, pes,
                                     l1_bytes)


def _concat_reports(parts: Sequence[BatchCostReport]) -> BatchCostReport:
    """Stitch in-order shard reports back into one batch report."""
    if len(parts) == 1:
        return parts[0]
    return BatchCostReport(**{
        f.name: np.concatenate([getattr(part, f.name) for part in parts])
        for f in fields(BatchCostReport)
    })


class ThreadBackend(ExecutionBackend):
    """Shard across a persistent thread pool in this process.

    Threads cannot be killed or respawned, so of the fault kinds only
    ``raise_in_kernel`` applies here, keyed ``(batch_idx, shard_idx)``
    and checked at dispatch time: it raises
    :class:`~repro.parallel.errors.FaultInjected` out of ``evaluate``
    (fire-once), which is how a chaos run exercises the degradation
    ladder's middle rung.
    """

    name = "thread"

    def __init__(self, workers: int = 1,
                 min_batch_per_worker: int = 0,
                 fault_plan: Optional[FaultPlan] = None,
                 tuner=None) -> None:
        super().__init__(workers, min_batch_per_worker, tuner=tuner)
        self._pool: Optional[ThreadPoolExecutor] = None
        self.fault_plan = fault_plan
        self._fired_faults: set = set()
        self._next_task = 0

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-batch")
        return self._pool

    def _check_faults(self, task_id: int, shards: int) -> None:
        if self.fault_plan is None:
            return
        for batch_idx, shard_idx in self.fault_plan.raise_in_kernel:
            key = (batch_idx, shard_idx)
            if (batch_idx == task_id and shard_idx < shards
                    and key not in self._fired_faults):
                self._fired_faults.add(key)
                raise FaultInjected(
                    f"injected fault in thread shard {shard_idx} at "
                    f"batch {task_id}")

    def _run_shard(self, owner, hw, table, layer_idx, style_idx, pes,
                   l1_bytes) -> BatchCostReport:
        start = time.perf_counter()
        report = evaluate_batch_kernel(hw, table, layer_idx, style_idx,
                                       pes, l1_bytes)
        self._observe_shard(owner, layer_idx.size,
                            time.perf_counter() - start)
        return report

    def evaluate(self, hw, table, layer_idx, style_idx, pes,
                 l1_bytes) -> BatchCostReport:
        batch = layer_idx.size
        if self.workers == 1 or batch < 2 or self._route_inline(batch):
            self.inline_batches += 1
            start = time.perf_counter()
            report = evaluate_batch_kernel(hw, table, layer_idx,
                                           style_idx, pes, l1_bytes)
            self._observe_route(batch, True, time.perf_counter() - start)
            return report
        bounds, owners = self._plan_shards(batch)
        self.sharded_batches += 1
        task_id = self._next_task
        self._next_task += 1
        self._check_faults(task_id, len(bounds))
        pool = self._ensure_pool()
        start = time.perf_counter()
        futures = [
            pool.submit(self._run_shard, owner, hw, table,
                        layer_idx[lo:hi], style_idx[lo:hi], pes[lo:hi],
                        l1_bytes[lo:hi])
            for (lo, hi), owner in zip(bounds, owners)
        ]
        report = _concat_reports([future.result() for future in futures])
        self._observe_route(batch, False, time.perf_counter() - start)
        return report

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# ----------------------------------------------------------------------
# Process backend
# ----------------------------------------------------------------------
def _worker_main(worker_id: int, task_queue, result_queue,
                 faults: Optional[dict] = None) -> None:
    """Worker loop: evaluate shards of shared-memory batches until told
    to exit.  Tables and hardware constants arrive once per search
    (``load`` messages) and are cached by id; per-batch messages carry
    only the segment descriptor, so the arrays themselves never cross
    the queue.

    ``faults`` is this worker's slice of a
    :class:`~repro.parallel.faults.FaultPlan` (``{"kill": [batch...],
    "raise": [batch...], "delay": [[batch, seconds]...],
    "throttle": seconds_per_row}``), shipped at spawn time; respawned
    workers receive a pruned copy so a consumed fault never re-fires.
    Kills exit before the segment is touched, raises fire once each and
    are reported with the dedicated ``"fault"`` status (retryable),
    delays sleep before evaluating, and a throttle sleeps proportional
    to shard rows on *every* shard (a persistent straggler, charged to
    the timing echo).
    """
    mute_resource_tracker()
    kill_at = list(faults["kill"]) if faults else []
    raise_at = list(faults["raise"]) if faults else []
    throttle = float(faults.get("throttle", 0.0)) if faults else 0.0
    delay_at: Dict[int, float] = {}
    if faults:
        for batch_idx, seconds in faults["delay"]:
            delay_at[batch_idx] = delay_at.get(batch_idx, 0.0) + seconds
    tables: Dict[int, Tuple[HardwareConfig, LayerTable]] = {}
    while True:
        message = task_queue.get()
        if message is None:
            break
        kind = message[0]
        if kind == "load":
            _, table_id, hw, layers = message
            tables[table_id] = (hw, LayerTable.build(layers))
            continue
        _, task_id, segment_name, batch, lo, hi, table_id = message
        if task_id in kill_at:
            os._exit(1)
        delay = delay_at.pop(task_id, 0.0)
        if throttle:
            delay += throttle * (hi - lo)
        if delay:
            time.sleep(delay)
        status, detail, elapsed = "ok", None, 0.0
        try:
            if task_id in raise_at:
                raise_at.remove(task_id)
                raise FaultInjected(
                    f"injected fault in worker {worker_id} at batch "
                    f"{task_id}")
            hw, table = tables[table_id]
            block = BatchBlock.attach(segment_name, batch)
            try:
                start = time.perf_counter()
                report = evaluate_batch_kernel(
                    hw, table,
                    block.inputs["layer_idx"][lo:hi],
                    block.inputs["style_idx"][lo:hi],
                    block.inputs["pes"][lo:hi],
                    block.inputs["l1_bytes"][lo:hi])
                # The kernel time alone is the timing echo: queue wait
                # and segment mapping are coordinator-side costs, and
                # including them would make a busy worker look slow and
                # starve it further.  Injected delays emulate a
                # straggler, so they ARE charged: the throughput model
                # must see the slow worker the plan routes around.
                elapsed = time.perf_counter() - start + delay
                block.write_report(report, lo, hi)
            finally:
                block.close()
        except FaultInjected as error:
            status, detail = "fault", repr(error)
        except BaseException as error:  # noqa: BLE001 - forwarded verbatim
            import traceback

            status, detail = "error", f"{error!r}\n{traceback.format_exc()}"
        result_queue.put((task_id, worker_id, lo, hi, status, detail,
                          elapsed))


class ProcessBackend(ExecutionBackend):
    """Shard batches across persistent, *supervised* worker processes.

    Workers are spawned lazily on the first batch (once per backend
    lifetime), reused for every subsequent batch -- a whole session's
    generations -- and shut down via :meth:`shutdown` / context exit; a
    ``weakref.finalize`` guard reaps them if the owner forgets.  Each
    batch travels through one shared-memory segment (see
    :mod:`repro.parallel.shm`); each worker gets a dedicated task queue
    so shard routing -- and therefore table shipping -- is deterministic.

    Supervision: a worker that dies mid-batch (OOM kill, segfault,
    injected fault) is detected by the result-wait loop, respawned with
    a fresh task queue, its cached tables re-shipped, and only its lost
    shards re-dispatched -- after an exponential backoff, bounded per
    batch by ``max_retries``.  A batch that misses ``task_timeout_s``
    has its hung workers terminated and recovered the same way.  The
    batched kernel is pure and shard-invariant, so a recovered batch is
    bit-identical to a crash-free one.  Exhausting the budget raises
    :class:`~repro.parallel.errors.WorkerCrashError` /
    :class:`~repro.parallel.errors.TaskTimeoutError` (both
    :class:`~repro.parallel.errors.ExecutionError`, the degradation
    ladder's cue) with the pool shut down for a clean restart.

    Args:
        workers: Worker process count.
        start_method: ``multiprocessing`` start method; default
            ``$REPRO_MP_START`` or ``fork`` where available (spawn works
            too, it just pays a per-worker interpreter start).
        min_batch_per_worker: Adaptive-dispatch threshold (see
            :class:`ExecutionBackend`); small batches run in-process and
            do not spawn the pool.
        max_retries: Per-batch recovery budget (``None``:
            ``$REPRO_MAX_RETRIES`` or :data:`DEFAULT_MAX_RETRIES`).
        backoff_base_s: First-retry backoff; attempt ``n`` sleeps
            ``backoff_base_s * 2**(n-1)``.
        task_timeout_s: Per-batch deadline in seconds; 0 disables
            (``None``: ``$REPRO_TASK_TIMEOUT`` or disabled).
        fault_plan: Deterministic fault injection script (``None``:
            ``$REPRO_FAULTS`` or no faults).

    Attributes:
        retries / respawns / timeouts: Recovery counters (never reset by
            :meth:`shutdown`), surfaced into ``SessionResult.provenance``
            by :class:`~repro.parallel.ParallelCoordinator`.  All stay 0
            in a crash-free run -- supervision costs nothing until a
            failure happens.
    """

    name = "process"

    #: Liveness/deadline poll interval while waiting on shard acks --
    #: also the worst-case crash-detection latency.
    POLL_S = 0.25

    def __init__(self, workers: int = 1,
                 start_method: Optional[str] = None,
                 min_batch_per_worker: int = 0,
                 max_retries: Optional[int] = None,
                 backoff_base_s: float = 0.05,
                 task_timeout_s: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 tuner=None) -> None:
        super().__init__(workers, min_batch_per_worker, tuner=tuner)
        import multiprocessing

        if start_method is None:
            start_method = os.environ.get("REPRO_MP_START")
        if start_method is None:
            start_method = ("fork" if "fork"
                            in multiprocessing.get_all_start_methods()
                            else "spawn")
        self._context = multiprocessing.get_context(start_method)
        self.max_retries = (default_max_retries() if max_retries is None
                            else max_retries)
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        self.backoff_base_s = backoff_base_s
        if task_timeout_s is None:
            task_timeout_s = default_task_timeout()
        if task_timeout_s < 0:
            raise ValueError("task_timeout_s must be >= 0 (0 disables)")
        #: Per-batch deadline; ``None`` means no deadline.
        self.task_timeout_s = float(task_timeout_s) or None
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        self.fault_plan = fault_plan
        # Mutable per-worker remainders of the plan's consumable fault
        # kinds: one occurrence is pruned per observed death / hang so a
        # respawned worker never replays a consumed fault.
        self._kills: Dict[int, List[int]] = {}
        self._delays: Dict[int, List[Tuple[int, float]]] = {}
        if fault_plan is not None:
            for worker_id in range(workers):
                self._kills[worker_id] = fault_plan.kills_for(worker_id)
                self._delays[worker_id] = fault_plan.delays_for(worker_id)
        self.retries = 0
        self.respawns = 0
        self.timeouts = 0
        self._processes: List = []
        self._task_queues: List = []
        self._result_queue = None
        self._tables: Dict[int, LayerTable] = {}
        self._shipped: List[set] = []
        self._generations: List[int] = []
        self._next_task = 0
        self._finalizer: Optional[weakref.finalize] = None

    # ------------------------------------------------------------------
    @property
    def alive_workers(self) -> int:
        return sum(1 for process in self._processes if process.is_alive())

    def _fault_wire(self, worker_id: int) -> Optional[dict]:
        """This worker's (remaining) slice of the fault plan, in the
        wire format ``_worker_main`` consumes."""
        if self.fault_plan is None:
            return None
        return {
            "kill": list(self._kills.get(worker_id, ())),
            "raise": self.fault_plan.raises_for(worker_id),
            "delay": [[batch, seconds] for batch, seconds
                      in self._delays.get(worker_id, ())],
            # Persistent straggler emulation: never pruned, a respawned
            # worker stays slow.
            "throttle": self.fault_plan.throttle_for(worker_id),
        }

    def _spawn(self, worker_id: int) -> None:
        generation = self._generations[worker_id]
        suffix = f"-r{generation}" if generation else ""
        process = self._context.Process(
            target=_worker_main,
            args=(worker_id, self._task_queues[worker_id],
                  self._result_queue, self._fault_wire(worker_id)),
            daemon=True,
            name=f"repro-worker-{worker_id}{suffix}")
        process.start()
        self._processes[worker_id] = process

    def _ensure_started(self) -> None:
        if self._processes:
            return
        self._result_queue = self._context.Queue()
        self._task_queues = [self._context.Queue()
                             for _ in range(self.workers)]
        self._processes = [None] * self.workers
        self._shipped = [set() for _ in range(self.workers)]
        self._generations = [0] * self.workers
        for worker_id in range(self.workers):
            self._spawn(worker_id)
        # The finalizer holds the *lists*, which respawns mutate in
        # place, so it always reaps the current pool members.
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, self._processes, self._task_queues)

    def _respawn(self, worker_id: int, task_id: int) -> None:
        """Replace one dead or hung worker: terminate what is left of
        it, drop its task queue (undelivered messages and sentinels die
        with it), prune the faults it just consumed, and start a fresh
        incarnation that will be re-shipped tables on demand."""
        process = self._processes[worker_id]
        if process.is_alive():
            process.terminate()
        process.join(timeout=5)
        old_queue = self._task_queues[worker_id]
        try:
            old_queue.cancel_join_thread()
            old_queue.close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
        # Prune one occurrence of the faults that explain this event so
        # the replacement does not replay them (entries are multisets:
        # duplicates deliberately re-fire).
        kills = self._kills.get(worker_id)
        if kills and task_id in kills:
            kills.remove(task_id)
        delays = self._delays.get(worker_id)
        if delays:
            for entry in delays:
                if entry[0] == task_id:
                    delays.remove(entry)
                    break
        self._task_queues[worker_id] = self._context.Queue()
        self._shipped[worker_id] = set()
        self._generations[worker_id] += 1
        self._spawn(worker_id)
        self.respawns += 1

    def _ship_table(self, worker_id: int, hw: HardwareConfig,
                    table: LayerTable) -> int:
        """Make ``table`` available in a worker; returns its wire id.

        The wire id is the table's never-recycled generation token (the
        backend also pins every shipped table in ``self._tables``), so a
        collected table can never alias a later one worker-side.
        """
        table_id = table_token(table)
        self._tables[table_id] = table
        if table_id not in self._shipped[worker_id]:
            # A respawned worker starts empty and is re-shipped on
            # demand.
            self._task_queues[worker_id].put(
                ("load", table_id, hw, table.layers))
            self._shipped[worker_id].add(table_id)
        return table_id

    def _dispatch(self, worker_id: int, task_id: int, block: BatchBlock,
                  lo: int, hi: int, hw, table) -> None:
        table_id = self._ship_table(worker_id, hw, table)
        self._task_queues[worker_id].put(
            ("eval", task_id, block.name, block.batch, lo, hi, table_id))

    def evaluate(self, hw, table, layer_idx, style_idx, pes,
                 l1_bytes) -> BatchCostReport:
        batch = layer_idx.size
        if self._route_inline(batch):
            # Too small to amortize the queue hop + segment map; the
            # in-process kernel is bit-identical, so only latency
            # changes.  An idle pool stays warm for the next big batch.
            self.inline_batches += 1
            start = time.perf_counter()
            report = evaluate_batch_kernel(hw, table, layer_idx,
                                           style_idx, pes, l1_bytes)
            self._observe_route(batch, True, time.perf_counter() - start)
            return report
        self.sharded_batches += 1
        self._ensure_started()
        bounds, owners = self._plan_shards(batch)
        task_id = self._next_task
        self._next_task += 1
        start = time.perf_counter()
        with BatchBlock.allocate(layer_idx, style_idx, pes,
                                 l1_bytes) as block:
            self._run_task(task_id, block, bounds, hw, table,
                           owners=owners)
            report = block.gather_report()
        self._observe_route(batch, False, time.perf_counter() - start)
        return report

    # ------------------------------------------------------------------
    def _run_task(self, task_id: int, block: BatchBlock, bounds, hw,
                  table, owners=None) -> None:
        """Dispatch one batch's shards and supervise them to completion.

        ``owners`` names the worker for each shard (the shard planner's
        assignment); without one the shards round-robin over the pool.
        The loop waits for shard acks while polling worker liveness and
        the batch deadline; lost shards (dead or hung worker, injected
        fault) are re-dispatched after recovery, bounded by
        ``max_retries`` recoveries per batch.  Stale acks -- from a
        worker terminated after it finished, or an earlier attempt of a
        recovered shard -- are recognized by (task, shard) bookkeeping
        and ignored; duplicate writes are idempotent because every
        attempt computes identical bytes.
        """
        import queue as queue_module

        pending: Dict[Tuple[int, int], int] = {}
        for shard, (lo, hi) in enumerate(bounds):
            worker_id = (owners[shard] if owners is not None
                         else shard % self.workers)
            self._dispatch(worker_id, task_id, block, lo, hi, hw, table)
            pending[(lo, hi)] = worker_id
        attempts = 0
        failures: List[Tuple[int, str]] = []
        timeout = self.task_timeout_s
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while pending:
            wait = self.POLL_S
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            message = None
            try:
                message = self._result_queue.get(timeout=wait)
            except queue_module.Empty:
                pass
            if message is not None:
                done_id, worker_id, lo, hi, status, detail, elapsed = \
                    message
                if done_id != task_id or (lo, hi) not in pending:
                    continue  # stale ack from a recovered attempt
                if status == "ok":
                    del pending[(lo, hi)]
                    self._observe_shard(worker_id, hi - lo, elapsed)
                elif status == "fault":
                    # Injected and explicitly retryable; the worker is
                    # alive and will not re-fire, so re-dispatch the
                    # same shard right back to it.
                    attempts = self._account_recovery(
                        task_id, attempts, "fault",
                        f"injected fault on worker {worker_id}")
                    self._dispatch(worker_id, task_id, block, lo, hi, hw,
                                   table)
                else:
                    # A genuine kernel error is deterministic: burning
                    # the retry budget (or a downshift) on it would only
                    # delay the same failure, so surface it -- but only
                    # after the remaining shards drain, keeping the pool
                    # consistent for the next batch.
                    failures.append((worker_id, detail))
                    del pending[(lo, hi)]
                continue
            # Nothing arrived inside the poll window: look for dead
            # workers among the pending shards, then check the deadline.
            dead = sorted({wid for wid in pending.values()
                           if not self._processes[wid].is_alive()})
            if dead:
                names = [self._processes[wid].name for wid in dead]
                attempts = self._account_recovery(
                    task_id, attempts, "crash",
                    f"worker(s) died mid-batch: {', '.join(names)}",
                    worker_names=names)
                self._recover(task_id, block, pending, dead, hw, table)
                if deadline is not None:
                    deadline = time.monotonic() + timeout
                continue
            if deadline is not None and time.monotonic() >= deadline:
                hung = sorted(set(pending.values()))
                self.timeouts += 1
                attempts = self._account_recovery(
                    task_id, attempts, "timeout",
                    f"batch {task_id} missed its {timeout}s deadline "
                    f"({len(pending)} shard(s) outstanding)")
                self._recover(task_id, block, pending, hung, hw, table)
                deadline = time.monotonic() + timeout
        if failures:
            worker_id, detail = failures[0]
            raise RuntimeError(
                f"parallel worker {worker_id} failed:\n{detail}")

    def _account_recovery(self, task_id: int, attempts: int, kind: str,
                          reason: str, worker_names=()) -> int:
        """Charge one recovery against the batch budget; raise the
        matching :class:`~repro.parallel.errors.ExecutionError` when it
        is spent (with the pool reset so a retrying caller starts
        clean), else back off exponentially and return the new count."""
        attempts += 1
        self.retries += 1
        if attempts > self.max_retries:
            self.shutdown()
            message = (f"parallel batch {task_id}: {reason}; retry "
                       f"budget ({self.max_retries}) exhausted")
            if kind == "timeout":
                raise TaskTimeoutError(message,
                                       timeout_s=self.task_timeout_s or 0.0)
            if kind == "fault":
                raise FaultInjected(message)
            raise WorkerCrashError(message, worker_names=worker_names)
        if self.backoff_base_s:
            time.sleep(self.backoff_base_s * 2 ** (attempts - 1))
        return attempts

    def _recover(self, task_id: int, block: BatchBlock, pending,
                 worker_ids, hw, table) -> None:
        """Respawn the given workers and re-dispatch their lost shards
        (only those -- completed shards stay completed)."""
        for worker_id in worker_ids:
            self._respawn(worker_id, task_id)
        for (lo, hi), worker_id in list(pending.items()):
            if worker_id in worker_ids:
                self._dispatch(worker_id, task_id, block, lo, hi, hw,
                               table)

    def shutdown(self) -> None:
        if not self._processes:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        _shutdown_workers(self._processes, self._task_queues)
        if self._result_queue is not None:
            import queue as queue_module

            # Drain stale acks (from terminated or timed-out attempts)
            # so the feeder thread has nothing left to flush, then drop
            # the queue without joining it.
            try:
                while True:
                    self._result_queue.get_nowait()
            except (queue_module.Empty, OSError, ValueError):
                pass
            self._result_queue.cancel_join_thread()
            self._result_queue.close()
        self._processes = []
        self._task_queues = []
        self._result_queue = None
        self._shipped = []
        self._generations = []
        self._tables = {}


def _shutdown_workers(processes, task_queues) -> None:
    """Ask workers to exit, then make sure they did (module-level so a
    ``weakref.finalize`` can run it after the backend is gone)."""
    for task_queue in task_queues:
        try:
            task_queue.put(None)
        except (OSError, ValueError):  # pragma: no cover - closed queue
            pass
    for process in processes:
        process.join(timeout=5)
    for process in processes:
        if process.is_alive():  # pragma: no cover - stuck worker
            process.terminate()
            process.join(timeout=5)
    for task_queue in task_queues:
        # A terminate()d worker leaves its exit sentinel (and any
        # undelivered messages) in the queue; cancel_join_thread stops
        # the feeder from blocking interpreter exit on that undrained
        # buffer, then close drops it.
        try:
            task_queue.cancel_join_thread()
            task_queue.close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
class ResilientBackend(ExecutionBackend):
    """Graceful-degradation wrapper around a parallel backend.

    Delegates every batch to the wrapped backend; when that backend
    fails outright -- its per-batch retry budget exhausted, surfacing an
    :class:`~repro.parallel.errors.ExecutionError` -- the wrapper walks
    :data:`DEGRADATION_LADDER` (process -> thread -> serial) via
    :func:`make_backend`, re-runs the failed batch on the new rung
    (bit-identical: the kernel is pure), and keeps going.  The session
    completes; ``degraded_to`` records where it landed.  Genuine kernel
    errors (plain ``RuntimeError``) pass through untouched.

    :class:`~repro.parallel.ParallelCoordinator` wraps the backends it
    builds in one of these (``degrade=True``) and surfaces
    :meth:`stats` into ``SessionResult.provenance["execution"]``.

    Args:
        inner: The backend to supervise.
        degrade_after: Pool failures tolerated at a rung before
            downshifting (intermediate failures re-run the batch on the
            same backend, which restarts lazily).
        on_degrade: ``callback(error, from_name, to_name)`` fired on
            every downshift -- the coordinator bridges it to the
            observer protocol as a structured warning.
    """

    name = "resilient"

    def __init__(self, inner: ExecutionBackend, degrade_after: int = 1,
                 on_degrade=None) -> None:
        super().__init__(inner.workers, inner.min_batch_per_worker,
                         tuner=getattr(inner, "tuner", None))
        if degrade_after < 1:
            raise ValueError("degrade_after must be >= 1")
        self.inner = inner
        self.degrade_after = degrade_after
        self.on_degrade = on_degrade
        self.pool_failures = 0
        self.degraded_to: Optional[str] = None
        self._failures_at_rung = 0
        # Counters of retired rungs, folded into stats() alongside the
        # live inner backend's.  The distributed-only keys read 0 for
        # every other backend (getattr default), so the stats schema is
        # uniform across executors.
        self._absorbed = {"retries": 0, "respawns": 0, "timeouts": 0,
                          "inline_batches": 0, "sharded_batches": 0,
                          "stolen_shards": 0, "reships": 0, "nodes": 0}

    #: stats()/absorbed key -> backend attribute, where they differ
    #: ("nodes" reports the *peak connected fleet*, not the request).
    _STAT_ATTRS = {"nodes": "fleet_nodes"}

    # ------------------------------------------------------------------
    @property
    def alive_workers(self) -> int:
        return self.inner.alive_workers

    def _absorb(self, backend: ExecutionBackend) -> None:
        for key in self._absorbed:
            self._absorbed[key] += getattr(
                backend, self._STAT_ATTRS.get(key, key), 0)

    def stats(self) -> Dict[str, object]:
        """Aggregated fault-tolerance counters across every rung used."""
        data = dict(self._absorbed)
        for key in list(data):
            data[key] += getattr(self.inner,
                                 self._STAT_ATTRS.get(key, key), 0)
        data["pool_failures"] = self.pool_failures
        data["degraded_to"] = self.degraded_to
        data["executor"] = self.inner.name
        return data

    def evaluate(self, hw, table, layer_idx, style_idx, pes,
                 l1_bytes) -> BatchCostReport:
        while True:
            try:
                return self.inner.evaluate(hw, table, layer_idx,
                                           style_idx, pes, l1_bytes)
            except ExecutionError as error:
                self.pool_failures += 1
                self._failures_at_rung += 1
                next_name = DEGRADATION_LADDER.get(self.inner.name)
                if next_name is None:
                    raise
                if self._failures_at_rung < self.degrade_after:
                    # Budget left at this rung: the failed backend shut
                    # its pool down, so the re-run respawns it fresh.
                    continue
                previous = self.inner.name
                self._absorb(self.inner)
                self.inner.shutdown()
                # The tuner rides down the ladder: rates measured on
                # the failed rung are keyed by (transport, slot), so
                # the new rung starts fresh while the calibrated
                # crossovers survive.
                self.inner = make_backend(
                    next_name, self.workers, self.min_batch_per_worker,
                    fault_plan=getattr(self.inner, "fault_plan", None),
                    tuner=self.tuner)
                self.degraded_to = next_name
                self._failures_at_rung = 0
                if self.on_degrade is not None:
                    self.on_degrade(error, previous, next_name)

    def shutdown(self) -> None:
        self.inner.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ResilientBackend({self.inner!r}, "
                f"degraded_to={self.degraded_to!r})")


_BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
    "chaos": ProcessBackend,
}


def make_backend(executor: str, workers: Optional[int] = None,
                 min_batch_per_worker: int = 0,
                 task_timeout_s: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 tuner=None) -> ExecutionBackend:
    """Build a backend by name ("serial" | "thread" | "process" |
    "chaos").

    ``min_batch_per_worker`` enables adaptive dispatch on the parallel
    backends (0, the default, always shards -- see
    :class:`ExecutionBackend`); the serial backend ignores it, as it
    does the fault-tolerance knobs.  ``chaos`` is the process backend
    with a :class:`~repro.parallel.faults.FaultPlan` always attached:
    ``fault_plan``, else ``$REPRO_FAULTS``, else a default seeded plan.
    ``tuner`` is an optional shared
    :class:`~repro.parallel.tuning.TuningState`; the coordinator passes
    one instance through every backend it builds (downshifts included)
    so measurements accumulate across pool rebuilds.
    For ``distributed``, ``workers`` is the node-fleet size (``None``:
    ``$REPRO_NODES`` or the built-in default) and the listen address
    comes from ``$REPRO_BIND`` (unset: a self-spawned localhost fleet).
    """
    if executor == "distributed":
        # Imported lazily: distributed.py imports this module.
        from repro.parallel.distributed import DistributedBackend

        return DistributedBackend(
            nodes=workers, min_batch_per_worker=min_batch_per_worker,
            task_timeout_s=task_timeout_s, max_retries=max_retries,
            fault_plan=fault_plan, tuner=tuner)
    try:
        cls = _BACKENDS[executor]
    except KeyError:
        raise ValueError(
            f"unknown executor {executor!r}; available: "
            f"{', '.join(EXECUTORS)}") from None
    workers = default_workers() if workers is None else workers
    if cls is SerialBackend:
        return cls(workers=workers)
    if cls is ThreadBackend:
        return cls(workers=workers,
                   min_batch_per_worker=min_batch_per_worker,
                   fault_plan=fault_plan, tuner=tuner)
    if executor == "chaos" and fault_plan is None:
        fault_plan = FaultPlan.from_env() or FaultPlan.seeded(0)
    return cls(workers=workers, min_batch_per_worker=min_batch_per_worker,
               task_timeout_s=task_timeout_s, max_retries=max_retries,
               fault_plan=fault_plan, tuner=tuner)
