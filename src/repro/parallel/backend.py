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

Four transports ship (``distributed`` lives in
:mod:`repro.parallel.distributed`):

* :class:`SerialBackend` -- the in-process kernel (the do-nothing
  reference implementation every other backend must match bit for bit).
* :class:`ThreadBackend` -- shards across a persistent thread pool; NumPy
  releases the GIL inside its inner loops, so large batches overlap.
* :class:`ProcessBackend` -- shards across persistent worker processes
  with zero-copy array handoff via :mod:`repro.parallel.shm`.  Workers
  are spawned once, reused for every batch of a session, and shut down
  deterministically (``shutdown``, context-manager exit, or finalizer).
* :class:`~repro.parallel.distributed.DistributedBackend` -- shards
  across socket-connected node agents.

The process pool and the socket fleet are two data planes on one
scheduler core, :class:`SupervisedBackend`, which replaces a worker that
dies or hangs mid-batch and re-dispatches only its lost shards, so a
recovered batch is bit-identical to a crash-free run.

:class:`ResilientBackend` wraps any parallel backend in the degradation
ladder: when a pool fails outright (retry budget exhausted -- an
:class:`~repro.parallel.errors.ExecutionError`), it downshifts
process -> thread -> serial via :func:`make_backend`, re-runs the failed
batch on the new rung, and records ``degraded_to`` -- the session
completes instead of dying.

Pick one by name with :func:`make_backend`.
"""

from __future__ import annotations

import math
import os
import queue
import threading
import time
import weakref
from collections import deque
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
from repro.parallel.shm import INPUT_FIELDS, BatchBlock, mute_resource_tracker

__all__ = [
    "DEFAULT_DISPATCH_MIN_BATCH",
    "DEFAULT_MAX_RETRIES",
    "DEGRADATION_LADDER",
    "EXECUTORS",
    "ExecutionBackend",
    "ProcessBackend",
    "ResilientBackend",
    "SerialBackend",
    "SupervisedBackend",
    "ThreadBackend",
    "TRANSPORT_MIN_BATCH",
    "default_dispatch_min_batch",
    "default_max_retries",
    "default_task_timeout",
    "default_workers",
    "execution_stats",
    "make_backend",
    "shard_bounds",
]

#: Names accepted by :func:`make_backend` and ``SearchSpec.executor``.
#: ``distributed`` shards over socket-connected node agents (see
#: :mod:`repro.parallel.distributed`).
EXECUTORS: Tuple[str, ...] = ("serial", "thread", "process", "distributed")

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
    "distributed": 1024,
}


def env_number(name: str, parse, minimum, default):
    """``$name`` parsed with ``parse`` (``int`` or ``float``), else
    ``default`` when unset.  A malformed, non-finite, or below-``minimum``
    value raises a ``ValueError`` naming the variable."""
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        number = parse(value)
    except ValueError:
        number = None
    if number is None or not math.isfinite(number) or number < minimum:
        kind = "an integer" if parse is int else "a finite number"
        raise ValueError(f"{name} must be {kind} >= {minimum}, "
                         f"got {value!r}")
    return number


def default_workers() -> int:
    """Worker count when none is requested: ``$REPRO_WORKERS`` if set,
    else every available core (capped at 8 -- the batch sizes this
    repository produces stop scaling long before that)."""
    return env_number("REPRO_WORKERS", int, 1,
                      max(1, min(8, os.cpu_count() or 1)))


def default_dispatch_min_batch(executor: Optional[str] = None) -> int:
    """Adaptive-dispatch threshold when none is requested:
    ``$REPRO_DISPATCH_MIN`` if set (0 disables the fallback), else the
    transport's measured break-even from :data:`TRANSPORT_MIN_BATCH`
    (:data:`DEFAULT_DISPATCH_MIN_BATCH` when ``executor`` is ``None``
    or unknown -- the pre-calibration behavior)."""
    return env_number("REPRO_DISPATCH_MIN", int, 0,
                      TRANSPORT_MIN_BATCH.get(executor,
                                              DEFAULT_DISPATCH_MIN_BATCH))


def default_max_retries() -> int:
    """Per-batch recovery budget when none is requested:
    ``$REPRO_MAX_RETRIES`` if set (0 disables recovery: the first
    failure raises), else :data:`DEFAULT_MAX_RETRIES`."""
    return env_number("REPRO_MAX_RETRIES", int, 0, DEFAULT_MAX_RETRIES)


def default_task_timeout() -> float:
    """Per-batch deadline in seconds when none is requested:
    ``$REPRO_TASK_TIMEOUT`` if set, else 0 (no deadline)."""
    return env_number("REPRO_TASK_TIMEOUT", float, 0, 0.0)


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
    """

    name = "base"

    def __init__(self, workers: int = 1,
                 min_batch_per_worker: int = 0) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if min_batch_per_worker < 0:
            raise ValueError("min_batch_per_worker must be >= 0")
        self.workers = workers
        self.min_batch_per_worker = min_batch_per_worker
        #: Dispatch counters: how many batches ran in-process vs sharded
        #: (observability for the adaptive fallback; never affects
        #: results).
        self.inline_batches = 0
        self.sharded_batches = 0

    def _below_break_even(self, batch: int) -> bool:
        """Whether ``batch`` is too small to be worth sharding."""
        return batch < self.min_batch_per_worker * self.workers

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
    (fire-once), which is how a fault run exercises the degradation
    ladder's middle rung.
    """

    name = "thread"

    def __init__(self, workers: int = 1,
                 min_batch_per_worker: int = 0,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        super().__init__(workers, min_batch_per_worker)
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

    def evaluate(self, hw, table, layer_idx, style_idx, pes,
                 l1_bytes) -> BatchCostReport:
        batch = layer_idx.size
        if self.workers == 1 or batch < 2 or self._below_break_even(batch):
            self.inline_batches += 1
            return evaluate_batch_kernel(hw, table, layer_idx, style_idx,
                                         pes, l1_bytes)
        bounds = shard_bounds(batch, self.workers)
        self.sharded_batches += 1
        task_id = self._next_task
        self._next_task += 1
        self._check_faults(task_id, len(bounds))
        pool = self._ensure_pool()
        futures = [
            pool.submit(evaluate_batch_kernel, hw, table,
                        layer_idx[lo:hi], style_idx[lo:hi], pes[lo:hi],
                        l1_bytes[lo:hi])
            for lo, hi in bounds
        ]
        return _concat_reports([future.result() for future in futures])

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# ----------------------------------------------------------------------
# Supervised scheduler core
# ----------------------------------------------------------------------
def _fault_script(faults: Optional[dict]):
    """The worker side of one worker's fault-plan slice (the wire
    format of :meth:`SupervisedBackend._fault_wire`, or ``None``).

    Returns ``run(task_id, where, compute)``, which evaluates one shard
    under the script -- kills exit before the shard is touched, delays
    sleep first, raises fire once each -- and returns ``("ok",
    compute())``, ``("fault", repr)`` (retryable) or ``("error", repr
    and traceback)``.
    """
    kill_at = list(faults["kill"]) if faults else []
    raise_at = list(faults["raise"]) if faults else []
    delay_at: Dict[int, float] = {}
    for batch_idx, seconds in (faults["delay"] if faults else ()):
        delay_at[batch_idx] = delay_at.get(batch_idx, 0.0) + seconds

    def run(task_id: int, where: str, compute):
        if task_id in kill_at:
            os._exit(1)
        delay = delay_at.pop(task_id, 0.0)
        if delay:
            time.sleep(delay)
        try:
            if task_id in raise_at:
                raise_at.remove(task_id)
                raise FaultInjected(
                    f"injected fault in {where} at batch {task_id}")
            return "ok", compute()
        except FaultInjected as error:
            return "fault", repr(error)
        except BaseException as error:  # noqa: BLE001 - forwarded verbatim
            import traceback

            return "error", f"{error!r}\n{traceback.format_exc()}"

    return run


class SupervisedBackend(ExecutionBackend):
    """The dispatch-and-recovery loop shared by every worker transport.

    A subclass is a *data plane* over workers named by integer keys.
    It answers these hooks, and :meth:`_run_task` does the rest:

    * ``_live_workers()`` -- keys that can take a shard now;
    * ``_send(key, task_id, lo, hi, job)`` -- dispatch a shard, False
      if the worker is gone;
    * ``_next_events(wait, busy)`` -- ``("ack", key, status, task_id,
      lo, hi, payload)``, ``("gone", key, name)`` or ``("join", key)``
      events, empty after a quiet window of ``wait`` seconds (``busy``:
      keys holding shards);
    * ``_lose(key)`` -- terminate or expel a worker, then replace it;
    * ``_store(job, lo, hi, payload)`` -- keep an ``ok`` ack's result.

    A batch's shards wait in a deque; each live worker is primed with
    one and pulls the next when it acks (``stolen_shards`` counts shards
    run off their static round-robin owner).  A worker that dies holding
    shards, or holds them past ``task_timeout_s``, is lost and its
    shards return to the deque -- first to its replacement when that is
    already live, else to any idle worker; a ``fault`` ack is re-sent to
    the same worker.  Each of these costs one recovery from the
    per-batch ``max_retries`` budget, with exponential backoff;
    exhaustion shuts the backend down and raises an
    :class:`~repro.parallel.errors.ExecutionError` (the degradation
    ladder's cue).  An ``error`` ack is a deterministic kernel bug:
    never retried, it drains with the batch and then raises a plain
    ``RuntimeError``.  The kernel is pure and shard-invariant, so a
    recovered batch is bit-identical to a crash-free one.

    Args:
        workers / min_batch_per_worker: See :class:`ExecutionBackend`.
        max_retries: Per-batch recovery budget (``None``:
            ``$REPRO_MAX_RETRIES`` or :data:`DEFAULT_MAX_RETRIES`).
        backoff_base_s: First-retry backoff; attempt ``n`` sleeps
            ``backoff_base_s * 2**(n-1)``.
        task_timeout_s: Finite per-batch deadline in seconds; 0
            disables (``None``: ``$REPRO_TASK_TIMEOUT`` or disabled).
        fault_plan: Deterministic fault injection script (``None``:
            ``$REPRO_FAULTS`` or no faults).

    Attributes:
        retries / respawns / timeouts / stolen_shards: Counters (never
            reset by :meth:`shutdown`), surfaced into
            ``SessionResult.provenance``; the recovery counters stay 0
            in a crash-free run.
    """

    #: Poll interval while waiting on acks -- also the worst-case
    #: crash-detection latency of planes that poll worker liveness.
    POLL_S = 0.25

    def __init__(self, workers: int = 1,
                 min_batch_per_worker: int = 0,
                 max_retries: Optional[int] = None,
                 backoff_base_s: float = 0.05,
                 task_timeout_s: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        super().__init__(workers, min_batch_per_worker)
        self.max_retries = (default_max_retries() if max_retries is None
                            else max_retries)
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        self.backoff_base_s = backoff_base_s
        if task_timeout_s is None:
            task_timeout_s = default_task_timeout()
        if not math.isfinite(task_timeout_s) or task_timeout_s < 0:
            raise ValueError(
                "task_timeout_s must be a finite number >= 0 (0 disables)")
        #: Per-batch deadline; ``None`` means no deadline.
        self.task_timeout_s = float(task_timeout_s) or None
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        self.fault_plan = fault_plan
        # Mutable per-worker remainders of the plan's consumable fault
        # kinds: one occurrence is pruned per lost worker so a
        # replacement never replays a consumed fault.
        self._kills: Dict[int, List[int]] = {}
        self._delays: Dict[int, List[Tuple[int, float]]] = {}
        #: Guards the fault remainders (and a plane's worker registry)
        #: against threads that spawn or admit workers.
        self._lock = threading.Lock()
        self.retries = 0
        self.respawns = 0
        self.timeouts = 0
        self.stolen_shards = 0
        self._next_task = 0

    def _knobs(self) -> Dict[str, object]:
        """The recovery knobs as :func:`make_backend` keywords -- what
        the degradation ladder carries to the next rung."""
        return {"max_retries": self.max_retries,
                "backoff_base_s": self.backoff_base_s,
                "task_timeout_s": self.task_timeout_s or 0.0,
                "fault_plan": self.fault_plan}

    def _fault_wire(self, key: int) -> Optional[dict]:
        """Worker ``key``'s remaining slice of the fault plan, in the
        wire format :func:`_fault_script` consumes."""
        if self.fault_plan is None:
            return None
        with self._lock:
            if key not in self._kills:
                self._kills[key] = self.fault_plan.kills_for(key)
                self._delays[key] = self.fault_plan.delays_for(key)
            return {
                "kill": list(self._kills[key]),
                "raise": self.fault_plan.raises_for(key),
                "delay": [[batch, seconds] for batch, seconds
                          in self._delays[key]],
            }

    def _store(self, job, lo: int, hi: int, payload) -> None:
        """Planes whose workers write results in place keep nothing."""

    def _run_task(self, batch: int, shards_per_worker: int, job) -> None:
        """Run one batch to completion under the rules above; ``job`` is
        the plane's per-batch payload for ``_send`` and ``_store``."""
        task_id = self._next_task
        self._next_task += 1
        live = self._live_workers()
        bounds = shard_bounds(batch, len(live) * shards_per_worker)
        owner = [live[i % len(live)] for i in range(len(bounds))]
        index = {shard: i for i, shard in enumerate(bounds)}
        todo = deque(range(len(bounds)))
        pending: Dict[Tuple[int, int], int] = {}  # shard -> worker key
        attempts = 0
        failures: List[Tuple[int, str]] = []
        timeout = self.task_timeout_s

        def feed(key: int) -> None:
            """Worker ``key`` pulls the next shard off the deque."""
            if not todo:
                return
            shard = todo.popleft()
            if not self._send(key, task_id, *bounds[shard], job):
                todo.appendleft(shard)
                return
            pending[bounds[shard]] = key
            if owner[shard] != key:
                self.stolen_shards += 1

        def refill() -> None:
            """Hand deque work to every idle live worker."""
            if todo:
                busy = set(pending.values())
                for key in self._live_workers():
                    if key not in busy:
                        feed(key)

        def lose(key: int) -> None:
            """Replace worker ``key`` -- minus one occurrence of the kill
            and delay that explain the loss (plan entries are multisets:
            duplicates deliberately re-fire) -- and hand its shards back,
            first to the replacement when that is already live."""
            with self._lock:
                kills = self._kills.get(key, [])
                if task_id in kills:
                    kills.remove(task_id)
                delays = self._delays.get(key, [])
                for entry in delays:
                    if entry[0] == task_id:
                        delays.remove(entry)
                        break
            self._lose(key)
            lost = [shard for shard, holder in pending.items()
                    if holder == key]
            for shard in lost:
                del pending[shard]
            todo.extendleft(index[shard] for shard in reversed(lost))
            feed(key)

        for key in live:
            feed(key)
        deadline = None if timeout is None else time.monotonic() + timeout
        while pending or todo:
            if not pending:
                # Nothing in flight to ack (every send failed, or the
                # fleet emptied and is coming back): drive dispatch.
                refill()
            wait = self.POLL_S
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            events = self._next_events(wait, set(pending.values()))
            for kind, key, *detail in events:
                if kind == "join":
                    refill()
                elif kind == "gone":
                    if key in pending.values():
                        # Only a worker holding shards costs the batch a
                        # recovery; an idle death is just a fleet change.
                        attempts = self._account_recovery(
                            task_id, attempts, "crash",
                            f"worker {detail[0]} died mid-batch",
                            worker_names=[detail[0]])
                    lose(key)
                    refill()
                    if deadline is not None:
                        deadline = time.monotonic() + timeout
                else:
                    status, done_id, lo, hi, payload = detail
                    if done_id != task_id or (lo, hi) not in pending:
                        continue  # stale ack from a recovered attempt
                    del pending[(lo, hi)]
                    if status == "ok":
                        self._store(job, lo, hi, payload)
                    elif status == "fault":
                        attempts = self._account_recovery(
                            task_id, attempts, "fault",
                            f"injected fault on worker {key}")
                        todo.appendleft(index[(lo, hi)])
                    else:
                        failures.append((key, payload))
                    feed(key)
            if (not events and deadline is not None
                    and time.monotonic() >= deadline):
                hung = sorted(set(pending.values()))
                self.timeouts += 1
                attempts = self._account_recovery(
                    task_id, attempts, "timeout",
                    f"missed its {timeout}s deadline ({len(pending)} "
                    f"shard(s) outstanding)")
                for key in hung:
                    lose(key)
                refill()
                deadline = time.monotonic() + timeout
        if failures:
            key, detail = failures[0]
            raise RuntimeError(f"{self.name} worker {key} failed:\n{detail}")

    def _account_recovery(self, task_id: int, attempts: int, kind: str,
                          reason: str, worker_names=()) -> int:
        """Charge one recovery against the batch budget; raise the
        matching :class:`~repro.parallel.errors.ExecutionError` when it
        is spent (with the backend reset so a retrying caller starts
        clean), else back off exponentially and return the new count."""
        attempts += 1
        self.retries += 1
        if attempts > self.max_retries:
            self.shutdown()
            message = (f"{self.name} batch {task_id}: {reason}; retry "
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


# ----------------------------------------------------------------------
# Process backend: the shared-memory data plane
# ----------------------------------------------------------------------
def _worker_main(worker_id: int, task_queue, result_queue,
                 faults: Optional[dict] = None) -> None:
    """Worker loop: evaluate shards of shared-memory batches until told
    to exit.  Tables and hardware constants arrive once per search
    (``load`` messages) and are cached by id; per-batch messages carry
    only the segment descriptor, so the arrays themselves never cross
    the queue.  ``faults`` is this worker's fault-plan slice (see
    :func:`_fault_script`)."""
    mute_resource_tracker()
    run = _fault_script(faults)
    tables: Dict[int, Tuple[HardwareConfig, LayerTable]] = {}
    while True:
        message = task_queue.get()
        if message is None:
            break
        if message[0] == "load":
            _, table_id, hw, layers = message
            tables[table_id] = (hw, LayerTable.build(layers))
            continue
        _, task_id, segment_name, batch, lo, hi, table_id = message

        def compute() -> None:
            hw, table = tables[table_id]
            block = BatchBlock.attach(segment_name, batch)
            try:
                report = evaluate_batch_kernel(
                    hw, table,
                    *(block.inputs[name][lo:hi] for name, _ in INPUT_FIELDS))
                block.write_report(report, lo, hi)
            finally:
                block.close()

        status, detail = run(task_id, f"worker {worker_id}", compute)
        result_queue.put(("ack", worker_id, status, task_id, lo, hi,
                          detail))


class ProcessBackend(SupervisedBackend):
    """Shard batches across persistent, *supervised* worker processes.

    Workers are spawned lazily on the first batch (once per backend
    lifetime), reused for every subsequent batch -- a whole session's
    generations -- and shut down via :meth:`shutdown` / context exit; a
    ``weakref.finalize`` guard reaps them if the owner forgets.  Each
    batch travels through one shared-memory segment (see
    :mod:`repro.parallel.shm`) cut into one shard per worker; each
    worker gets a dedicated task queue, so the primed schedule is the
    deterministic round-robin shard -> worker map and table shipping is
    deterministic too.

    Supervision is :class:`SupervisedBackend`'s loop: acks are read from
    one result queue on the calling thread, dead workers are found by
    ``is_alive`` polls in quiet windows, and a lost worker is respawned
    synchronously, so its shard goes straight back to the replacement.

    Args:
        workers: Worker process count.
        start_method: ``multiprocessing`` start method; default
            ``$REPRO_MP_START`` or ``fork`` where available (spawn works
            too, it just pays a per-worker interpreter start).
        min_batch_per_worker: Adaptive-dispatch threshold (see
            :class:`ExecutionBackend`); small batches run in-process and
            do not spawn the pool.
        max_retries / backoff_base_s / task_timeout_s / fault_plan:
            The recovery knobs of :class:`SupervisedBackend`.
    """

    name = "process"

    def __init__(self, workers: int = 1,
                 start_method: Optional[str] = None,
                 min_batch_per_worker: int = 0,
                 max_retries: Optional[int] = None,
                 backoff_base_s: float = 0.05,
                 task_timeout_s: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        super().__init__(workers, min_batch_per_worker, max_retries,
                         backoff_base_s, task_timeout_s, fault_plan)
        import multiprocessing

        if start_method is None:
            start_method = os.environ.get("REPRO_MP_START")
        if start_method is None:
            start_method = ("fork" if "fork"
                            in multiprocessing.get_all_start_methods()
                            else "spawn")
        self._context = multiprocessing.get_context(start_method)
        self._processes: List = []
        self._task_queues: List = []
        self._result_queue = None
        self._shipped: List[set] = []
        self._generations: List[int] = []
        self._finalizer: Optional[weakref.finalize] = None

    # ------------------------------------------------------------------
    @property
    def alive_workers(self) -> int:
        return sum(1 for process in self._processes if process.is_alive())

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

    def evaluate(self, hw, table, layer_idx, style_idx, pes,
                 l1_bytes) -> BatchCostReport:
        batch = layer_idx.size
        if self._below_break_even(batch):
            # Too small to amortize the queue hop + segment map; the
            # in-process kernel is bit-identical, so only latency
            # changes.  An idle pool stays warm for the next big batch.
            self.inline_batches += 1
            return evaluate_batch_kernel(hw, table, layer_idx, style_idx,
                                         pes, l1_bytes)
        self.sharded_batches += 1
        self._ensure_started()
        with BatchBlock.allocate(layer_idx, style_idx, pes,
                                 l1_bytes) as block:
            self._run_task(batch, 1, (block, hw, table))
            return block.gather_report()

    # Data-plane hooks ------------------------------------------------
    def _live_workers(self) -> List[int]:
        # Respawns are synchronous: every slot is always live.
        return list(range(self.workers))

    def _send(self, key, task_id, lo, hi, job) -> bool:
        block, hw, table = job
        # Tables ship once per worker incarnation, keyed by their
        # never-recycled token; a replacement is re-shipped on demand.
        table_id = table_token(table)
        if table_id not in self._shipped[key]:
            self._task_queues[key].put(("load", table_id, hw, table.layers))
            self._shipped[key].add(table_id)
        self._task_queues[key].put(
            ("eval", task_id, block.name, block.batch, lo, hi, table_id))
        return True

    def _next_events(self, wait, busy) -> List[tuple]:
        try:
            return [self._result_queue.get(timeout=wait)]
        except queue.Empty:
            # Quiet window: look for dead workers among the busy ones.
            return [("gone", key, self._processes[key].name)
                    for key in sorted(busy)
                    if not self._processes[key].is_alive()]

    def _lose(self, key) -> None:
        """Terminate what is left of worker ``key``, drop its task queue
        (undelivered messages and sentinels die with it), and start a
        fresh incarnation that is re-shipped tables on demand."""
        process = self._processes[key]
        if process.is_alive():
            process.terminate()
        process.join(timeout=5)
        old_queue = self._task_queues[key]
        try:
            old_queue.cancel_join_thread()
            old_queue.close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
        self._task_queues[key] = self._context.Queue()
        self._shipped[key] = set()
        self._generations[key] += 1
        self._spawn(key)
        self.respawns += 1

    def shutdown(self) -> None:
        if not self._processes:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        _shutdown_workers(self._processes, self._task_queues)
        if self._result_queue is not None:
            # Drain stale acks (from terminated or timed-out attempts)
            # so the feeder thread has nothing left to flush, then drop
            # the queue without joining it.
            try:
                while True:
                    self._result_queue.get_nowait()
            except (queue.Empty, OSError, ValueError):
                pass
            self._result_queue.cancel_join_thread()
            self._result_queue.close()
        self._processes = []
        self._task_queues = []
        self._result_queue = None
        self._shipped = []
        self._generations = []


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
        super().__init__(inner.workers, inner.min_batch_per_worker)
        if degrade_after < 1:
            raise ValueError("degrade_after must be >= 1")
        self.inner = inner
        self.degrade_after = degrade_after
        self.on_degrade = on_degrade
        self.pool_failures = 0
        self.degraded_to: Optional[str] = None
        self._failures_at_rung = 0
        # Counters of retired rungs, folded into stats() alongside the
        # live inner backend's.
        self._absorbed = dict.fromkeys(_COUNTERS, 0)

    # ------------------------------------------------------------------
    @property
    def alive_workers(self) -> int:
        return self.inner.alive_workers

    def stats(self) -> Dict[str, object]:
        """Aggregated fault-tolerance counters across every rung used."""
        data = execution_stats(self.inner)
        for key, value in self._absorbed.items():
            data[key] += value
        data["pool_failures"] = self.pool_failures
        data["degraded_to"] = self.degraded_to
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
                previous = self.inner
                retired = execution_stats(previous)
                for key in self._absorbed:
                    self._absorbed[key] += retired[key]
                previous.shutdown()
                # The next rung keeps the retry budget, deadline, backoff
                # and fault plan the failed one was configured with.
                knobs = (previous._knobs()
                         if isinstance(previous, SupervisedBackend) else {})
                self.inner = make_backend(
                    next_name, self.workers, self.min_batch_per_worker,
                    **knobs)
                self.degraded_to = next_name
                self._failures_at_rung = 0
                if self.on_degrade is not None:
                    self.on_degrade(error, previous.name, next_name)

    def shutdown(self) -> None:
        self.inner.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ResilientBackend({self.inner!r}, "
                f"degraded_to={self.degraded_to!r})")


#: ``provenance["execution"]`` counter -> backend attribute; a backend
#: without the attribute reports 0, so the schema is uniform across
#: executors ("nodes" is the *peak connected fleet*, not the request).
_COUNTERS = {"retries": "retries", "respawns": "respawns",
             "timeouts": "timeouts", "inline_batches": "inline_batches",
             "sharded_batches": "sharded_batches",
             "stolen_shards": "stolen_shards", "reships": "reships",
             "nodes": "fleet_nodes"}


def execution_stats(backend: ExecutionBackend) -> Dict[str, object]:
    """The ``provenance["execution"]`` counters of ``backend`` (a
    :class:`ResilientBackend` folds in every rung it used)."""
    if isinstance(backend, ResilientBackend):
        return backend.stats()
    data: Dict[str, object] = {key: getattr(backend, attr, 0)
                               for key, attr in _COUNTERS.items()}
    data.update(pool_failures=0, degraded_to=None, executor=backend.name)
    return data


def make_backend(executor: str, workers: Optional[int] = None,
                 min_batch_per_worker: int = 0,
                 task_timeout_s: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 backoff_base_s: float = 0.05) -> ExecutionBackend:
    """Build a backend by name ("serial" | "thread" | "process" |
    "distributed").

    ``min_batch_per_worker`` enables adaptive dispatch on the parallel
    backends (0, the default, always shards -- see
    :class:`ExecutionBackend`); the serial backend ignores it, as it
    does the recovery knobs (the thread backend takes only
    ``fault_plan``).  A fault run is ``"process"`` (or
    ``"distributed"``) with ``fault_plan`` or ``$REPRO_FAULTS``.  For
    ``distributed``, ``workers`` is the node-fleet size (``None``:
    ``$REPRO_NODES`` or the built-in default) and the listen address
    comes from ``$REPRO_BIND`` (unset: a self-spawned localhost fleet).
    """
    knobs = {"max_retries": max_retries, "backoff_base_s": backoff_base_s,
             "task_timeout_s": task_timeout_s, "fault_plan": fault_plan}
    if executor == "distributed":
        # Imported lazily: distributed.py imports this module.
        from repro.parallel.distributed import DistributedBackend

        return DistributedBackend(
            nodes=workers, min_batch_per_worker=min_batch_per_worker,
            **knobs)
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; available: "
            f"{', '.join(EXECUTORS)}")
    workers = default_workers() if workers is None else workers
    if executor == "process":
        return ProcessBackend(workers=workers,
                              min_batch_per_worker=min_batch_per_worker,
                              **knobs)
    if executor == "thread":
        return ThreadBackend(workers=workers,
                             min_batch_per_worker=min_batch_per_worker,
                             fault_plan=fault_plan)
    return SerialBackend(workers=workers)
