"""The long-lived search service: job scheduler over one warmed pool.

:class:`SearchServer` turns the one-shot :class:`~repro.search.session
.SearchSession` library into a multiplexing service:

* **Submission** -- :meth:`SearchServer.submit` accepts a frozen
  :class:`~repro.search.spec.SearchSpec` and returns a :class:`Job`
  immediately; up to ``max_concurrent`` scheduler threads drain the
  queue, each running a full session.
* **Cache** -- specs are first looked up in the content-addressed
  :class:`~repro.service.store.ResultStore` (unless ``force``): a hit
  returns a ``DONE`` job carrying the stored result in O(1), no session
  run.  Completed (non-stopped) runs are written back, so the next
  identical submission is a hit.
* **Single-flight** -- N concurrent submissions of one identity collapse
  onto one executing job: the first becomes the leader, the rest get the
  *same* :class:`Job` object, so exactly one session runs and every
  caller sees its result.
* **Shared pool** -- when the server is built with a parallel executor it
  owns one ``keep_alive`` :class:`~repro.parallel.ParallelCoordinator`;
  every job takes a :meth:`~repro.parallel.ParallelCoordinator.lease` on
  it, so many concurrent sessions multiplex over one warmed worker
  fleet (batch evaluations serialize on the pool lock; results stay
  bit-identical to serial runs).
* **Lifecycle** -- jobs move ``PENDING -> RUNNING -> DONE`` (or
  ``FAILED`` / ``CANCELLED``); :meth:`SearchServer.cancel` maps onto the
  observer protocol's graceful early-stop, so a cancelled running job
  keeps its best-so-far result.
* **Streaming progress** -- each job bridges the
  :class:`~repro.search.callbacks.SearchObserver` hooks
  (``on_step`` / ``on_improvement`` / ``on_warning``) into an event
  stream that any number of watchers can iterate concurrently
  (:meth:`Job.events`).
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import Dict, List, Optional

from repro.search.callbacks import SearchObserver
from repro.search.session import SearchSession, SessionResult
from repro.search.spec import SearchSpec
from repro.service.store import ResultStore, result_key

__all__ = ["Job", "JobState", "SearchServer", "JobObserver"]


class JobState:
    """The job lifecycle (plain strings so they serialize as-is)."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"

    #: States a job never leaves.
    TERMINAL = frozenset({DONE, FAILED, CANCELLED})


class Job:
    """One submitted search: shared state between scheduler and watchers.

    A job is handed out by :meth:`SearchServer.submit`; identical
    concurrent submissions receive the *same* object (single-flight).
    All mutation happens under one condition variable, which also backs
    :meth:`wait` and the :meth:`events` stream.
    """

    def __init__(self, job_id: str, spec: SearchSpec, key: str) -> None:
        self.id = job_id
        self.spec = spec
        self.key = key
        self.state = JobState.PENDING
        self.cached = False
        self.result: Optional[SessionResult] = None
        self.error: Optional[str] = None
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._events: List[dict] = []
        self._condition = threading.Condition()
        self._cancel_requested = False
        self._observer: Optional["JobObserver"] = None

    # ------------------------------------------------------------------
    def _emit(self, kind: str, **payload) -> None:
        """Append one event and wake every watcher."""
        with self._condition:
            event = {"seq": len(self._events), "type": kind,
                     "job": self.id, **payload}
            self._events.append(event)
            self._condition.notify_all()

    def _set_state(self, state: str, **payload) -> None:
        with self._condition:
            self.state = state
            if state == JobState.RUNNING:
                self.started_at = time.time()
            if state in JobState.TERMINAL:
                self.finished_at = time.time()
        self._emit("state", state=state, **payload)

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.state in JobState.TERMINAL

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    def wait(self, timeout: Optional[float] = None) -> "Job":
        """Block until the job reaches a terminal state; returns self.

        Raises :class:`TimeoutError` if ``timeout`` elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while self.state not in JobState.TERMINAL:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"job {self.id} still {self.state} after "
                        f"{timeout}s")
                self._condition.wait(remaining)
        return self

    def events(self, timeout: Optional[float] = None):
        """Iterate this job's event stream from the beginning.

        Yields every event (``state`` transitions, throttled ``step``
        progress, ``improvement``, ``warning``) in order and returns
        once the job is terminal and the stream is drained.  Multiple
        watchers can iterate concurrently; each gets the full stream.
        ``timeout`` bounds each *wait* for the next event (raising
        :class:`TimeoutError`), not the total iteration.
        """
        index = 0
        while True:
            with self._condition:
                while (index >= len(self._events)
                        and self.state not in JobState.TERMINAL):
                    if not self._condition.wait(timeout):
                        raise TimeoutError(
                            f"no event from job {self.id} in {timeout}s")
                batch = self._events[index:]
                index += len(batch)
                drained = (self.state in JobState.TERMINAL
                           and index >= len(self._events))
            for event in batch:
                yield event
            if drained:
                return

    def to_dict(self) -> dict:
        """A JSON-safe summary (the full result travels separately)."""
        with self._condition:
            result = self.result
            return {
                "id": self.id,
                "key": self.key,
                "state": self.state,
                "cached": self.cached,
                "method": self.spec.method,
                "model": self.spec.model,
                "error": self.error,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "best_cost": (result.best_cost
                              if result is not None else None),
                "stopped_early": (result.stopped_early
                                  if result is not None else False),
                "spec": self.spec.to_dict(),
            }


class JobObserver(SearchObserver):
    """Bridge the observer protocol into one job's event stream.

    Also the cancellation seam: :meth:`SearchServer.cancel` calls
    :meth:`~repro.search.callbacks.SearchObserver.request_stop` on it,
    and the session winds down gracefully at the next step boundary --
    the same path ``EarlyStopping`` uses, so the best-so-far solution
    survives into the cancelled job's result.
    """

    def __init__(self, job: Job, progress_every: int = 10) -> None:
        super().__init__()
        if progress_every < 1:
            raise ValueError("progress_every must be >= 1")
        self.job = job
        self.progress_every = progress_every

    def on_step(self, step, cost, best_cost) -> None:
        if step % self.progress_every == 0:
            self.job._emit("step", step=step, cost=cost,
                           best_cost=best_cost)

    def on_improvement(self, step, best_cost, best_assignments) -> None:
        self.job._emit("improvement", step=step, best_cost=best_cost)

    def on_warning(self, kind, detail) -> None:
        self.job._emit("warning", kind=kind, detail=dict(detail))


class SearchServer:
    """Schedule many concurrent search sessions over one warmed pool.

    Args:
        store: The content-addressed result cache (``None`` disables
            caching; submissions always run).
        max_concurrent: Scheduler threads = maximum sessions in flight.
        executor: Pool backend shared by every job -- "serial" (each
            session computes in-process), "thread", "process",
            "chaos", or "distributed"; ``None`` resolves
            ``$REPRO_EXECUTOR``.  Non-serial pools are held
            ``keep_alive`` across jobs and leased per session, so
            workers warm up once and serve all traffic (a distributed
            fleet connects once and serves every job).
        workers: Pool worker count (``None``: ``$REPRO_WORKERS`` / auto).
        nodes: Node-fleet size for the "distributed" executor
            (``None``: ``$REPRO_NODES`` / auto; see
            :class:`~repro.parallel.DistributedBackend` for the
            self-spawned vs ``$REPRO_BIND`` external modes).
        progress_every: Throttle for per-step job events.
        fault_plan: Deterministic fault-injection plan forwarded to the
            pool (testing; ``None`` defers to ``$REPRO_FAULTS``).

    Use as a context manager (or call :meth:`close`) to stop the
    scheduler threads and shut the pool down.
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 max_concurrent: int = 2,
                 executor: Optional[str] = None,
                 workers: Optional[int] = None,
                 nodes: Optional[int] = None,
                 progress_every: int = 10,
                 fault_plan=None) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        from repro.parallel import ParallelCoordinator

        self.store = store
        self.max_concurrent = max_concurrent
        self.progress_every = progress_every
        if executor is None:
            import os

            executor = os.environ.get("REPRO_EXECUTOR", "serial")
        self.executor = executor
        self.coordinator = None
        if executor != "serial":
            self.coordinator = ParallelCoordinator(
                executor=executor, workers=workers, nodes=nodes,
                keep_alive=True, fault_plan=fault_plan)
        self._lock = threading.Lock()
        self._jobs: "Dict[str, Job]" = {}
        self._inflight: Dict[str, Job] = {}
        self._queue: "queue.Queue" = queue.Queue()
        self._ids = itertools.count(1)
        self._closed = False
        #: How many sessions actually ran (cache hits and single-flight
        #: followers do not count) -- what the dedup tests assert on.
        self.executions = 0
        self._threads = [
            threading.Thread(target=self._scheduler_loop,
                             name=f"repro-scheduler-{index}", daemon=True)
            for index in range(max_concurrent)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    def submit(self, spec: SearchSpec, force: bool = False) -> Job:
        """Accept one spec; returns its job immediately.

        Resolution order: in-flight identical job (single-flight, the
        caller attaches to it) -> cache hit (a ``DONE`` job carrying the
        stored result) -> a fresh ``PENDING`` job queued for the
        scheduler.  ``force=True`` skips the first two and always queues
        a fresh run whose result overwrites the cache entry.
        """
        key = result_key(spec)
        with self._lock:
            if self._closed:
                raise RuntimeError("server is closed")
            if not force:
                leader = self._inflight.get(key)
                if leader is not None:
                    return leader
                if self.store is not None:
                    cached = self.store.get(spec)
                    if cached is not None:
                        job = Job(f"j{next(self._ids)}", spec, key)
                        job.cached = True
                        job.result = cached
                        self._jobs[job.id] = job
                        job._set_state(JobState.DONE, cached=True)
                        return job
            job = Job(f"j{next(self._ids)}", spec, key)
            self._jobs[job.id] = job
            self._inflight[key] = job
            self._queue.put(job)
            return job

    def job(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job id {job_id!r}") from None

    def jobs(self) -> List[Job]:
        """Every job this server has seen, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Cancel one job; True if the request had any effect.

        ``PENDING`` jobs are cancelled outright (the scheduler skips
        them); ``RUNNING`` jobs get a graceful stop request and move to
        ``CANCELLED`` when the session winds down, keeping the
        best-so-far result.  Terminal jobs are left alone.
        """
        job = self.job(job_id)
        with self._lock:
            if job.state in JobState.TERMINAL:
                return False
            job._cancel_requested = True
            # A job is only *outright* cancellable before the scheduler
            # claimed it (the claim assigns the observer under this same
            # lock) -- afterwards the graceful-stop path owns it.
            if job.state == JobState.PENDING and job._observer is None:
                self._inflight.pop(job.key, None)
                job._set_state(JobState.CANCELLED)
                return True
        observer = job._observer
        if observer is not None:
            observer.request_stop()
        return True

    def stats(self) -> dict:
        """Scheduler counters plus the cache's, for observability."""
        with self._lock:
            by_state: Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            stats = {
                "jobs": len(self._jobs),
                "by_state": by_state,
                "inflight": len(self._inflight),
                "executions": self.executions,
                "max_concurrent": self.max_concurrent,
                "executor": self.executor,
                "cache": (self.store.stats()
                          if self.store is not None else None),
            }
        return stats

    # ------------------------------------------------------------------
    def _scheduler_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._run_job(job)
            finally:
                with self._lock:
                    if self._inflight.get(job.key) is job:
                        del self._inflight[job.key]
                self._queue.task_done()

    def _run_job(self, job: Job) -> None:
        with self._lock:
            if job.state != JobState.PENDING or job.cancel_requested:
                if job.state == JobState.PENDING:
                    job._set_state(JobState.CANCELLED)
                return
            observer = JobObserver(job, self.progress_every)
            job._observer = observer
            self.executions += 1
        job._set_state(JobState.RUNNING)
        callbacks: List[SearchObserver] = [observer]
        if self.coordinator is not None:
            callbacks.append(self.coordinator.lease())
        try:
            result = SearchSession(job.spec).run(callbacks=callbacks)
        except Exception as error:  # noqa: BLE001 - job boundary
            job.error = f"{type(error).__name__}: {error}"
            job._set_state(JobState.FAILED, error=job.error)
            return
        job.result = result
        if job.cancel_requested:
            job._set_state(JobState.CANCELLED)
            return
        # Only complete, budget-exhausted runs are cacheable: a result
        # truncated by an observer stop is not the spec's fixed point.
        if self.store is not None and not result.stopped_early:
            self.store.put(job.spec, result)
        job._set_state(JobState.DONE)

    # ------------------------------------------------------------------
    def close(self, wait: bool = True,
              timeout: Optional[float] = None) -> bool:
        """Stop accepting work, stop the scheduler, release the pool.

        Pending *and running* jobs are cancel-requested: running
        sessions get the observer protocol's graceful stop, so they
        wind down at the next step boundary keeping their best-so-far
        result (and land ``CANCELLED``, never cached).  ``wait=True``
        (default) then joins the scheduler threads -- bounded by
        ``timeout`` seconds in total when given, else indefinitely.

        Returns ``True`` when every scheduler thread has stopped (the
        pool is released); ``False`` when the bounded wait expired with
        a session still wedged -- e.g. a hung worker under
        ``task_timeout_s=0``.  In that case the pool is left up (a
        shutdown under a running batch would corrupt the wedged
        session's evaluation); ``close`` is idempotent, so call it
        again -- or let process exit reap the daemon threads.
        """
        running = []
        with self._lock:
            first = not self._closed
            self._closed = True
            for job in self._jobs.values():
                if job.state == JobState.PENDING:
                    job._cancel_requested = True
                elif job.state == JobState.RUNNING:
                    # The fixed bug: a wedged RUNNING job was never
                    # stop-requested, so close(wait=True) joined its
                    # scheduler thread forever.
                    job._cancel_requested = True
                    if job._observer is not None:
                        running.append(job._observer)
        # Stop requests fan out to session machinery; never under the
        # scheduler lock (same discipline as cancel()).
        for observer in running:
            observer.request_stop()
        if first:
            for _ in self._threads:
                self._queue.put(None)
        clean = True
        if wait:
            deadline = (None if timeout is None
                        else time.monotonic() + timeout)
            for thread in self._threads:
                remaining = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.monotonic())
                thread.join(remaining)
                if thread.is_alive():
                    clean = False
        if self.coordinator is not None and (clean or not wait):
            self.coordinator.close()
        return clean

    def __enter__(self) -> "SearchServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
