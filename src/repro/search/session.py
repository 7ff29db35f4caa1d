"""The unified search façade: one call convention for every method.

Pre-redesign the repository exposed three incompatible surfaces --
``GenomeOptimizer.search(evaluator, epochs)``, RL agents driving
``HWAssignmentEnv``, and the bespoke ``ConfuciuX.run(...)`` pipeline.
:class:`SearchSession` runs any registered method from one frozen
:class:`~repro.search.spec.SearchSpec`::

    from repro import SearchSession, SearchSpec

    spec = SearchSpec(model="mobilenet_v2", method="sa", budget=200, seed=0)
    result = SearchSession(spec).run(callbacks=[ProgressReporter()])
    result.save("run.json")

or, in one call::

    result = repro.explore(model="mobilenet_v2", method="sa", budget=200)

Sessions add *observation only*: with no callbacks the method runs on
exactly the same objects the legacy call paths built, so best costs are
bit-identical for fixed seeds.  With callbacks, the environment/evaluator
is wrapped in a forwarding proxy that fires the observer protocol and
implements graceful early stopping.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.serialization import (
    search_result_from_dict,
    search_result_to_dict,
)
from repro.costmodel.estimator import CostModel
from repro.env.vector import VectorHWAssignmentEnv
from repro.experiments.tasks import TaskSpec
from repro.rl.common import SearchResult
from repro.search.callbacks import SearchObserver, StopSearch
from repro.search.registry import (
    KIND_EPISODIC,
    KIND_GENOME,
    KIND_TWO_STAGE,
    MethodInfo,
    get_method,
)
from repro.search.spec import SearchSpec


class _Tracker:
    """Observer multiplexer: counts steps, tracks the feasible best, and
    turns observer stop requests into :class:`StopSearch` unwinds."""

    def __init__(self, observers: Sequence[SearchObserver] = ()) -> None:
        self.observers = tuple(observers)
        self.steps = 0
        self.best_cost: Optional[float] = None
        self.best_assignments: Optional[Tuple] = None
        self.best_genome: Optional[List[int]] = None
        self.history: List[float] = []
        self.stopped = False

    @property
    def active(self) -> bool:
        """Whether instrumentation is needed at all."""
        return bool(self.observers)

    def record(self, cost: float, feasible: bool,
               assignments_fn: Optional[Callable[[], Tuple]] = None,
               genome: Optional[List[int]] = None,
               defer_stop: bool = False) -> None:
        """Account one budget unit and fire the observer protocol.

        ``assignments_fn`` is a thunk so the (decode) work is only paid
        when the step actually improves the best.  ``defer_stop`` delays
        the :class:`StopSearch` unwind to the next :meth:`check_stop`
        boundary (used by the env proxy to finish episodes cleanly).
        """
        self.steps += 1
        if feasible and (self.best_cost is None or cost < self.best_cost):
            self.best_cost = cost
            self.best_assignments = (tuple(assignments_fn())
                                     if assignments_fn else None)
            self.best_genome = list(genome) if genome is not None else None
            for observer in self.observers:
                observer.on_improvement(self.steps, cost,
                                        self.best_assignments)
        self.history.append(float("inf") if self.best_cost is None
                            else self.best_cost)
        for observer in self.observers:
            if observer.on_step(self.steps, cost if feasible else None,
                                self.best_cost):
                self.stopped = True
            if observer.stop_requested:
                self.stopped = True
        if self.stopped and not defer_stop:
            raise StopSearch

    def check_stop(self) -> None:
        """Unwind now if a stop was requested (episode boundaries)."""
        if self.stopped:
            raise StopSearch


class _ObservedVectorEnv:
    """Forwarding proxy around
    :class:`~repro.env.vector.VectorHWAssignmentEnv` firing one observer
    step per episode finishing inside a wave."""

    def __init__(self, venv, tracker: _Tracker) -> None:
        self._venv = venv
        self._tracker = tracker

    def __getattr__(self, name):
        return getattr(self._venv, name)

    def reset(self, episodes=None):
        self._tracker.check_stop()
        return self._venv.reset(episodes)

    def _record_wave(self, out):
        for episode in out[3]["episodes"]:
            if episode is not None:
                self._tracker.record(
                    episode.cost, episode.feasible,
                    assignments_fn=lambda e=episode: e.assignments,
                    genome=episode.genome, defer_stop=True)
        return out

    def step(self, actions):
        return self._record_wave(self._venv.step(actions))

    def step_wait(self, handle):
        # Episode results materialize at wait time, so the observer
        # fires here (the deferred-scoring drivers bypass step()).
        return self._record_wave(self._venv.step_wait(handle))


class _ObservedEvaluator:
    """Forwarding proxy firing one observer step per design-point
    evaluation (scalar, batched, level-indexed, or raw)."""

    def __init__(self, evaluator, tracker: _Tracker) -> None:
        self._evaluator = evaluator
        self._tracker = tracker

    def __getattr__(self, name):
        return getattr(self._evaluator, name)

    def _record(self, outcome, assignments_fn) -> None:
        self._tracker.record(outcome.cost, outcome.feasible,
                             assignments_fn=assignments_fn)

    def evaluate_genome(self, genome):
        outcome = self._evaluator.evaluate_genome(genome)
        decode = self._evaluator.decode_genome
        self._record(outcome, lambda: decode(genome))
        return outcome

    def evaluate_population(self, genomes):
        outcomes = self._evaluator.evaluate_population(genomes)
        decode = self._evaluator.decode_genome
        for genome, outcome in zip(genomes, outcomes):
            self._record(outcome, lambda g=genome: decode(g))
        return outcomes

    def evaluate_raw(self, assignments):
        outcome = self._evaluator.evaluate_raw(assignments)
        self._record(outcome, lambda: assignments)
        return outcome

    def evaluate_population_raw(self, population):
        outcomes = self._evaluator.evaluate_population_raw(population)
        for assignments, outcome in zip(population, outcomes):
            self._record(outcome, lambda a=assignments: a)
        return outcomes


class SessionContext:
    """Everything a method runner needs to drive one search.

    Built by :class:`SearchSession` (from a :class:`SearchSpec`) and by
    :func:`repro.experiments.runner.compare_methods` (from a
    :class:`TaskSpec`), so both share one set of runners.
    """

    def __init__(self, task: TaskSpec, budget: int,
                 seed: Optional[int] = 0,
                 finetune: Optional[int] = None,
                 cost_model: Optional[CostModel] = None,
                 constraint=None,
                 tracker: Optional[_Tracker] = None,
                 envs: int = 1) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if envs < 1:
            raise ValueError("envs must be >= 1")
        self.task = task
        self.budget = budget
        self.seed = seed
        self._finetune = finetune
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self._constraint = constraint
        self.tracker = tracker if tracker is not None else _Tracker()
        #: Lockstep episodes per wave set of the episodic methods'
        #: VectorHWAssignmentEnv.
        self.envs = envs
        #: Method-specific rich result (e.g. the two-stage
        #: ConfuciuXResult), surfaced as ``SessionResult.detail``.
        self.detail: Any = None

    @property
    def constraint(self):
        """The task constraint, built once on first use."""
        if self._constraint is None:
            self._constraint = self.task.constraint(self.cost_model)
        return self._constraint

    @property
    def finetune(self) -> int:
        """Stage-2 budget for two-stage methods (default ``budget//4``)."""
        return self.budget // 4 if self._finetune is None else self._finetune

    def make_env(self):
        """A fresh :class:`~repro.env.vector.VectorHWAssignmentEnv` of
        ``envs`` lockstep episodes, observed when callbacks are
        attached."""
        return self._vectorize(
            self.task.make_env(self.cost_model, self.constraint))

    def _vectorize(self, env):
        """Wrap a scalar env as the session's vector env (plus the
        observer proxy when callbacks are attached)."""
        venv = VectorHWAssignmentEnv(env, self.envs)
        if self.tracker.active:
            return _ObservedVectorEnv(venv, self.tracker)
        return venv

    def make_evaluator(self):
        """A fresh genome evaluator, observed when callbacks are
        attached."""
        evaluator = self.task.make_evaluator(self.cost_model,
                                             self.constraint)
        if self.tracker.active:
            return _ObservedEvaluator(evaluator, self.tracker)
        return evaluator


# ----------------------------------------------------------------------
# Per-kind method runners.
def _stopped_result(name: str, tracker: _Tracker, evaluations: int,
                    episodes: int, started: float) -> SearchResult:
    """Synthesize the outcome of an early-stopped search from the
    tracker's own bookkeeping."""
    result = SearchResult(algorithm=name)
    result.best_cost = tracker.best_cost
    result.best_assignments = tracker.best_assignments
    result.best_genome = tracker.best_genome
    result.history = list(tracker.history)
    result.evaluations = evaluations
    result.episodes = episodes
    result.wall_time_s = time.perf_counter() - started
    result.extra["stopped_early"] = True
    return result


def run_episodic(info: MethodInfo, context: SessionContext) -> SearchResult:
    """Drive an episodic-RL method: ``method.search(env, episodes)``."""
    method = info.factory(seed=context.seed)
    env = context.make_env()
    started = time.perf_counter()
    try:
        return method.search(env, context.budget)
    except StopSearch:
        return _stopped_result(info.name, context.tracker, env.evaluations,
                               env.episodes, started)


def run_genome(info: MethodInfo, context: SessionContext) -> SearchResult:
    """Drive a genome-space method: ``method.search(evaluator, budget)``."""
    method = info.factory(seed=context.seed)
    evaluator = context.make_evaluator()
    started = time.perf_counter()
    try:
        return method.search(evaluator, context.budget)
    except StopSearch:
        return _stopped_result(info.name, context.tracker,
                               evaluator.evaluations, context.tracker.steps,
                               started)


def run_local_ga(info: MethodInfo, context: SessionContext) -> SearchResult:
    """Drive the stage-2 GA standalone: it fine-tunes from the documented
    deterministic seed point -- the minimal uniform genome (level 0 per
    gene, style index 0 under MIX, the most-feasible corner of the
    space) -- with raw bounds derived from the action space exactly as
    the two-stage pipeline derives them.

    ``budget`` counts design-point evaluations, the same currency every
    genome-space method spends, and is converted to GA generations
    (initial population + offspring per generation), so equal-budget
    comparisons against the other methods stay fair.
    """
    evaluator = context.make_evaluator()
    space = evaluator.space
    method = info.factory(seed=context.seed,
                          max_pes=max(space.pe_levels),
                          max_l1_bytes=2 * max(space.buf_levels))
    genome = [0] * evaluator.genome_length
    initial = evaluator.decode_genome(genome)
    offspring = max(1, method.population_size - method.elite)
    generations = max(
        1, (context.budget - method.population_size) // offspring)
    started = time.perf_counter()
    try:
        return method.search(evaluator, initial, generations)
    except StopSearch:
        return _stopped_result(info.name, context.tracker,
                               evaluator.evaluations, context.tracker.steps,
                               started)


def run_two_stage(info: MethodInfo, context: SessionContext) -> SearchResult:
    """Drive a two-stage pipeline (global RL stage + local fine-tune).

    Observers cover the global stage (one ``on_step`` per episode); the
    short fine-tune stage runs unobserved and is reflected in the final
    result.  The pipeline builds its own platform constraint exactly as
    the legacy ``ConfuciuX(...)`` path did, so results are bit-identical.

    ``SearchSpec.envs`` applies to the global RL stage exactly as it
    does to the standalone episodic methods: the pipeline's internally
    built env is wrapped in a
    :class:`~repro.env.vector.VectorHWAssignmentEnv` of ``envs``
    lockstep episodes.
    """
    task = context.task
    builder = info.factory(seed=context.seed)
    pipeline = builder(
        task.layers(),
        objective=task.objective,
        dataflow=None if task.mix else task.dataflow,
        mix=task.mix,
        num_levels=task.num_levels,
        max_pes=task.max_pes,
        constraint_kind=task.constraint_kind,
        platform=task.platform,
        cost_model=context.cost_model,
        constraint=(context.constraint
                    if task.constraint_kind == "resource" else None),
    )
    pipeline.env = context._vectorize(pipeline.env)
    started = time.perf_counter()
    try:
        outcome = pipeline._run(global_epochs=context.budget,
                                finetune_generations=context.finetune)
    except StopSearch:
        return _stopped_result(info.name, context.tracker,
                               pipeline.env.evaluations,
                               pipeline.env.episodes, started)
    context.detail = outcome
    return _two_stage_search_result(info.name, outcome)


def _two_stage_search_result(name: str, outcome) -> SearchResult:
    """Flatten a :class:`ConfuciuXResult` into the uniform result type."""
    stage1 = outcome.global_result
    stage2 = outcome.finetune_result
    result = SearchResult(algorithm=name)
    result.best_cost = outcome.best_cost
    result.best_assignments = outcome.best_assignments
    result.best_genome = (stage2.best_genome
                          if stage2 is not None
                          and stage2.best_genome is not None
                          else stage1.best_genome)
    result.history = outcome.trace
    result.evaluations = stage1.evaluations
    result.episodes = stage1.episodes
    result.cache_hits = stage1.cache_hits
    result.wall_time_s = stage1.wall_time_s
    result.memory_bytes = stage1.memory_bytes
    if stage2 is not None:
        result.evaluations += stage2.evaluations
        result.episodes += stage2.episodes
        result.cache_hits += stage2.cache_hits
        result.wall_time_s += stage2.wall_time_s
        result.memory_bytes = max(result.memory_bytes, stage2.memory_bytes)
    impr1, impr2 = outcome.improvement_fractions()
    utilization = outcome.utilization()
    result.extra.update({
        "initial_valid_cost": outcome.initial_valid_cost,
        "global_cost": outcome.global_cost,
        "finetune_cost": stage2.best_cost if stage2 is not None else None,
        "global_improvement": impr1,
        "finetune_improvement": impr2,
        "constraint_used": (utilization.used
                            if utilization is not None else None),
        "constraint_budget": (utilization.budget
                              if utilization is not None else None),
    })
    return result


#: Default run protocol per method kind.
DEFAULT_RUNNERS: Dict[str, Callable] = {
    KIND_EPISODIC: run_episodic,
    KIND_GENOME: run_genome,
    KIND_TWO_STAGE: run_two_stage,
}


def run_method(info: MethodInfo, context: SessionContext) -> SearchResult:
    """Run one registered method in ``context`` (registry override or the
    default runner for its kind)."""
    runner = info.runner if info.runner is not None \
        else DEFAULT_RUNNERS[info.kind]
    return runner(info, context)


# ----------------------------------------------------------------------
@dataclass
class SessionResult:
    """A :class:`SearchResult` plus the spec and provenance of its run.

    Serializes to a single JSON document (``to_json``/``save``) from which
    both the spec and the result round-trip (``from_json``/``load``), so a
    long search is reproducible from its own output file.

    Attributes:
        spec: The exact configuration that produced this result.
        result: The uniform search outcome.
        stopped_early: Whether an observer stopped the run before the
            budget was exhausted.
        provenance: Run metadata (package version, method kind,
            timestamps).
        detail: Method-specific rich result object (e.g. the two-stage
            :class:`~repro.core.confuciux.ConfuciuXResult`); not
            serialized.
    """

    spec: SearchSpec
    result: SearchResult
    stopped_early: bool = False
    provenance: Dict[str, Any] = field(default_factory=dict)
    detail: Any = field(default=None, repr=False, compare=False)

    # Convenience views ------------------------------------------------
    @property
    def method(self) -> str:
        return self.spec.method

    @property
    def feasible(self) -> bool:
        return self.result.feasible

    @property
    def best_cost(self) -> Optional[float]:
        return self.result.best_cost

    @property
    def best_assignments(self) -> Optional[Tuple]:
        return self.result.best_assignments

    @property
    def history(self) -> List[float]:
        return self.result.history

    @property
    def pareto_front(self) -> Optional[List[Dict[str, Any]]]:
        """The non-dominated front a multi-objective method found, as a
        list of JSON-safe ``{"objectives": {name: value}, "genome": ...,
        "assignments": ...}`` records (``None`` for scalar methods).
        Lives in ``result.extra``, so it serializes with the session."""
        return self.result.extra.get("pareto_front")

    def summary(self) -> str:
        """One line: method, model, outcome.  For multi-objective runs
        the scalar figure is labelled with its primary component (that
        is all ``best_cost`` tracks); the front size is appended."""
        from repro.objectives import objective_cost_label

        cost = self.result.format_cost()
        flag = " (stopped early)" if self.stopped_early else ""
        front = self.pareto_front
        if front is not None:
            flag += f", {len(front)}-point Pareto front"
        return (f"{self.method} on {self.spec.model}: "
                f"best {objective_cost_label(self.spec.objective)} {cost} "
                f"in {self.result.evaluations} evaluations{flag}")

    # Serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-safe dict capturing spec, result, and provenance."""
        return {
            "spec": self.spec.to_dict(),
            "result": search_result_to_dict(self.result),
            "stopped_early": self.stopped_early,
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionResult":
        """Inverse of :meth:`to_dict` (``detail`` is not restored)."""
        return cls(
            spec=SearchSpec.from_dict(data["spec"]),
            result=search_result_from_dict(data["result"]),
            stopped_early=data.get("stopped_early", False),
            provenance=dict(data.get("provenance", {})),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, document: str) -> "SessionResult":
        return cls.from_dict(json.loads(document))

    def save(self, path) -> None:
        """Write this result (spec included) to ``path`` as JSON."""
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> "SessionResult":
        """Read a result previously written by :meth:`save`."""
        with open(path) as handle:
            return cls.from_json(handle.read())


class SearchSession:
    """One search run: spec in, :class:`SessionResult` out.

    Args:
        spec: The frozen run configuration (also fixes the method).
        cost_model: Optional shared estimator; pass one to reuse its layer
            cache across many sessions (the comparison-grid pattern).

    The session validates the method name eagerly, so typos fail at
    construction, not after minutes of search.
    """

    def __init__(self, spec: SearchSpec,
                 cost_model: Optional[CostModel] = None) -> None:
        self.spec = spec
        self.info = get_method(spec.method)
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.result: Optional[SessionResult] = None
        self._observers: Tuple[SearchObserver, ...] = ()

    def _notify_warning(self, kind: str, detail: dict) -> None:
        """Fan a structured mid-run warning out to this run's observers
        (the fault-tolerance layer calls this on backend degradation)."""
        for observer in self._observers:
            observer.on_warning(kind, detail)

    def run(self, callbacks: Sequence[SearchObserver] = ()) -> SessionResult:
        """Run the method to its budget (or an observer stop) and return
        the wrapped result.  Sessions are reusable: each ``run`` builds a
        fresh method/environment from the spec.

        When the spec resolves to a parallel executor and no
        :class:`~repro.parallel.ParallelCoordinator` was passed, the
        session creates one for the run: workers spawn on the first
        batch, are reused across generations, and are shut down on every
        exit path (``on_teardown`` fires from a ``finally``).  Observer
        hooks are only attached for caller-passed callbacks, so a bare
        ``run()`` still drives exactly the legacy objects -- parallel or
        not, results are bit-identical.
        """
        import repro
        from repro.parallel import ParallelCoordinator, PoolLease

        observers = list(callbacks)
        executor = self.spec.resolved_executor()
        if (executor != "serial"
                and self.cost_model.executor is None
                and not any(isinstance(observer,
                                       (ParallelCoordinator, PoolLease))
                            for observer in observers)):
            # Session-owned coordinator: lifecycle only, not tracking --
            # the tracker keeps observing just the user's callbacks.  A
            # backend already installed on the cost model (directly or
            # by a passed coordinator) is the caller's to manage.
            coordinator = ParallelCoordinator(
                executor=executor, workers=self.spec.resolved_workers(),
                nodes=self.spec.resolved_nodes(),
                min_batch_per_worker=(
                    self.spec.resolved_dispatch_min_batch()),
                task_timeout_s=self.spec.resolved_task_timeout_s())
            observers.append(coordinator)
        self._observers = tuple(observers)
        tracker = _Tracker(callbacks)
        context = SessionContext(
            task=self.spec.task(), budget=self.spec.budget,
            seed=self.spec.seed, finetune=self.spec.finetune,
            cost_model=self.cost_model, tracker=tracker,
            envs=self.spec.resolved_envs())
        for observer in observers:
            observer._begin_run()
            observer.on_start(self)
        started_at = time.strftime("%Y-%m-%dT%H:%M:%S")
        try:
            search_result = run_method(self.info, context)
        finally:
            for observer in observers:
                observer.on_teardown()
        outcome = SessionResult(
            spec=self.spec,
            result=search_result,
            stopped_early=tracker.stopped,
            provenance={
                "repro_version": repro.__version__,
                "method_kind": self.info.kind,
                "executor": executor,
                "envs": context.envs,
                "started_at": started_at,
                "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
            detail=context.detail,
        )
        for observer in observers:
            observer.on_finish(outcome)
        self.result = outcome
        return outcome


def explore(model: str, method: str = "confuciux", budget: int = 500,
            seed: Optional[int] = 0,
            callbacks: Sequence[SearchObserver] = (),
            cost_model: Optional[CostModel] = None,
            **spec_kwargs) -> SessionResult:
    """One-call entry point: build a spec, run a session, return the
    result.

    Example::

        import repro

        result = repro.explore(model="mobilenet_v2", method="sa",
                               budget=200, seed=0, platform="iotx")
        print(result.summary())

    Extra keyword arguments flow into :class:`SearchSpec` (``objective``,
    ``platform``, ``layer_slice``, ...).
    """
    spec = SearchSpec(model=model, method=method, budget=budget, seed=seed,
                      **spec_kwargs)
    return SearchSession(spec, cost_model=cost_model).run(callbacks=callbacks)
