"""Run a set of search methods against one task and collect results.

The comparison tables (III, IV, V) are all "methods x tasks" grids.  This
module is now a thin veneer over the unified method registry
(:mod:`repro.search.registry`) and the session runners
(:mod:`repro.search.session`): every method -- episodic RL, genome-space
baseline, the stage-2 GA, or the full two-stage pipeline -- is resolved by
name and driven through its registered run protocol, with a fresh
environment/evaluator per method over a shared cost model so cached layer
evaluations are reused across methods without leaking search state.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.costmodel.estimator import CostModel
from repro.experiments.tasks import TaskSpec
from repro.rl.common import SearchResult
# NOTE: repro.search.session is imported lazily inside compare_methods;
# importing it here would close a cycle (session -> experiments.tasks ->
# experiments/__init__ -> runner) while session is still initializing.
from repro.search.registry import KIND_EPISODIC, get_method, method_names


def _episodic_names() -> frozenset:
    return frozenset(method_names(kind=KIND_EPISODIC))


#: Methods that drive the env (episodic RL) vs. the genome evaluator.
#: Kept for backward compatibility; derived from registry metadata.
RL_METHODS = _episodic_names()


def method_factories(names: Iterable[str]) -> Dict[str, Callable]:
    """Resolve method names to seeded factories, failing fast on typos.

    Every factory follows the registry seed contract: it accepts
    ``seed`` (``None`` for fresh entropy) and builds its RNG as
    ``np.random.default_rng(seed)``.
    """
    return {name: get_method(name).factory for name in names}


def _grid_spec(task: TaskSpec, method: str, epochs: int, seed: int,
               envs: int):
    """The :class:`~repro.search.spec.SearchSpec` identity of one grid
    cell, or ``None`` when the task is not registry-representable (an
    explicit layer list has no serializable name, so it cannot be
    content-addressed)."""
    if not isinstance(task.model, str):
        return None
    from repro.search.spec import SearchSpec

    return SearchSpec(
        model=task.model, method=method, objective=task.objective,
        dataflow=task.dataflow, constraint_kind=task.constraint_kind,
        platform=task.platform, budget=epochs, seed=seed, mix=task.mix,
        num_levels=task.num_levels, max_pes=task.max_pes,
        deployment=task.deployment, max_total_pes=task.max_total_pes,
        max_total_l1=task.max_total_l1, layer_slice=task.layer_slice,
        envs=envs)


def compare_methods(
    task: TaskSpec,
    methods: Iterable[str],
    epochs: int,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    dispatch_min_batch: Optional[int] = None,
    envs: int = 1,
    cache=None,
    force: bool = False,
) -> Dict[str, SearchResult]:
    """Run every method on ``task`` for ``epochs`` and collect results.

    RL methods consume ``epochs`` episodes; baselines consume ``epochs``
    whole-design-point evaluations -- the paper's protocol (both are one
    cost-model pass per layer per epoch for LP tasks).  Any registered
    method name is accepted, including ``local-ga`` and the two-stage
    ``confuciux`` pipeline.

    ``executor`` / ``workers`` optionally shard every batched evaluation
    of the grid through one keep-alive
    :class:`~repro.parallel.ParallelCoordinator` ("thread" / "process" /
    "distributed"): the worker pool is shared across all methods, runs
    the same retry budget and degradation ladder a session does, and is
    shut down before returning.  Results are bit-identical to the serial
    grid.  ``dispatch_min_batch`` tunes the in-process fallback for
    small batches (``None`` resolves ``$REPRO_DISPATCH_MIN`` / the
    executor's default; 0 always shards).  ``envs`` rolls the
    episodic-RL methods as that many lockstep episodes per wave set;
    unlike the executor knobs, ``envs > 1`` changes which episodes are
    sampled (reproducibly per seed).

    ``cache`` plugs the grid into the content-addressed result store
    shared with the search service: pass a
    :class:`~repro.service.store.ResultStore`, a directory path, or
    ``True`` (the default store root).  Cells whose task is
    registry-representable (``task.model`` is a zoo name) are looked up
    before running and written back after -- so re-running a grid, or
    running a grid the service already served, is O(1) per hit.  Cells
    with explicit layer lists always run.  ``force=True`` re-runs every
    cell and overwrites its entry.  Execution knobs (``executor`` /
    ``workers`` / ``dispatch_min_batch``) are excluded from the identity:
    results are bit-identical across backends, so one cached result
    serves all of them.
    """
    from repro.search.session import (
        SessionContext,
        SessionResult,
        run_method,
    )

    store = None
    if cache is not None and cache is not False:
        from repro.service.store import ResultStore

        if isinstance(cache, ResultStore):
            store = cache
        elif cache is True:
            store = ResultStore()
        else:
            store = ResultStore(root=cache)

    cost_model = cost_model or CostModel()
    constraint = task.constraint(cost_model)
    pool = None
    if executor is not None and executor != "serial":
        from repro.parallel import (
            ParallelCoordinator,
            default_dispatch_min_batch,
        )

        if dispatch_min_batch is None:
            dispatch_min_batch = default_dispatch_min_batch(executor)
        pool = ParallelCoordinator(executor, workers=workers,
                                   nodes=workers, keep_alive=True,
                                   min_batch_per_worker=dispatch_min_batch)
    results: Dict[str, SearchResult] = {}
    try:
        for name in methods:
            info = get_method(name)
            spec = (None if store is None
                    else _grid_spec(task, name, epochs, seed, envs))
            if spec is not None:
                hit = store.get(spec, force=force)
                if hit is not None:
                    results[name] = hit.result
                    continue
            context = SessionContext(task=task, budget=epochs, seed=seed,
                                     cost_model=cost_model,
                                     constraint=constraint, envs=envs)
            if pool is None:
                results[name] = run_method(info, context)
            else:
                # The pool observes each cell as a session would: it
                # installs itself on the shared cost model at start and
                # uninstalls at teardown, keeping its workers alive.
                pool.on_start(context)
                try:
                    results[name] = run_method(info, context)
                finally:
                    pool.on_teardown()
            if spec is not None:
                import repro

                store.put(spec, SessionResult(
                    spec=spec, result=results[name],
                    provenance={"repro_version": repro.__version__,
                                "method_kind": info.kind,
                                "source": "compare_methods"}))
    finally:
        if pool is not None:
            pool.close()
    return results
