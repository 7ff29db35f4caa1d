"""The immutable run configuration behind every :class:`SearchSession`.

A :class:`SearchSpec` captures *everything* that determines a search run --
workload, platform, objective, dataflow, constraint kind, method, budget
and seed -- as one frozen dataclass, so a run can be named, logged,
compared, and reproduced from a single JSON document.  Two runs built from
equal specs produce bit-identical results.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

from repro.experiments.tasks import TaskSpec
from repro.models.zoo import list_models
from repro.objectives import Objective, resolve_objective

#: The legacy scalar objective names (any registered objective name or
#: ``weighted:`` / ``multi:`` / dict spec is accepted as well; see
#: :mod:`repro.objectives`).
OBJECTIVES = ("latency", "energy", "edp")
DATAFLOWS = ("dla", "eye", "shi")
CONSTRAINT_KINDS = ("area", "power", "resource")
PLATFORMS = ("unlimited", "cloud", "iot", "iotx")
DEPLOYMENTS = ("lp", "ls")


def _executors():
    """The canonical backend names, owned by :mod:`repro.parallel`
    (imported lazily: validation is cold-path and this keeps the spec
    module import-light and cycle-free)."""
    from repro.parallel.backend import EXECUTORS

    return EXECUTORS


#: ``kernel`` values that documents saved before the field was removed
#: may carry, mapped to why the key cannot simply be dropped (``None``:
#: that kernel computed results bit-identical to the batched engine).
_LEGACY_KERNELS = {
    None: None,
    "batched": None,
    "fused": None,
    "auto": None,
    "fused32": "its float32 epilogue changed results",
    "fused-jit": "it required numba",
}


@dataclass(frozen=True)
class SearchSpec:
    """A fully specified, serializable search run.

    Attributes:
        model: Workload-zoo name (kept to registry names so the spec stays
            serializable; pass explicit layer lists through
            :class:`repro.experiments.tasks.TaskSpec` instead).
        method: Registered search-method name (see
            :func:`repro.search.registry.list_methods`).
        objective: Any objective spec (minimized): a registered name
            ("latency" / "energy" / "edp" / "area" / "power" / custom),
            a compact ``weighted:latency=0.5,energy=0.5`` or
            ``multi:latency,energy`` string, a structured spec dict, or
            an :class:`repro.objectives.Objective` instance (stored as
            its JSON-safe spec, so serialization round-trips).
        dataflow: Fixed style, also used for constraint calibration under
            MIX.
        constraint_kind: "area" | "power" (Table II platform budgets) or
            "resource" (FPGA caps, Table VIII).
        platform: Table-II budget tier.
        budget: Search budget -- episodes for episodic-RL methods, whole
            design-point evaluations for genome-space methods, stage-1
            epochs for two-stage methods.
        seed: Master RNG seed handed to the method factory (``None`` draws
            fresh OS entropy; fix it for reproducible runs).
        mix: Per-layer dataflow co-automation (Section IV-D).
        num_levels: Coarse action levels L (Table I).
        max_pes: Top of the PE ladder.
        deployment: "lp" or "ls".
        max_total_pes / max_total_l1: FPGA caps when ``constraint_kind``
            is "resource".
        layer_slice: Restrict to the first N layers (None = full model).
        finetune: Stage-2 budget for two-stage methods; ``None`` means
            ``budget // 4``.  Ignored by single-stage methods.
        executor: Execution backend for population-level evaluation --
            "serial" | "thread" | "process" | "distributed" -- or
            ``None`` to defer to ``$REPRO_EXECUTOR`` (default
            "serial").  Results are bit-identical across backends; only
            wall-clock changes.
        workers: Worker count for parallel executors; ``None`` defers to
            ``$REPRO_WORKERS``, else the available cores capped at 8
            (see :func:`repro.parallel.default_workers`).  Never affects
            results, only sharding.
        nodes: Node-fleet size for the "distributed" executor; ``None``
            defers to ``$REPRO_NODES``, else the built-in default (see
            :func:`repro.parallel.default_nodes`).  With ``$REPRO_BIND``
            unset the session self-spawns that many localhost
            ``repro worker`` agents; with it set, externally started
            agents join the fleet.  Ignored by other executors; never
            affects results, only sharding.
        dispatch_min_batch: Adaptive-dispatch threshold: parallel
            backends fall back to the in-process kernel for batches
            smaller than ``dispatch_min_batch * workers`` (the measured
            IPC break-even; see BENCH_parallel.json).  ``None`` defers to
            ``$REPRO_DISPATCH_MIN``, else the executor's calibrated
            per-transport default (see
            :data:`repro.parallel.backend.TRANSPORT_MIN_BATCH`); ``0``
            disables the fallback.  Never affects results.
        envs: Lockstep episode count for episodic-RL methods: the agent
            rolls ``envs`` episodes per wave set through a
            :class:`~repro.env.vector.VectorHWAssignmentEnv`, paying one
            batched cost call per wave set under area/resource limits
            (one per wave under power budgets; see BENCH_rl.json).
            ``None`` defers to ``$REPRO_ENVS`` (default 1).  ``envs=1``
            reproduces one-episode-at-a-time stepping; ``envs>1`` is a new
            reproducible scenario whose RNG stream is wave-major (one
            batched draw per action head per wave -- see API.md), so
            ``envs`` is part of the scenario identity, like ``seed``.
            Two-stage methods apply it to their global RL stage;
            genome-space methods ignore it.
        task_timeout_s: Per-batch deadline (seconds) for the process
            backend's supervision: a batch missing it has its hung
            workers terminated and its lost shards re-dispatched (see
            :class:`repro.parallel.ProcessBackend`).  ``None`` defers to
            ``$REPRO_TASK_TIMEOUT``; ``0`` explicitly disables the
            deadline.  Recovery never affects results, only wall-clock.
    """

    model: str
    method: str = "confuciux"
    objective: object = "latency"
    dataflow: str = "dla"
    constraint_kind: str = "area"
    platform: str = "iot"
    budget: int = 500
    seed: Optional[int] = 0
    mix: bool = False
    num_levels: int = 12
    max_pes: int = 128
    deployment: str = "lp"
    max_total_pes: int = 4096
    max_total_l1: int = 8192
    layer_slice: Optional[int] = None
    finetune: Optional[int] = None
    executor: Optional[str] = None
    workers: Optional[int] = None
    nodes: Optional[int] = None
    dispatch_min_batch: Optional[int] = None
    envs: Optional[int] = None
    task_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.model, str):
            raise TypeError(
                "SearchSpec.model must be a workload-zoo name (a str); "
                "use TaskSpec for explicit layer lists")
        if self.model not in list_models():
            raise ValueError(
                f"unknown model {self.model!r}; see repro.list_models()")
        if isinstance(self.objective, Objective):
            # Instances are stored as their JSON-safe spec so the frozen
            # dataclass stays serializable and comparable.
            object.__setattr__(self, "objective", self.objective.spec())
        try:
            resolve_objective(self.objective)
        except (KeyError, ValueError, TypeError) as error:
            raise ValueError(
                f"objective must be a registered objective name, a "
                f"weighted:/multi: spec, a spec dict, or an Objective "
                f"instance: {error}") from None
        for attribute, allowed in (("dataflow", DATAFLOWS),
                                   ("constraint_kind", CONSTRAINT_KINDS),
                                   ("platform", PLATFORMS),
                                   ("deployment", DEPLOYMENTS)):
            value = getattr(self, attribute)
            if value not in allowed:
                raise ValueError(
                    f"{attribute} must be one of {allowed}, got {value!r}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.finetune is not None and self.finetune < 0:
            raise ValueError("finetune must be >= 0 (0 skips stage 2)")
        if self.num_levels < 2:
            raise ValueError("num_levels must be >= 2")
        if self.executor is not None and self.executor not in _executors():
            raise ValueError(
                f"executor must be one of {_executors()} (or None), "
                f"got {self.executor!r}")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None for auto)")
        if self.nodes is not None and self.nodes < 1:
            raise ValueError("nodes must be >= 1 (or None for auto)")
        if self.dispatch_min_batch is not None \
                and (not isinstance(self.dispatch_min_batch, int)
                     or self.dispatch_min_batch < 0):
            raise ValueError(
                "dispatch_min_batch must be an int >= 0 (0 disables the "
                "adaptive fallback) or None (defer to "
                "$REPRO_DISPATCH_MIN)")
        if self.envs is not None and self.envs < 1:
            raise ValueError(
                "envs must be >= 1 (or None to defer to $REPRO_ENVS)")
        if self.task_timeout_s is not None and not (
                math.isfinite(self.task_timeout_s)
                and self.task_timeout_s >= 0):
            raise ValueError(
                "task_timeout_s must be a finite number >= 0 (0 disables "
                "the deadline, None defers to $REPRO_TASK_TIMEOUT)")

    # ------------------------------------------------------------------
    def resolved_executor(self) -> str:
        """The effective backend: the spec's, else ``$REPRO_EXECUTOR``,
        else "serial".  Backends never change results (the parity suite
        holds them bit-identical), so the env-var override is a safe
        deploy-time knob."""
        executor = self.executor
        if executor is None:
            executor = os.environ.get("REPRO_EXECUTOR", "serial")
        if executor not in _executors():
            raise ValueError(
                f"REPRO_EXECUTOR must be one of {_executors()}, "
                f"got {executor!r}")
        return executor

    def resolved_workers(self) -> int:
        """The effective worker count (spec, ``$REPRO_WORKERS``, cores)."""
        if self.workers is not None:
            return self.workers
        from repro.parallel.backend import default_workers

        return default_workers()

    def resolved_nodes(self) -> int:
        """The effective distributed-fleet size (spec, ``$REPRO_NODES``,
        built-in default).  Only the "distributed" executor consumes it."""
        if self.nodes is not None:
            return self.nodes
        from repro.parallel.distributed import default_nodes

        return default_nodes()

    def resolved_objective(self) -> Objective:
        """The spec's objective as a resolved
        :class:`~repro.objectives.Objective` instance."""
        return resolve_objective(self.objective)

    def resolved_envs(self) -> int:
        """The effective lockstep episode count (spec, ``$REPRO_ENVS``,
        1).  Unlike the executor knobs this is *scenario-defining* for
        episodic methods when > 1: it changes which episodes are sampled
        (reproducibly, for a fixed seed)."""
        if self.envs is not None:
            return self.envs
        from repro.parallel.backend import env_number

        return env_number("REPRO_ENVS", int, 1, 1)

    def resolved_task_timeout_s(self) -> float:
        """The effective per-batch deadline in seconds (spec,
        ``$REPRO_TASK_TIMEOUT``, 0 = disabled)."""
        if self.task_timeout_s is not None:
            return float(self.task_timeout_s)
        from repro.parallel.backend import default_task_timeout

        return default_task_timeout()

    def resolved_dispatch_min_batch(self) -> int:
        """The effective adaptive-dispatch threshold (spec,
        ``$REPRO_DISPATCH_MIN``, the executor's calibrated per-transport
        break-even)."""
        if self.dispatch_min_batch is not None:
            return self.dispatch_min_batch
        from repro.parallel.backend import default_dispatch_min_batch

        return default_dispatch_min_batch(self.resolved_executor())

    # ------------------------------------------------------------------
    @property
    def finetune_budget(self) -> int:
        """Resolved stage-2 budget: explicit ``finetune`` or ``budget//4``."""
        return self.budget // 4 if self.finetune is None else self.finetune

    def task(self) -> TaskSpec:
        """The equivalent :class:`TaskSpec` (env/evaluator construction)."""
        return TaskSpec(
            model=self.model, dataflow=self.dataflow,
            objective=self.objective, constraint_kind=self.constraint_kind,
            platform=self.platform, mix=self.mix,
            num_levels=self.num_levels, max_pes=self.max_pes,
            deployment=self.deployment, max_total_pes=self.max_total_pes,
            max_total_l1=self.max_total_l1, layer_slice=self.layer_slice)

    def replace(self, **changes) -> "SearchSpec":
        """A copy with ``changes`` applied (validation re-runs)."""
        return replace(self, **changes)

    def __hash__(self) -> int:
        """Hash by canonical JSON: composite (dict) objective specs
        would otherwise make the frozen dataclass unhashable, breaking
        specs-as-keys dedup for exactly the richest runs.  ``sort_keys``
        keeps the hash consistent with field equality regardless of
        spec-dict key order."""
        return hash(json.dumps(self.to_dict(), sort_keys=True))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-safe dict fully reconstructing this spec."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys.

        Documents saved while the spec still had a ``kernel`` field load
        with the key dropped, unless they name a removed kernel the
        batched engine does not stand in for (a ``ValueError``).  The
        removed ``autotune`` key is dropped whatever its value, and a
        legacy ``dispatch_min_batch: "auto"`` loads as ``None``: both
        only moved shard boundaries, never results.  The retired
        ``"chaos"`` executor loads as ``"process"``: it was the process
        backend with a fault plan attached, and faults never change
        results.
        """
        data = dict(data)
        data.pop("autotune", None)
        if data.get("executor") == "chaos":
            data["executor"] = "process"
        if data.get("dispatch_min_batch") == "auto":
            data["dispatch_min_batch"] = None
        if "kernel" in data:
            kernel = data.pop("kernel")
            reason = _LEGACY_KERNELS.get(kernel, "not a kernel name")
            if reason is not None:
                raise ValueError(
                    f"cannot load kernel={kernel!r}: {reason}; the kernel "
                    f"field was removed, so drop the key to rerun on the "
                    f"batched engine")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SearchSpec fields: {sorted(unknown)}")
        return cls(**data)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """This spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, document: str) -> "SearchSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(document))
