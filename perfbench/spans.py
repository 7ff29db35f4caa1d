"""Spans around calls into each layer of ``repro``, installed from outside.

The package carries no instrumentation of its own, so the benchmark wraps
public methods on their classes for the length of a traced search and puts
the originals back afterwards.  Each wrapper records one span per call:
inclusive time, self time (the span minus the traced child spans it
contains on the same thread) and any work counts the layer's arguments or
results reveal.  A call nested inside a span of the same name (for example
``evaluate_genome`` -> ``evaluate_raw``) is left to its outer span, so no
time or work is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _rows_arg(args, _result, _before) -> Dict[str, float]:
    """``BatchedCostModel.evaluate*(self, table, layer_idx, ...)``."""
    return {"costmodel.rows": len(args[2])}


def _rows_layers(args, _result, _before) -> Dict[str, float]:
    """``CostModel.evaluate_model*(self, layers, ...)``."""
    return {"costmodel.rows": len(args[1])}


def _rows_one(_args, _result, _before) -> Dict[str, float]:
    return {"costmodel.rows": 1}


def _outcomes(args, result, before) -> Dict[str, float]:
    """Evaluator entry points: outcomes, feasible outcomes and rows the
    duplicate-row memo served (``cache_hits`` moved during the call)."""
    outcomes = result if isinstance(result, list) else [result]
    return {
        "core.evaluator_evals": len(outcomes),
        "core.evaluator_feasible": sum(1 for o in outcomes if o.feasible),
        "core.evaluator_dedup_hits": args[0].cache_hits - before,
    }


def _cache_hits_before(args) -> int:
    return args[0].cache_hits


#: (module, class, method, span name, count hook, pre-call snapshot).
#: Span names are the per-layer metric stems reported by the benchmark.
POINTS: List[Tuple] = [
    ("repro.search.session", "SearchSession", "run", "search.run"),
    ("repro.rl.reinforce", "Reinforce", "run_episode", "rl.rollout"),
    ("repro.rl.reinforce", "Reinforce", "run_episode_planned", "rl.rollout"),
    ("repro.rl.reinforce", "Reinforce", "run_wave", "rl.rollout"),
    ("repro.rl.policies", "RecurrentPolicy", "forward", "rl.policy_forward"),
    ("repro.rl.policies", "MLPPolicy", "forward", "rl.policy_forward"),
    ("repro.nn.distributions", "Categorical", "sample", "nn.categorical"),
    ("repro.nn.distributions", "Categorical", "log_prob", "nn.categorical"),
    ("repro.nn.distributions", "Categorical", "entropy", "nn.categorical"),
    ("repro.rl.reinforce", "Reinforce", "update", "rl.update"),
    ("repro.rl.reinforce", "Reinforce", "update_wave", "rl.update"),
    ("repro.nn.autograd", "Tensor", "backward", "nn.backward"),
    ("repro.nn.optim", "Adam", "step", "nn.adam"),
    ("repro.env.environment", "HWAssignmentEnv", "step", "env.step"),
    ("repro.env.environment", "EpisodePlan", "step", "env.step"),
    ("repro.env.environment", "EpisodePlan", "commit", "env.step"),
    ("repro.env.vector", "VectorHWAssignmentEnv", "step", "env.step"),
    ("repro.env.vector", "VectorHWAssignmentEnv", "step_async", "env.step"),
    ("repro.env.vector", "VectorHWAssignmentEnv", "step_wait", "env.wait"),
    ("repro.env.observation", "ObservationEncoder", "encode", "env.encode"),
    ("repro.env.observation", "ObservationEncoder", "encode_batch",
     "env.encode"),
    ("repro.costmodel.batched", "BatchedCostModel", "evaluate",
     "costmodel.kernel", _rows_arg),
    ("repro.costmodel.batched", "BatchedCostModel", "evaluate_constrained",
     "costmodel.kernel", _rows_arg),
    ("repro.costmodel.estimator", "CostModel", "evaluate_layer",
     "costmodel.kernel", _rows_one),
    ("repro.costmodel.estimator", "CostModel", "evaluate_model",
     "costmodel.kernel", _rows_layers),
    ("repro.costmodel.estimator", "CostModel", "evaluate_model_ls",
     "costmodel.kernel", _rows_layers),
    ("repro.core.evaluator", "DesignPointEvaluator", "evaluate_population",
     "core.evaluator", _outcomes, _cache_hits_before),
    ("repro.core.evaluator", "DesignPointEvaluator",
     "evaluate_population_raw", "core.evaluator", _outcomes,
     _cache_hits_before),
    ("repro.core.evaluator", "DesignPointEvaluator", "evaluate_raw",
     "core.evaluator", _outcomes, _cache_hits_before),
    ("repro.core.evaluator", "DesignPointEvaluator", "evaluate_genome",
     "core.evaluator", _outcomes, _cache_hits_before),
    ("repro.core.evaluator", "DesignPointEvaluator", "decode_genome",
     "core.evaluator"),
    ("repro.optim.base", "GenomeOptimizer", "random_genome",
     "optim.operators"),
    ("repro.optim.base", "GenomeOptimizer", "uniform_crossover",
     "optim.operators"),
    ("repro.optim.base", "GenomeOptimizer", "resample_mutation",
     "optim.operators"),
    ("repro.optim.base", "GenomeOptimizer", "evaluate_batch",
     "optim.evaluate_batch"),
    ("repro.ga.local_ga", "LocalGA", "search", "ga.local_ga"),
    ("repro.service.server", "SearchServer", "submit", "service.submit"),
    ("repro.service.store", "ResultStore", "get", "service.store_get"),
    ("repro.service.store", "ResultStore", "put", "service.store_put"),
    # The transports; the fault-tolerance wrapper nests one of them under
    # the same span name, so each batch is counted once.
    ("repro.parallel.backend", "SerialBackend", "evaluate",
     "parallel.dispatch"),
    ("repro.parallel.backend", "ThreadBackend", "evaluate",
     "parallel.dispatch"),
    ("repro.parallel.backend", "ProcessBackend", "evaluate",
     "parallel.dispatch"),
    ("repro.parallel.backend", "ResilientBackend", "evaluate",
     "parallel.dispatch"),
    ("repro.parallel.distributed", "DistributedBackend", "evaluate",
     "parallel.dispatch"),
]


class Tracer:
    """Span totals per name, aggregated across threads.

    ``install()`` wraps every point in :data:`POINTS`; ``restore()`` (or
    leaving the ``with`` block) puts the original functions back.
    """

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: List[Tuple[type, str, Callable]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, owner: type, attr: str, name: str,
              count: Optional[Callable] = None,
              before: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if any(frame[0] == name for frame in stack):
                return original(*args, **kwargs)
            snapshot = before(args) if before is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with tracer._lock:
                    tracer.total[name] += elapsed
                    tracer.self_time[name] += elapsed - frame[1]
                    tracer.calls[name] += 1
            if count is not None:
                increments = count(args, result, snapshot)
                with tracer._lock:
                    for key, value in increments.items():
                        tracer.counts[key] += value
            return result

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def install(self) -> "Tracer":
        if self._originals:
            raise RuntimeError("tracer already installed")
        for point in POINTS:
            module, cls, attr, name = point[:4]
            owner = getattr(importlib.import_module(module), cls)
            self._wrap(owner, attr, name, *point[4:])
        return self

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *_exc) -> None:
        self.restore()
