"""The per-layer metrics of a traced run and the end-to-end metric each
should move.

Every entry names how the value is derived from a :class:`Tracer` (or from
figures the workload collects itself), the end-to-end metric and workloads
a change to that layer should move, and the workloads on which it should
stay flat.  Values are per traced search (per traced sweep on
``service-sweep``).  ``BENCHMARK.json`` lists the same names and units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

RL = "conx-mbv2, rl8-mbv2"
ALL_BUT_RL = "service-sweep"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    value: Callable  # (tracer, extra) -> float, totals over the traced run
    moves: str
    flat_on: str


def _total(span):
    return lambda tracer, extra: tracer.total.get(span, 0.0)


def _self(span):
    return lambda tracer, extra: tracer.self_time.get(span, 0.0)


def _calls(span):
    return lambda tracer, extra: float(tracer.calls.get(span, 0))


def _count(key):
    return lambda tracer, extra: float(tracer.counts.get(key, 0.0))


def _extra(key):
    return lambda tracer, extra: float(extra.get(key, 0.0))


def _ratio(num, den):
    def value(tracer, extra):
        base = den(tracer, extra)
        return num(tracer, extra) / base if base else 0.0
    return value


PER_LAYER = [
    LayerMetric("rl.rollout_s", "s", "lower", _total("rl.rollout"),
                f"search_s on {RL}", ALL_BUT_RL),
    LayerMetric("rl.policy_forward_s", "s", "lower",
                _total("rl.policy_forward"), f"search_s on {RL}",
                ALL_BUT_RL),
    LayerMetric("rl.policy_forward_calls", "count", "lower",
                _calls("rl.policy_forward"), f"search_s on {RL}",
                ALL_BUT_RL),
    LayerMetric("nn.categorical_s", "s", "lower", _total("nn.categorical"),
                f"search_s on {RL}", ALL_BUT_RL),
    LayerMetric("rl.update_s", "s", "lower", _total("rl.update"),
                f"search_s on {RL}", ALL_BUT_RL),
    LayerMetric("rl.update_calls", "count", "lower", _calls("rl.update"),
                f"search_s on {RL}", ALL_BUT_RL),
    LayerMetric("nn.backward_s", "s", "lower", _total("nn.backward"),
                f"search_s on {RL}", ALL_BUT_RL),
    LayerMetric("nn.adam_s", "s", "lower", _total("nn.adam"),
                f"search_s on {RL}", ALL_BUT_RL),
    LayerMetric("env.step_s", "s", "lower", _total("env.step"),
                f"search_s on {RL}", ALL_BUT_RL),
    LayerMetric("env.step_calls", "count", "lower", _calls("env.step"),
                f"search_s on {RL}", ALL_BUT_RL),
    LayerMetric("env.wait_s", "s", "lower", _total("env.wait"),
                "search_s on rl8-mbv2", "conx-mbv2, " + ALL_BUT_RL),
    LayerMetric("env.encode_s", "s", "lower", _total("env.encode"),
                f"search_s on {RL}", ALL_BUT_RL),
    LayerMetric("costmodel.kernel_s", "s", "lower",
                _total("costmodel.kernel"),
                "jobs_per_s and job_s_p50 on service-sweep",
                "conx-mbv2 (under 1% of search_s)"),
    LayerMetric("costmodel.rows", "count", "lower",
                _count("costmodel.rows"),
                "jobs_per_s and job_s_p50 on service-sweep",
                "conx-mbv2 (under 1% of search_s)"),
    LayerMetric("costmodel.rows_per_s", "1/s", "higher",
                _ratio(_count("costmodel.rows"),
                       _total("costmodel.kernel")),
                "jobs_per_s and job_s_p50 on service-sweep",
                "conx-mbv2 (under 1% of search_s)"),
    LayerMetric("core.evaluator_s", "s", "lower", _total("core.evaluator"),
                "job_s_p50 on service-sweep",
                RL),
    LayerMetric("core.evaluator_evals", "count", "lower",
                _count("core.evaluator_evals"),
                "job_s_p50 on service-sweep",
                RL),
    LayerMetric("core.evaluator_dedup_frac", "frac", "higher",
                _ratio(_count("core.evaluator_dedup_hits"),
                       _count("core.evaluator_evals")),
                "job_s_p50 on service-sweep",
                RL),
    LayerMetric("core.evaluator_feasible_frac", "frac", "higher",
                _ratio(_count("core.evaluator_feasible"),
                       _count("core.evaluator_evals")),
                "best_cost on service-sweep", RL),
    LayerMetric("optim.operators_s", "s", "lower",
                _total("optim.operators"), "job_s_p50 on service-sweep",
                "conx-mbv2, rl8-mbv2"),
    LayerMetric("optim.bookkeeping_s", "s", "lower",
                _self("optim.evaluate_batch"), "job_s_p50 on service-sweep",
                "conx-mbv2, rl8-mbv2"),
    LayerMetric("ga.local_ga_s", "s", "lower", _self("ga.local_ga"),
                "job_s_p50 on service-sweep, search_s on conx-mbv2 (~1%)",
                "rl8-mbv2"),
    LayerMetric("parallel.dispatch_s", "s", "lower",
                _total("parallel.dispatch"),
                "jobs_per_s and job_s_p50 on service-sweep",
                "conx-mbv2, rl8-mbv2 (serial, no calls)"),
    LayerMetric("parallel.dispatch_calls", "count", "lower",
                _calls("parallel.dispatch"),
                "jobs_per_s and job_s_p50 on service-sweep",
                "conx-mbv2, rl8-mbv2 (serial, no calls)"),
    LayerMetric("parallel.sharded_batches", "count", "lower",
                _extra("parallel.sharded_batches"),
                "jobs_per_s and job_s_p50 on service-sweep",
                "conx-mbv2, rl8-mbv2 (serial, no calls)"),
    LayerMetric("parallel.inline_batches", "count", "lower",
                _extra("parallel.inline_batches"),
                "jobs_per_s and job_s_p50 on service-sweep",
                "conx-mbv2, rl8-mbv2 (serial, no calls)"),
    LayerMetric("parallel.retries", "count", "lower",
                _extra("parallel.retries"),
                "jobs_per_s and job_s_p50 on service-sweep",
                "conx-mbv2, rl8-mbv2 (serial, no calls)"),
    LayerMetric("parallel.respawns", "count", "lower",
                _extra("parallel.respawns"),
                "jobs_per_s and job_s_p50 on service-sweep",
                "conx-mbv2, rl8-mbv2 (serial, no calls)"),
    LayerMetric("service.submissions", "count", "higher",
                _extra("service.submissions"),
                "base of the service fractions", "search workloads (zero)"),
    LayerMetric("service.submit_s", "s", "lower", _total("service.submit"),
                "service.hit_ms_p50 and jobs_per_s on service-sweep",
                "search workloads (zero)"),
    LayerMetric("service.queue_wait_s", "s", "lower",
                _extra("service.queue_wait_s"),
                "job_s_p50 and jobs_per_s on service-sweep",
                "search workloads (zero)"),
    LayerMetric("service.store_get_s", "s", "lower",
                _total("service.store_get"),
                "service.hit_ms_p50 on service-sweep",
                "search workloads (zero)"),
    LayerMetric("service.store_put_s", "s", "lower",
                _total("service.store_put"),
                "jobs_per_s on service-sweep", "search workloads (zero)"),
    LayerMetric("service.hit_ms_p50", "ms", "lower",
                _extra("service.hit_ms_p50"),
                "nothing gated: sub-millisecond, it follows host load",
                "search_s on every workload"),
    LayerMetric("service.cache_hit_frac", "frac", "higher",
                _extra("service.cache_hit_frac"),
                "service.hit_ms_p50 and jobs_per_s on service-sweep",
                "search workloads (zero)"),
    LayerMetric("service.singleflight_frac", "frac", "higher",
                _extra("service.singleflight_frac"),
                "service.hit_ms_p50 and jobs_per_s on service-sweep",
                "search workloads (zero)"),
    LayerMetric("service.executions", "count", "lower",
                _extra("service.executions"),
                "jobs_per_s on service-sweep", "search workloads (zero)"),
    LayerMetric("search.unattributed_s", "s", "lower", _self("search.run"),
                "search_s on every workload", "none"),
    LayerMetric("trace_overhead_x", "x", "lower",
                _extra("trace_overhead_x"),
                "nothing: traced search_s over untraced search_s", "all"),
]


def per_layer_values(tracer, extra: Dict[str, float],
                     units: int) -> Dict[str, float]:
    """Every per-layer metric, per traced search (or sweep).

    ``extra`` carries the figures the workload collects itself (pool
    counters from provenance, service fractions, hit latency, tracing
    overhead).  Seconds and counts are totals, divided by ``units`` like
    the tracer's; the other units are already per unit.
    """
    values = {}
    for metric in PER_LAYER:
        value = metric.value(tracer, extra)
        if metric.unit in ("s", "count"):
            value /= units
        values[metric.name] = value
    return values
