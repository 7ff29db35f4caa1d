"""The workloads: closed-loop searches and an in-process service sweep.

Every workload turns the workload seed into search seeds, runs real
searches through the public API (``repro.SearchSession`` or
``repro.service.SearchServer``), checks each result, and returns a
:class:`Report`.  A failed search or check is counted, never raised.
"""

from __future__ import annotations

import math
import resource
import statistics
import tempfile
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

import repro
from repro.costmodel import CostModel
from repro.service import ResultStore, SearchServer

from layers import per_layer_values
from spans import Tracer

#: Seconds one service submission may take before it counts as failed.
JOB_TIMEOUT_S = 120.0
#: Seconds of repeat lookups timed after each search (search workloads).
#: Sub-millisecond lookups swing with host load from one second to the
#: next; a window per search samples that load at several moments.
HIT_PROBE_S = 0.05


@dataclass(frozen=True)
class SearchWorkload:
    """One search at a time in one process (a closed loop of one client).

    ``seeds`` distinct search seeds are drawn from the workload seed; a run
    cycles through them until its time is up, so ``best_cost`` (their
    geometric mean) is fixed by the workload seed while the timings pool
    every search the run made.  A traced run makes ``trace_pairs`` pairs
    of one untraced and one traced search on the same seed.
    """

    name: str
    spec: dict
    seeds: int
    trace_pairs: int
    warmup_budget: int

    def specs(self, seed: int) -> List["repro.SearchSpec"]:
        return [repro.SearchSpec(seed=s, **self.spec)
                for s in derive_seeds(seed, self.seeds)]

    def warmup_spec(self) -> "repro.SearchSpec":
        return repro.SearchSpec(seed=0, **{**self.spec,
                                           "budget": self.warmup_budget})


@dataclass(frozen=True)
class ServiceWorkload:
    """An in-process ``SearchServer`` fed by ``clients`` closed-loop client
    threads.  One sweep submits every spec, then the same specs again in
    reverse order, so the second round is answered from the store or by
    joining the still-running first-round job (single-flight)."""

    name: str
    methods: Sequence[str]
    models: Sequence[str]
    seeds_per_spec: int
    spec: dict
    clients: int
    max_concurrent: int
    executor: str
    workers: int
    trace_pairs: int
    warmup_spec_kwargs: dict

    def specs(self, seed: int) -> List["repro.SearchSpec"]:
        seeds = derive_seeds(seed, self.seeds_per_spec)
        return [repro.SearchSpec(method=method, model=model, seed=s,
                                 **self.spec)
                for method in self.methods for model in self.models
                for s in seeds]

    def warmup_spec(self) -> "repro.SearchSpec":
        return repro.SearchSpec(**self.warmup_spec_kwargs)

    def make_server(self, root: str) -> SearchServer:
        return SearchServer(store=ResultStore(root=root),
                            max_concurrent=self.max_concurrent,
                            executor=self.executor, workers=self.workers)


_MBV2_IOT = dict(model="mobilenet_v2", objective="latency",
                 constraint_kind="area", platform="iot", dataflow="dla",
                 deployment="lp", executor="serial")

#: conx-mbv2 fine-tunes for 100 generations, not the default budget // 4:
#: that halves the across-seed spread of its best cost.  service-sweep
#: runs one pool worker, so with the benchmark process it keeps no more
#: processes busy than the two CPUs it was sized on.
WORKLOADS: Dict[str, object] = {
    "conx-mbv2": SearchWorkload(
        "conx-mbv2", dict(method="confuciux", budget=100, finetune=100,
                          **_MBV2_IOT),
        seeds=5, trace_pairs=2, warmup_budget=4),
    "rl8-mbv2": SearchWorkload(
        "rl8-mbv2", dict(method="reinforce", budget=160, envs=8,
                         **_MBV2_IOT),
        seeds=12, trace_pairs=3, warmup_budget=16),
    "service-sweep": ServiceWorkload(
        "service-sweep", methods=("grid", "ga", "local-ga"),
        models=("mobilenet_v2", "resnet50"), seeds_per_spec=2,
        spec=dict(objective="latency", constraint_kind="area",
                  platform="cloud", dataflow="dla", budget=1000),
        clients=2, max_concurrent=2, executor="process", workers=1,
        trace_pairs=2,
        warmup_spec_kwargs=dict(model="resnet50", method="ga",
                                platform="cloud", dataflow="dla",
                                budget=300, seed=0)),
}


def derive_seeds(seed: int, count: int) -> List[int]:
    """Search seeds for one workload seed (same seed, same search seeds)."""
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(s) for s in state]


# ----------------------------------------------------------------------
@dataclass
class Report:
    """What one run measured: metric values, sample counts, failures."""

    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = samples


def reference_cost(spec, assignments):
    """Score ``assignments`` through the scalar evaluator of a fresh cost
    model: the ground truth every search result is checked against."""
    task = spec.task()
    cost_model = CostModel()
    evaluator = task.make_evaluator(cost_model, task.constraint(cost_model))
    outcome = evaluator.evaluate_raw(list(assignments))
    return outcome.cost, outcome.feasible


def check_result(report: Report, spec, result, label: str) -> bool:
    """The correctness gate for one search result; counts a mismatch."""
    if result.best_assignments is None or result.best_cost is None:
        report.fail(f"{label}: no feasible design returned")
        return False
    cost, feasible = reference_cost(spec, result.best_assignments)
    if not feasible or cost != result.best_cost:
        report.fail(f"{label}: re-evaluated cost {cost!r} (feasible "
                    f"{feasible}) != best_cost {result.best_cost!r}")
        return False
    return True


def percentile(values: Sequence[float], fraction: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
def _timed_search(spec):
    session = repro.SearchSession(spec)
    start = time.perf_counter()
    result = session.run()
    return time.perf_counter() - start, result


def _hit_probes(report: Report, store: ResultStore, spec, result,
                label: str) -> List[float]:
    """Store the result, then time repeat lookups of the same spec."""
    store.put(spec, result)
    cached = store.get(spec)
    if cached is None or cached.to_json() != result.to_json():
        report.fail(f"{label}: stored result does not read back "
                    f"bit-identical")
        return []
    latencies = []
    deadline = time.perf_counter() + HIT_PROBE_S
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        store.get(spec)
        latencies.append(time.perf_counter() - start)
    return latencies


def run_search(workload: SearchWorkload, seed: int, seconds: float,
               trace: bool, workdir: str) -> Report:
    report = Report()
    specs = workload.specs(seed)
    first_cost: Dict[int, float] = {}
    durations: List[float] = []
    hits: List[float] = []
    store = ResultStore(root=tempfile.mkdtemp(dir=workdir))
    _timed_search(workload.warmup_spec())

    def one(index: int, tracer: Optional[Tracer] = None):
        spec = specs[index % len(specs)]
        label = f"search seed {spec.seed}"
        report.attempted += 1
        try:
            if tracer is not None:
                tracer.install()
            try:
                duration, result = _timed_search(spec)
            finally:
                if tracer is not None:
                    tracer.restore()
            probes = _hit_probes(report, store, spec, result, label)
        except Exception:  # noqa: BLE001 - a crash is a counted failure
            report.fail(f"{label}: {traceback.format_exc()}")
            return None
        check_result(report, spec, result, label)
        previous = first_cost.setdefault(spec.seed, result.best_cost)
        if result.best_cost != previous:
            report.fail(f"{label}: best_cost {result.best_cost!r} differs "
                        f"from {previous!r} at the same seed")
        return duration, probes

    if trace:
        tracer = Tracer()
        untraced, traced = [], []
        for pair in range(workload.trace_pairs):
            plain = one(pair)
            probed = one(pair, tracer)
            if plain is not None and probed is not None:
                untraced.append(plain[0])
                traced.append(probed[0])
                hits.extend(plain[1])
        extra = {"trace_overhead_x":
                 sum(traced) / sum(untraced) if untraced else 0.0,
                 "service.hit_ms_p50":
                 1000.0 * statistics.median(hits) if hits else 0.0}
        report.metrics.update(per_layer_values(
            tracer, extra, max(1, len(traced))))
        report.samples.update({name: len(traced)
                               for name in report.metrics})
        return report

    start = time.perf_counter()
    index = 0
    while index < len(specs) or time.perf_counter() - start < seconds:
        outcome = one(index)
        index += 1
        if outcome is not None:
            durations.append(outcome[0])
            hits.extend(outcome[1])
    elapsed = time.perf_counter() - start
    costs = [cost for cost in first_cost.values() if cost is not None]
    if len(costs) < len(specs):
        report.fail("not every search seed produced a design")
        return report
    report.put("search_s", statistics.median(durations), len(durations))
    report.put("best_cost", geomean(costs), len(costs))
    report.put("jobs_per_s", len(durations) / elapsed, len(durations))
    report.put("job_s_p50", statistics.median(durations), len(durations))
    report.put("job_s_p90", percentile(durations, 0.9), len(durations))
    report.put("hit_ms_p50", 1000.0 * statistics.median(hits), len(hits))
    return report


# ----------------------------------------------------------------------
@dataclass
class _Submission:
    index: int
    round: int
    latency: float
    job: object


def _sweep(workload: ServiceWorkload, server: SearchServer,
           specs: List, report: Report) -> Dict[str, object]:
    """Submit every spec twice from ``clients`` closed-loop threads."""
    server.store.clear()
    order = deque([(i, 1) for i in range(len(specs))]
                  + [(i, 2) for i in reversed(range(len(specs)))])
    lock = threading.Lock()
    done: List[_Submission] = []
    errors: List[str] = []

    def client() -> None:
        while True:
            with lock:
                if not order:
                    return
                index, round_ = order.popleft()
            start = time.perf_counter()
            try:
                job = server.submit(specs[index]).wait(JOB_TIMEOUT_S)
            except Exception:  # noqa: BLE001 - counted, never raised
                with lock:
                    errors.append(traceback.format_exc())
                continue
            latency = time.perf_counter() - start
            with lock:
                done.append(_Submission(index, round_, latency, job))

    executions_before = server.executions
    start = time.perf_counter()
    threads = [threading.Thread(target=client)
               for _ in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    report.attempted += 2 * len(specs)
    for error in errors:
        report.fail(f"submission raised: {error}")

    first = {s.index: s for s in done if s.round == 1}
    job_latencies, hit_latencies, queue_waits = [], [], []
    hits = singleflight = 0
    for submission in done:
        job = submission.job
        spec = specs[submission.index]
        label = f"{spec.method}/{spec.model}/seed {spec.seed} " \
                f"round {submission.round}"
        if job.state != "DONE" or job.result is None:
            report.fail(f"{label}: job {job.state}: {job.error}")
            continue
        leader = first.get(submission.index)
        if submission.round == 2:
            if job.cached:
                hits += 1
                hit_latencies.append(submission.latency)
            elif leader is not None and job is leader.job:
                singleflight += 1
                hit_latencies.append(submission.latency)
            if leader is None or leader.job.result is None or \
                    job.result.to_json() != leader.job.result.to_json():
                report.fail(f"{label}: result differs from round 1")
            continue
        job_latencies.append(submission.latency)
        queue_waits.append(job.started_at - job.created_at)
        check_result(report, spec, job.result, label)
    submissions = len(done)
    stats = [s.job.result.provenance.get("execution", {})
             for s in done if s.job.result is not None]
    return {
        "wall": wall,
        "completed": submissions,
        "job_latencies": job_latencies,
        "hit_latencies": hit_latencies,
        "costs": {i: s.job.result.best_cost for i, s in first.items()
                  if s.job.result is not None},
        "extra": {
            "service.submissions": submissions,
            "service.queue_wait_s": sum(queue_waits),
            "service.cache_hit_frac": hits / max(1, submissions),
            "service.singleflight_frac": singleflight / max(1, submissions),
            "service.executions": server.executions - executions_before,
            **{f"parallel.{key}": max((s.get(key, 0) for s in stats),
                                      default=0)
               for key in ("sharded_batches", "inline_batches", "retries",
                           "respawns")},
        },
    }


def run_service(workload: ServiceWorkload, seed: int, seconds: float,
                trace: bool, workdir: str) -> Report:
    report = Report()
    specs = workload.specs(seed)
    server = workload.make_server(tempfile.mkdtemp(dir=workdir))
    try:
        server.submit(workload.warmup_spec()).wait(JOB_TIMEOUT_S)
        baseline = {}  # pool counters are cumulative; report deltas
        first_costs: Optional[Dict[int, float]] = None

        def sweep(tracer: Optional[Tracer] = None):
            nonlocal first_costs
            if tracer is not None:
                tracer.install()
            try:
                outcome = _sweep(workload, server, specs, report)
            finally:
                if tracer is not None:
                    tracer.restore()
            extra = outcome["extra"]
            for key in [k for k in extra if k.startswith("parallel.")]:
                value = extra[key]
                extra[key] = value - baseline.get(key, 0)
                baseline[key] = max(value, baseline.get(key, 0))
            if first_costs is None:
                first_costs = outcome["costs"]
            elif outcome["costs"] != first_costs:
                report.fail("best costs differ between sweeps at one seed")
            return outcome

        if trace:
            tracer = Tracer()
            untraced, traced, hit_latencies = [], [], []
            extra: Dict[str, float] = {}
            for _ in range(workload.trace_pairs):
                outcome = sweep()
                untraced.append(outcome["wall"])
                hit_latencies.extend(outcome["hit_latencies"])
                outcome = sweep(tracer)
                traced.append(outcome["wall"])
                for key, value in outcome["extra"].items():
                    extra[key] = extra.get(key, 0.0) + value
            pairs = workload.trace_pairs
            for key in ("service.cache_hit_frac",
                        "service.singleflight_frac"):
                extra[key] /= pairs
            extra["trace_overhead_x"] = sum(traced) / sum(untraced)
            extra["service.hit_ms_p50"] = 1000.0 * statistics.median(
                hit_latencies) if hit_latencies else 0.0
            report.metrics.update(per_layer_values(tracer, extra, pairs))
            report.samples.update({name: pairs for name in report.metrics})
            return report

        walls, completed, job_latencies, hit_latencies = [], 0, [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            outcome = sweep()
            walls.append(outcome["wall"])
            completed += outcome["completed"]
            job_latencies.extend(outcome["job_latencies"])
            hit_latencies.extend(outcome["hit_latencies"])
    finally:
        server.close(timeout=JOB_TIMEOUT_S)
    costs = [cost for cost in (first_costs or {}).values()
             if cost is not None]
    if len(costs) < len(specs) or not job_latencies or not hit_latencies:
        report.fail("the sweep produced no complete set of results")
        return report
    report.put("search_s", statistics.median(walls), len(walls))
    report.put("best_cost", geomean(costs), len(costs))
    report.put("jobs_per_s", completed / sum(walls), completed)
    report.put("job_s_p50", statistics.median(job_latencies),
               len(job_latencies))
    report.put("job_s_p90", percentile(job_latencies, 0.9),
               len(job_latencies))
    report.put("hit_ms_p50", 1000.0 * statistics.median(hit_latencies),
               len(hit_latencies))
    return report


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 workdir: str) -> Report:
    runner = run_service if isinstance(workload, ServiceWorkload) \
        else run_search
    report = runner(workload, seed, seconds, trace, workdir)
    if not trace:
        report.put("peak_rss_mb", peak_rss_mb())
        report.put("ok_frac",
                   1.0 - report.failed / max(1, report.attempted),
                   report.attempted)
    return report
