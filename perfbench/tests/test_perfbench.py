"""Tests of the benchmark itself, on shrunken copies of its workloads.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import repro  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from spans import POINTS, Tracer  # noqa: E402

TINY = {"layer_slice": 6}


def tiny(name: str):
    """The named workload shrunk to a few seconds: six layers, one seed,
    one traced pair, small budgets."""
    workload = workloads.WORKLOADS[name]
    if isinstance(workload, workloads.ServiceWorkload):
        return replace(workload, spec={**workload.spec, **TINY,
                                       "budget": 200},
                       trace_pairs=1,
                       warmup_spec_kwargs={**workload.warmup_spec_kwargs,
                                           **TINY})
    budget = {"confuciux": 4, "reinforce": 16}
    spec = workload.spec
    return replace(workload,
                   spec={**spec, **TINY, "budget": budget[spec["method"]]},
                   seeds=1, trace_pairs=1)


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    for name in list(workloads.WORKLOADS):
        monkeypatch.setitem(workloads.WORKLOADS, name, tiny(name))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    return workloads.WORKLOADS


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in PER_LAYER]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tiny_workloads,
                                               capsys):
    assert run.run_one(name, seed=3, seconds=0.0, trace=trace) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = ({m.name: m.unit for m in PER_LAYER} if trace
                else run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    record = json.loads(lines[-2])["record"]
    assert record["provenance"]["seed"] == 3
    assert record["provenance"]["started_at"]
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in expected)


def test_tracer_leaves_results_unchanged_and_restores_methods():
    spec = repro.SearchSpec(model="mobilenet_v2", method="confuciux",
                            budget=6, seed=5, layer_slice=8,
                            executor="serial")
    originals = [
        getattr(__import__(module, fromlist=[cls]), cls).__dict__[attr]
        for module, cls, attr, *_ in POINTS]
    plain = repro.SearchSession(spec).run()
    tracer = Tracer()
    with tracer:
        traced = repro.SearchSession(spec).run()
    restored = [
        getattr(__import__(module, fromlist=[cls]), cls).__dict__[attr]
        for module, cls, attr, *_ in POINTS]
    assert all(a is b for a, b in zip(originals, restored))
    assert traced.best_cost == plain.best_cost
    assert traced.best_assignments == plain.best_assignments
    assert traced.history == plain.history
    assert tracer.calls["rl.policy_forward"] > 0
    assert tracer.calls["ga.local_ga"] == 1


def test_injected_mismatch_counts_as_failure(tiny_workloads, monkeypatch):
    real = workloads.reference_cost

    def off_by_one(spec, assignments):
        cost, feasible = real(spec, assignments)
        return cost + 1.0, feasible

    monkeypatch.setattr(workloads, "reference_cost", off_by_one)
    report = workloads.run_workload(tiny_workloads["conx-mbv2"],
                                    seed=3, seconds=0.0, trace=False,
                                    workdir=str(run.WORKDIR))
    assert report.failed == report.attempted == 1
    assert report.metrics["ok_frac"] == 0.0
    assert "search_s" in report.metrics


_LEAVES_CHILDREN = """
import json, multiprocessing, sys, time
from multiprocessing import resource_tracker, shared_memory
sys.path.insert(0, sys.argv[1])
import run
segment = shared_memory.SharedMemory(create=True, size=64)
segment.close()
segment.unlink()
worker = multiprocessing.get_context("fork").Process(
    target=time.sleep, args=(60,), daemon=True)
worker.start()
pids = [worker.pid, resource_tracker._resource_tracker._pid]
run.stop_children()
print(json.dumps(pids))
"""


def test_stop_children_leaves_no_process_running():
    """A pool worker and the shared-memory resource tracker are both
    stopped and reaped before the benchmark process exits."""
    done = subprocess.run([sys.executable, "-c", _LEAVES_CHILDREN,
                           str(BENCH)], capture_output=True, text=True,
                          timeout=60, check=True)
    pids = json.loads(done.stdout.strip().splitlines()[-1])
    assert all(isinstance(pid, int) for pid in pids)
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
