"""Tests for profile-guided adaptive execution (:mod:`repro.parallel.tuning`).

The adaptive layer may only ever move *where* and *in what size chunks*
a batch is evaluated -- shard boundaries and inline-vs-shard routing.
This file locks both halves of that contract: the planning math itself
(unit + property tests over :class:`ThroughputModel` /
:class:`ShardPlanner` / :class:`BreakEvenCalibrator`), and the
end-to-end guarantee that search results are bit-identical with
autotuning on or off across every executor -- including a distributed
run that loses a node mid-batch and a straggler scenario where the plan
visibly shifts rows off the slow worker.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialization import search_result_to_dict
from repro.costmodel.batched import LayerTable
from repro.costmodel.constants import DEFAULT_HW
from repro.models import get_model
from repro.parallel import (
    FaultPlan,
    ParallelCoordinator,
    ProcessBackend,
    ShardPlanner,
    ThroughputModel,
    TuningState,
    default_autotune,
    shard_bounds,
)
from repro.parallel.backend import TRANSPORT_MIN_BATCH
from repro.parallel.tuning import AUTOTUNE_ENV, BreakEvenCalibrator
from repro.search import SearchSession, SearchSpec


# ----------------------------------------------------------------------
# ThroughputModel
# ----------------------------------------------------------------------
class TestThroughputModel:
    def test_first_observation_sets_rate_exactly(self):
        model = ThroughputModel()
        model.observe("process", 0, rows=500, elapsed_s=0.25)
        assert model.rate("process", 0) == pytest.approx(2000.0)
        assert model.observations("process", 0) == 1

    def test_ewma_blends_toward_new_rate(self):
        model = ThroughputModel(alpha=0.5)
        model.observe("process", 0, rows=100, elapsed_s=1.0)   # 100 r/s
        model.observe("process", 0, rows=300, elapsed_s=1.0)   # 300 r/s
        assert model.rate("process", 0) == pytest.approx(200.0)

    def test_keys_are_independent_per_transport_and_slot(self):
        model = ThroughputModel()
        model.observe("process", 0, 100, 1.0)
        model.observe("distributed", 0, 400, 1.0)
        assert model.rate("process", 0) == pytest.approx(100.0)
        assert model.rate("distributed", 0) == pytest.approx(400.0)
        assert model.rate("process", 1) is None

    def test_degenerate_observations_ignored(self):
        model = ThroughputModel()
        model.observe("process", 0, rows=0, elapsed_s=1.0)
        model.observe("process", 0, rows=10, elapsed_s=0.0)
        model.observe("process", 0, rows=-5, elapsed_s=1.0)
        assert model.rate("process", 0) is None
        assert model.observations("process", 0) == 0

    def test_snapshot_shape(self):
        model = ThroughputModel()
        model.observe("thread", 2, 100, 1.0)
        snap = model.snapshot()
        assert snap == {"thread": {"2": pytest.approx(100.0)}}

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            ThroughputModel(alpha=0.0)
        with pytest.raises(ValueError):
            ThroughputModel(alpha=1.5)


# ----------------------------------------------------------------------
# ShardPlanner
# ----------------------------------------------------------------------
def _rates(planner: ShardPlanner, transport, mapping):
    for key, rate in mapping.items():
        # One observation seeds the EWMA at exactly `rate` rows/sec.
        planner.throughput.observe(transport, key, int(rate), 1.0)


class TestShardPlanner:
    def test_proportional_split_known_case(self):
        planner = ShardPlanner(ThroughputModel())
        _rates(planner, "process", {0: 1000, 1: 250})
        bounds, owners = planner.plan(100, "process", [0, 1],
                                      chunks_per_key=2)
        assert bounds == [(0, 40), (40, 80), (80, 90), (90, 100)]
        assert owners == [0, 0, 1, 1]

    def test_fallback_without_rates_is_static_round_robin(self):
        planner = ShardPlanner(ThroughputModel())
        bounds, owners = planner.plan(100, "process", [0, 1, 2])
        assert bounds == shard_bounds(100, 3)
        assert owners == [0, 1, 2]

    def test_fallback_when_any_key_unmeasured(self):
        planner = ShardPlanner(ThroughputModel())
        _rates(planner, "process", {0: 1000})  # key 1 has no sample
        bounds, owners = planner.plan(100, "process", [0, 1])
        assert bounds == shard_bounds(100, 2)
        assert owners == [0, 1]

    def test_fallback_for_tiny_batches_and_single_key(self):
        planner = ShardPlanner(ThroughputModel())
        _rates(planner, "process", {0: 1000, 1: 250})
        assert planner.plan(1, "process", [0, 1]) == (
            shard_bounds(1, 2), [0])
        assert planner.plan(100, "process", [0]) == (
            shard_bounds(100, 1), [0])

    def test_plan_validates_inputs(self):
        planner = ShardPlanner(ThroughputModel())
        with pytest.raises(ValueError):
            planner.plan(0, "process", [0, 1])
        with pytest.raises(ValueError):
            planner.plan(10, "process", [])

    @given(
        batch=st.integers(min_value=1, max_value=5000),
        rates=st.lists(st.floats(min_value=0.1, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=8),
        chunks=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_plans_always_partition_the_batch_exactly(self, batch, rates,
                                                      chunks):
        """Whatever the rates, the plan is a contiguous, in-order, exact
        partition of [0, batch) and every owner is a real key."""
        planner = ShardPlanner(ThroughputModel())
        keys = list(range(len(rates)))
        for key, rate in zip(keys, rates):
            planner.throughput.observe("process", key, 10 ** 6,
                                       10 ** 6 / rate)
        bounds, owners = planner.plan(batch, "process", keys,
                                      chunks_per_key=chunks)
        assert len(bounds) == len(owners)
        assert bounds[0][0] == 0 and bounds[-1][1] == batch
        for (lo, hi), (nlo, _nhi) in zip(bounds, bounds[1:]):
            assert hi == nlo
        assert all(lo < hi for lo, hi in bounds)
        assert set(owners) <= set(keys)

    @given(
        batch=st.integers(min_value=1, max_value=2000),
        n_keys=st.integers(min_value=1, max_value=6),
        chunks=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_unmeasured_plan_equals_static_round_robin(self, batch,
                                                       n_keys, chunks):
        """With no measurements the planner IS the old static schedule."""
        planner = ShardPlanner(ThroughputModel())
        keys = list(range(n_keys))
        bounds, owners = planner.plan(batch, "process", keys,
                                      chunks_per_key=chunks)
        expected = shard_bounds(batch, n_keys * chunks)
        assert bounds == expected
        assert owners == [keys[i % n_keys] for i in range(len(expected))]

    def test_faster_key_gets_more_rows(self):
        planner = ShardPlanner(ThroughputModel())
        _rates(planner, "process", {0: 900, 1: 100})
        bounds, owners = planner.plan(1000, "process", [0, 1])
        rows = {key: 0 for key in (0, 1)}
        for (lo, hi), owner in zip(bounds, owners):
            rows[owner] += hi - lo
        assert rows[0] == 900 and rows[1] == 100


# ----------------------------------------------------------------------
# BreakEvenCalibrator
# ----------------------------------------------------------------------
class TestBreakEvenCalibrator:
    def test_probes_alternate_inline_then_sharded(self):
        calibrator = BreakEvenCalibrator(probes=4)
        routes = [calibrator.route_inline("process", 512, 256)
                  for _ in range(4)]
        assert routes == [True, False, True, False]

    def test_freezes_at_smallest_batch_sharding_won(self):
        calibrator = BreakEvenCalibrator(probes=2)
        calibrator.observe("process", inline=True, batch=512,
                           elapsed_s=0.2)
        calibrator.observe("process", inline=False, batch=512,
                           elapsed_s=0.1)
        calibrator.route_inline("process", 512, 256)
        calibrator.route_inline("process", 512, 256)
        assert calibrator.route_inline("process", 512, 256) is False
        assert calibrator.threshold("process") == 512
        # Frozen: smaller batches inline, the crossover and up shard.
        assert calibrator.route_inline("process", 511, 256) is True

    def test_freezes_at_twice_largest_inline_win(self):
        calibrator = BreakEvenCalibrator(probes=2)
        calibrator.observe("process", inline=True, batch=300,
                           elapsed_s=0.1)
        calibrator.observe("process", inline=False, batch=300,
                           elapsed_s=0.5)
        calibrator.route_inline("process", 300, 256)
        calibrator.route_inline("process", 300, 256)
        calibrator.route_inline("process", 300, 256)
        assert calibrator.threshold("process") == 600

    def test_freezes_at_static_default_without_evidence(self):
        calibrator = BreakEvenCalibrator(probes=1)
        calibrator.route_inline("process", 10, 256)
        calibrator.route_inline("process", 10, 256)
        assert calibrator.threshold("process") == 256

    def test_transports_calibrate_independently(self):
        calibrator = BreakEvenCalibrator(probes=1)
        calibrator.route_inline("thread", 10, 128)
        assert calibrator.threshold("process") is None

    def test_snapshot_shape(self):
        calibrator = BreakEvenCalibrator(probes=3)
        calibrator.route_inline("process", 64, 256)
        snap = calibrator.snapshot()
        assert snap["process"]["probes"] == 1
        assert snap["process"]["threshold"] is None


# ----------------------------------------------------------------------
# TuningState
# ----------------------------------------------------------------------
class TestTuningState:
    def test_env_default(self, monkeypatch):
        monkeypatch.delenv(AUTOTUNE_ENV, raising=False)
        assert default_autotune() is False
        monkeypatch.setenv(AUTOTUNE_ENV, "1")
        assert default_autotune() is True
        monkeypatch.setenv(AUTOTUNE_ENV, "off")
        assert default_autotune() is False

    def test_static_routing_when_auto_dispatch_off(self):
        tuner = TuningState(plan_shards=True, auto_dispatch=False)
        assert tuner.route_inline("process", 100, 256) is True
        assert tuner.route_inline("process", 300, 256) is False
        assert tuner.calibrator.snapshot() == {}

    def test_plan_counts_adaptive_plans(self):
        tuner = TuningState()
        tuner.plan(100, "process", [0, 1])          # uniform (no rates)
        tuner.observe("process", 0, 1000, 1.0)
        tuner.observe("process", 1, 250, 1.0)
        bounds, owners = tuner.plan(100, "process", [0, 1])
        assert bounds == [(0, 80), (80, 100)]
        snap = tuner.snapshot()
        assert snap["planned_batches"] == 2
        assert snap["adaptive_plans"] == 1
        assert snap["plan"]["adaptive"] is True
        assert snap["plan"]["shard_rows"] == [80, 20]
        assert snap["plan"]["owners"] == ["0", "1"]

    def test_snapshot_is_json_ready(self):
        import json

        tuner = TuningState(auto_dispatch=True)
        tuner.observe("thread", 0, 10, 0.5)
        tuner.route_inline("thread", 64, 128)
        json.dumps(tuner.snapshot())


# ----------------------------------------------------------------------
# End-to-end: autotune on/off bit-parity
# ----------------------------------------------------------------------
def _comparable(outcome) -> dict:
    data = search_result_to_dict(outcome.result)
    data.pop("wall_time_s", None)
    return data


def _spec(method: str, executor: str, **overrides) -> SearchSpec:
    base = dict(model="mobilenet_v2", method=method, budget=24, seed=11,
                layer_slice=4, executor=executor, workers=2,
                nodes=2 if executor == "distributed" else None,
                dispatch_min_batch=0)
    base.update(overrides)
    return SearchSpec(**base)


PARITY_MATRIX = [("ga", "thread"), ("ga", "process"),
                 ("reinforce", "process"), ("ga", "distributed")]


class TestAutotuneParity:
    @pytest.mark.parametrize("method,executor", PARITY_MATRIX)
    def test_results_bit_identical_with_autotune(self, method, executor):
        """Throughput-adaptive shard plans change wall clock only."""
        off = SearchSession(_spec(method, executor, autotune=False)).run()
        on = SearchSession(_spec(method, executor, autotune=True)).run()
        assert _comparable(on) == _comparable(off)
        assert on.result.cache_hits == off.result.cache_hits
        tuning = on.provenance["tuning"]
        assert tuning["plan_shards"] is True
        assert tuning["planned_batches"] > 0

    def test_auto_dispatch_calibration_is_invisible_in_results(self):
        off = SearchSession(_spec("ga", "process", autotune=False)).run()
        on = SearchSession(_spec("ga", "process",
                                 dispatch_min_batch="auto")).run()
        assert _comparable(on) == _comparable(off)
        break_even = on.provenance["tuning"]["break_even"]
        assert break_even["process"]["probes"] > 0

    def test_distributed_node_kill_recovery_with_autotune(self):
        """Autotuned distributed run losing a node mid-batch still
        matches the serial reference bit-for-bit."""
        reference = SearchSession(_spec("ga", "serial")).run()
        plan = FaultPlan(kill_worker=[(1, 0)])
        coordinator = ParallelCoordinator(
            "distributed", workers=2, nodes=2, fault_plan=plan,
            degrade=False, autotune=True)
        recovered = SearchSession(
            _spec("ga", "distributed")).run(callbacks=[coordinator])
        assert _comparable(recovered) == _comparable(reference)
        execution = recovered.provenance["execution"]
        assert execution["respawns"] >= 1
        tuning = recovered.provenance["tuning"]
        assert tuning["planned_batches"] > 0


# ----------------------------------------------------------------------
# Straggler scenario: the plan shifts rows off a slow worker
# ----------------------------------------------------------------------
class TestStragglerPlanShift:
    def test_plan_moves_rows_off_delayed_worker(self):
        """A FaultPlan-delayed worker looks slow to the throughput model
        (injected delays are charged to the timing echo), so later plans
        hand it fewer rows -- while every gathered report stays
        bit-identical to the serial kernel."""
        from repro.costmodel.batched import evaluate_batch_kernel

        layers = get_model("ncf")
        table = LayerTable.build(layers)
        num_layers = len(table)
        population = 400
        n = population * num_layers
        rng = np.arange(n, dtype=np.int64)
        layer_idx = np.tile(np.arange(num_layers, dtype=np.int64),
                            population)
        pes = (rng % 64) + 1
        l1_bytes = ((rng % 32) + 1) * 16
        style_idx = np.zeros(n, dtype=np.int64)

        tuner = TuningState(plan_shards=True)
        plan = FaultPlan(delay_s=[(batch, 1, 0.25)
                                  for batch in range(6)])
        backend = ProcessBackend(workers=2, fault_plan=plan, tuner=tuner)
        try:
            for _ in range(4):
                report = backend.evaluate(DEFAULT_HW, table, layer_idx,
                                          style_idx, pes, l1_bytes)
        finally:
            backend.shutdown()

        serial = evaluate_batch_kernel(DEFAULT_HW, table, layer_idx,
                                       style_idx, pes, l1_bytes)
        assert np.array_equal(report.latency_cycles,
                              serial.latency_cycles)
        assert np.array_equal(report.energy_nj, serial.energy_nj)

        rates = tuner.throughput.snapshot()["process"]
        assert rates["0"] > rates["1"], rates
        snap = tuner.snapshot()
        assert snap["adaptive_plans"] >= 1
        last = snap["plan"]
        rows = {"0": 0, "1": 0}
        for owner, shard_rows in zip(last["owners"], last["shard_rows"]):
            rows[owner] += shard_rows
        assert rows["0"] > rows["1"], last


# ----------------------------------------------------------------------
# Spec plumbing for the new knobs
# ----------------------------------------------------------------------
class TestSpecKnobs:
    def test_dispatch_min_batch_auto_accepted_and_resolved(self):
        spec = SearchSpec(model="ncf", dispatch_min_batch="auto",
                          executor="process")
        assert spec.dispatch_is_auto()
        # The calibrator's pre-freeze fallback is the static table.
        assert (spec.resolved_dispatch_min_batch()
                == TRANSPORT_MIN_BATCH["process"])

    def test_dispatch_min_batch_rejects_garbage(self):
        with pytest.raises(ValueError):
            SearchSpec(model="ncf", dispatch_min_batch="sometimes")

    def test_autotune_env_default(self, monkeypatch):
        monkeypatch.setenv(AUTOTUNE_ENV, "1")
        assert SearchSpec(model="ncf").resolved_autotune() is True
        monkeypatch.delenv(AUTOTUNE_ENV)
        assert SearchSpec(model="ncf").resolved_autotune() is False
        assert SearchSpec(model="ncf",
                          autotune=True).resolved_autotune() is True

