"""Lockstep-wave rollouts: the envs=1 bit-parity matrix and the envs knob.

The contract (API.md "Vectorized rollouts"):

* ``envs=1`` -- driving any episodic method through a one-env
  :class:`~repro.env.vector.VectorHWAssignmentEnv` produces results
  bit-identical to scalar stepping (same costs, same histories, same
  RNG stream, same counters), for **every** episodic registered method;
  and a session run at ``envs=1`` equals the scalar-stepping session.
* ``envs>1`` -- a new scenario: reproducible for a fixed (seed, envs)
  pair, spending exactly the episode budget, reachable through
  ``SearchSpec.envs`` / ``$REPRO_ENVS`` / ``--envs`` and observable
  through the standard callback protocol.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.costmodel import CostModel
from repro.env.vector import VectorHWAssignmentEnv
from repro.experiments.runner import compare_methods
from repro.experiments.tasks import TaskSpec
from repro.search import (
    EarlyStopping,
    SearchSession,
    SearchSpec,
    method_names,
)
from repro.search.registry import KIND_EPISODIC

EPISODIC_METHODS = method_names(kind=KIND_EPISODIC)
BUDGET = 6


@pytest.fixture(scope="module")
def cost_model():
    return CostModel()


@pytest.fixture(scope="module")
def task():
    return TaskSpec(model="mobilenet_v2", layer_slice=5)


@pytest.fixture(scope="module")
def constraint(task, cost_model):
    return task.constraint(cost_model)


def assert_results_equal(a, b):
    """SearchResult equality minus wall-clock."""
    assert a.algorithm == b.algorithm
    assert a.best_cost == b.best_cost
    assert a.history == b.history
    assert a.evaluations == b.evaluations
    assert a.episodes == b.episodes
    assert a.best_genome == b.best_genome
    assert a.best_assignments == b.best_assignments
    assert a.cache_hits == b.cache_hits
    assert a.memory_bytes == b.memory_bytes


class TestEnvsOneBitParity:
    @pytest.mark.parametrize("name", EPISODIC_METHODS)
    def test_vector_env_matches_scalar_stepping(self, name, task,
                                                cost_model, constraint):
        """The full matrix: every episodic registered method, one-env
        waves vs the pre-PR scalar stepping loop, bit-identical."""
        from repro.search.registry import get_method

        info = get_method(name)
        scalar_method = info.factory(seed=0)
        scalar_result = scalar_method.search(
            task.make_env(cost_model, constraint), BUDGET)
        vector_method = info.factory(seed=0)
        vector_result = vector_method.search(
            VectorHWAssignmentEnv(task.make_env(cost_model, constraint), 1),
            BUDGET)
        assert_results_equal(scalar_result, vector_result)

    @pytest.mark.parametrize("name", EPISODIC_METHODS)
    def test_session_envs_one_equals_scalar_session(self, name):
        """SessionResult equality: an explicit ``envs=1`` run equals the
        default (scalar-stepping) session for every episodic method."""
        spec = SearchSpec(model="mobilenet_v2", method=name, budget=BUDGET,
                          seed=0, layer_slice=5)
        scalar = SearchSession(spec).run()
        vector = SearchSession(spec.replace(envs=1)).run()
        assert_results_equal(scalar.result, vector.result)
        assert vector.provenance["envs"] == 1
        assert not vector.stopped_early

    def test_mix_and_power_parity(self, cost_model):
        """The matrix holds off the default task too: MIX spaces and the
        power constraint (which planned episodes cannot batch)."""
        from repro.search.registry import get_method

        for kwargs in ({"mix": True}, {"constraint_kind": "power"}):
            task = TaskSpec(model="mobilenet_v2", layer_slice=4, **kwargs)
            constraint = task.constraint(cost_model)
            for name in ("reinforce", "ppo2", "sac"):
                info = get_method(name)
                scalar = info.factory(seed=1).search(
                    task.make_env(cost_model, constraint), 4)
                vector = info.factory(seed=1).search(
                    VectorHWAssignmentEnv(
                        task.make_env(cost_model, constraint), 1), 4)
                assert_results_equal(scalar, vector)


class TestEnvsGreaterThanOne:
    @pytest.mark.parametrize("name", ["reinforce", "a2c", "ppo2", "td3"])
    def test_reproducible_per_seed_and_envs(self, name, task, cost_model,
                                            constraint):
        from repro.search.registry import get_method

        info = get_method(name)
        runs = []
        for _ in range(2):
            method = info.factory(seed=3)
            venv = VectorHWAssignmentEnv(
                task.make_env(cost_model, constraint), 4)
            runs.append(method.search(venv, 10))
        assert_results_equal(*runs)

    @pytest.mark.parametrize("envs", [2, 3, 8])
    def test_budget_spent_exactly(self, envs, task, cost_model,
                                  constraint):
        """Waves spend exactly the episode budget even when it does not
        divide by ``envs`` (the last wave set shrinks)."""
        from repro.search.registry import get_method

        method = get_method("a2c").factory(seed=0)
        venv = VectorHWAssignmentEnv(
            task.make_env(cost_model, constraint), envs)
        result = method.search(venv, 7)
        assert result.episodes == 7
        assert len(result.history) == 7

    def test_session_envs_resolution(self, monkeypatch):
        spec = SearchSpec(model="mobilenet_v2", budget=8)
        assert spec.resolved_envs() == 1
        monkeypatch.setenv("REPRO_ENVS", "4")
        assert spec.resolved_envs() == 4
        assert spec.replace(envs=2).resolved_envs() == 2
        monkeypatch.setenv("REPRO_ENVS", "0")
        with pytest.raises(ValueError):
            spec.resolved_envs()
        with pytest.raises(ValueError):
            SearchSpec(model="mobilenet_v2", envs=0)

    def test_spec_roundtrip_carries_envs(self):
        spec = SearchSpec(model="mobilenet_v2", method="ppo2", envs=8)
        assert SearchSpec.from_json(spec.to_json()) == spec
        assert SearchSpec.from_json(spec.to_json()).resolved_envs() == 8

    def test_session_run_with_envs(self):
        spec = SearchSpec(model="mobilenet_v2", method="ppo2", budget=10,
                          seed=0, layer_slice=5, envs=4)
        first = SearchSession(spec).run()
        second = SearchSession(spec).run()
        assert_results_equal(first.result, second.result)
        assert first.provenance["envs"] == 4
        assert first.result.episodes == 10

    def test_observers_see_vector_episodes(self):
        """Callbacks fire once per finished episode inside waves, and
        early stopping unwinds gracefully at a wave-set boundary."""
        from repro.search.callbacks import SearchObserver

        class Recorder(SearchObserver):
            def __init__(self):
                super().__init__()
                self.steps = 0

            def on_step(self, step, cost, best_cost):
                self.steps = step
                return False

        recorder = Recorder()
        spec = SearchSpec(model="mobilenet_v2", method="a2c", budget=9,
                          seed=0, layer_slice=5, envs=3)
        outcome = SearchSession(spec).run(callbacks=[recorder])
        assert recorder.steps == 9
        assert outcome.result.episodes == 9

        stopped = SearchSession(spec).run(
            callbacks=[EarlyStopping(patience=2)])
        assert stopped.stopped_early
        assert stopped.result.extra.get("stopped_early") is True

    def test_compare_methods_envs(self, task, cost_model):
        results = compare_methods(task, ["a2c"], epochs=8, seed=0,
                                  cost_model=cost_model, envs=4)
        direct = compare_methods(task, ["a2c"], epochs=8, seed=0,
                                 cost_model=cost_model, envs=4)
        assert_results_equal(results["a2c"], direct["a2c"])
        assert results["a2c"].episodes == 8

    def test_genome_methods_ignore_envs(self):
        spec = SearchSpec(model="mobilenet_v2", method="random", budget=40,
                          seed=0, layer_slice=4)
        scalar = SearchSession(spec).run()
        vector = SearchSession(spec.replace(envs=8)).run()
        assert_results_equal(scalar.result, vector.result)


class TestTwoStageEnvs:
    """``envs`` now reaches the two-stage pipeline's global RL stage
    (ROADMAP 5c): single-env waves stay bit-identical, multi-env waves
    are a reproducible new scenario, and observers still see one
    ``on_step`` per finished global episode."""

    def _spec(self, **overrides) -> SearchSpec:
        base = dict(model="mobilenet_v2", method="confuciux", budget=6,
                    seed=0, layer_slice=5, finetune=2)
        base.update(overrides)
        return SearchSpec(**base)

    def test_envs_one_equals_default_two_stage(self):
        scalar = SearchSession(self._spec()).run()
        vector = SearchSession(self._spec(envs=1)).run()
        assert_results_equal(scalar.result, vector.result)
        assert vector.provenance["envs"] == 1

    def test_wave_runs_are_reproducible_and_spend_the_budget(self):
        spec = self._spec(budget=7, envs=3, finetune=0)
        first = SearchSession(spec).run()
        second = SearchSession(spec).run()
        assert_results_equal(first.result, second.result)
        assert first.result.episodes == 7
        assert first.provenance["envs"] == 3

    def test_finetune_stage_still_runs_after_vector_global_stage(self):
        outcome = SearchSession(self._spec(budget=8, envs=4,
                                           finetune=3)).run()
        assert outcome.result.episodes >= 8
        assert "global_cost" in outcome.result.extra
        assert "finetune_cost" in outcome.result.extra

    def test_observers_see_global_episodes_inside_waves(self):
        from repro.search.callbacks import SearchObserver

        class Recorder(SearchObserver):
            def __init__(self):
                super().__init__()
                self.steps = 0

            def on_step(self, step, cost, best_cost):
                self.steps = step
                return False

        recorder = Recorder()
        SearchSession(self._spec(budget=6, envs=3, finetune=0)).run(
            callbacks=[recorder])
        assert recorder.steps == 6

    def test_early_stop_unwinds_the_vector_global_stage(self):
        stopped = SearchSession(self._spec(budget=40, envs=4)).run(
            callbacks=[EarlyStopping(patience=2)])
        assert stopped.stopped_early


INF = float("inf")

#: (method, envs) -> (best_cost, history, evaluations) on the 5-layer
#: MobileNet-V2 slice, seed 0, budget 6 (confuciux: finetune 2), recorded
#: while every agent still carried a scalar stepping loop next to its wave
#: path -- the envs=1 values are the scalar loop's, which the one-env wave
#: path must keep reproducing.
GOLDEN = {
    ("reinforce", 1): (2685930.0, [2685930.0] * 6, 26),
    ("reinforce", 4): (11640166.0, [11640166.0] * 6, 28),
    ("a2c", 1): (5761138.0, [INF] + [5761138.0] * 5, 22),
    ("a2c", 4): (4123303.0, [4123303.0] * 6, 25),
    ("acktr", 1): (5761138.0, [INF] + [5761138.0] * 5, 13),
    ("acktr", 4): (4123303.0, [4123303.0] * 6, 25),
    ("ppo2", 1): (5761138.0, [INF] + [5761138.0] * 5, 17),
    ("ppo2", 4): (4123303.0, [4123303.0] * 6, 21),
    ("ddpg", 1): (3173381.0, [3173381.0] * 6, 25),
    ("ddpg", 4): (3215565.0, [3215565.0] * 6, 27),
    ("td3", 1): (8123868.0, [INF] * 3 + [8123868.0] * 3, 19),
    ("td3", 4): (None, [INF] * 6, 19),
    ("sac", 1): (None, [INF] * 6, 22),
    ("sac", 4): (None, [INF] * 6, 22),
    ("reinforce-mlp", 1): (11380330.0,
                           [INF, 23185040.0] + [11380330.0] * 4, 27),
    ("reinforce-mlp", 4): (5437304.0, [5437304.0] * 6, 24),
    ("confuciux", 1): (2577030.0, [2685930.0] * 6 + [2577030.0] * 2, 82),
    ("confuciux", 4): (7963562.0, [11640166.0] * 6 + [7963562.0] * 2, 84),
}


class TestGoldenPin:
    def test_golden_covers_every_episodic_method(self):
        assert {name for name, _ in GOLDEN} == {*EPISODIC_METHODS,
                                                "confuciux"}

    @pytest.mark.parametrize("name,envs", sorted(GOLDEN))
    def test_results_are_pinned(self, name, envs):
        """Sessions reproduce the recorded best cost, convergence trace
        and evaluation count exactly."""
        spec = SearchSpec(model="mobilenet_v2", method=name, budget=BUDGET,
                          seed=0, layer_slice=5, envs=envs,
                          finetune=2 if name == "confuciux" else None)
        result = SearchSession(spec).run().result
        assert (result.best_cost, result.history, result.evaluations) \
            == GOLDEN[name, envs]
