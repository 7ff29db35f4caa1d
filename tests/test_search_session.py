"""Tests for SearchSession, SessionResult, observers, and the runners.

The heart of the api_redesign contract: every registered method runs
through one façade, produces a feasible ``SessionResult`` that round-trips
through JSON, and matches the legacy call paths bit-for-bit under fixed
seeds.
"""

import json

import pytest

import repro
from repro.experiments.tasks import TaskSpec
from repro.search import (
    CheckpointHook,
    EarlyStopping,
    ProgressReporter,
    SearchObserver,
    SearchSession,
    SearchSpec,
    SessionResult,
    method_names,
)

#: Tiny-budget spec kwargs shared by the whole-registry sweeps: the NCF
#: workload has 4 layers, the cloud platform gives a roomy budget so every
#: method finds a feasible point fast.
TINY = dict(model="ncf", platform="cloud", budget=8, seed=0)


class _Recorder(SearchObserver):
    """Counts every hook invocation for protocol assertions."""

    def __init__(self):
        super().__init__()
        self.started = 0
        self.steps = 0
        self.improvements = 0
        self.finished = []
        self.best_seen = None

    def on_start(self, session):
        self.started += 1

    def on_step(self, step, cost, best_cost):
        self.steps += 1
        assert step == self.steps

    def on_improvement(self, step, best_cost, best_assignments):
        self.improvements += 1
        assert self.best_seen is None or best_cost < self.best_seen
        self.best_seen = best_cost

    def on_finish(self, result):
        self.finished.append(result)


class TestEveryRegisteredMethod:
    """The acceptance sweep: all methods, one protocol."""

    @pytest.mark.parametrize("method", method_names())
    def test_feasible_result_and_json_round_trip(self, method, cost_model):
        spec = SearchSpec(method=method, **TINY)
        result = SearchSession(spec, cost_model=cost_model).run()

        assert isinstance(result, SessionResult)
        assert result.method == method
        assert result.feasible, f"{method} found no feasible point"
        assert result.best_cost > 0
        assert result.best_assignments is not None
        assert len(result.best_assignments) == 4  # one per NCF layer
        assert result.history, "empty convergence history"
        assert result.provenance["method_kind"]

        # Full JSON round trip: spec and result both survive.
        document = result.to_json()
        clone = SessionResult.from_json(document)
        assert clone.spec == spec
        assert clone.best_cost == result.best_cost
        assert clone.history == result.history
        assert tuple(tuple(a) for a in clone.best_assignments) \
            == tuple(tuple(a) for a in result.best_assignments)
        # And the document is genuinely plain JSON.
        json.loads(document)

    @pytest.mark.parametrize("method", ["random", "reinforce", "confuciux"])
    def test_fixed_seed_is_deterministic(self, method, cost_model):
        spec = SearchSpec(method=method, **TINY)
        first = SearchSession(spec, cost_model=cost_model).run()
        second = SearchSession(spec, cost_model=cost_model).run()
        assert first.best_cost == second.best_cost
        assert first.history == second.history


class TestLegacyEquivalence:
    """Bit-identical best costs vs. the pre-redesign call paths."""

    def test_genome_method_matches_direct_optimizer(self, cost_model):
        task = TaskSpec(model="ncf", platform="cloud")
        constraint = task.constraint(cost_model)
        legacy = repro.BASELINE_OPTIMIZERS["ga"](seed=5).search(
            task.make_evaluator(cost_model, constraint), 30)
        modern = repro.explore(model="ncf", method="ga", budget=30,
                               seed=5, platform="cloud",
                               cost_model=cost_model)
        assert modern.best_cost == legacy.best_cost
        assert modern.history == legacy.history

    def test_rl_method_matches_direct_agent(self, cost_model):
        task = TaskSpec(model="ncf", platform="cloud")
        constraint = task.constraint(cost_model)
        legacy = repro.RL_ALGORITHMS["reinforce"](seed=1).search(
            task.make_env(cost_model, constraint), 10)
        modern = repro.explore(model="ncf", method="reinforce", budget=10,
                               seed=1, platform="cloud",
                               cost_model=cost_model)
        assert modern.best_cost == legacy.best_cost

    def test_two_stage_matches_confuciux_run(self, cost_model):
        pipeline = repro.ConfuciuX(
            repro.get_model("ncf"), objective="latency", dataflow="dla",
            constraint_kind="area", platform="cloud",
            cost_model=cost_model, seed=2)
        legacy = pipeline._run(global_epochs=12, finetune_generations=3)
        modern = repro.explore(model="ncf", method="confuciux", budget=12,
                               finetune=3, seed=2, platform="cloud",
                               cost_model=cost_model)
        assert modern.best_cost == legacy.best_cost
        assert modern.detail.global_cost == legacy.global_cost

    def test_compare_methods_accepts_all_kinds(self, cost_model):
        from repro.experiments.runner import compare_methods

        task = TaskSpec(model="ncf", platform="cloud")
        results = compare_methods(
            task, ["random", "reinforce", "local-ga", "confuciux"],
            epochs=8, cost_model=cost_model)
        assert set(results) == {"random", "reinforce", "local-ga",
                                "confuciux"}
        for outcome in results.values():
            assert outcome.best_cost is not None


class TestObservers:
    def test_protocol_fires_and_changes_nothing(self, cost_model):
        spec = SearchSpec(method="sa", **TINY)
        plain = SearchSession(spec, cost_model=cost_model).run()
        recorder = _Recorder()
        observed = SearchSession(spec, cost_model=cost_model).run(
            callbacks=[recorder])

        assert recorder.started == 1
        assert recorder.steps == spec.budget
        assert recorder.improvements >= 1
        assert recorder.finished == [observed]
        # Observation is free: identical numbers with and without.
        assert observed.best_cost == plain.best_cost
        assert observed.history == plain.history

    def test_episodic_observer_counts_episodes(self, cost_model):
        recorder = _Recorder()
        result = repro.explore(method="reinforce", callbacks=[recorder],
                               cost_model=cost_model, **TINY)
        assert recorder.steps == TINY["budget"]
        assert result.feasible

    def test_early_stopping_genome(self, cost_model):
        stopper = EarlyStopping(patience=4)
        result = repro.explore(model="ncf", method="random", budget=500,
                               seed=0, platform="cloud",
                               callbacks=[stopper], cost_model=cost_model)
        assert result.stopped_early
        assert stopper.stopped_at is not None
        assert len(result.history) < 500
        assert result.feasible
        assert result.result.extra.get("stopped_early") is True

    def test_early_stopping_episodic(self, cost_model):
        result = repro.explore(model="ncf", method="reinforce", budget=300,
                               seed=0, platform="cloud",
                               callbacks=[EarlyStopping(patience=3)],
                               cost_model=cost_model)
        assert result.stopped_early
        assert len(result.history) < 300
        assert result.feasible

    def test_target_cost_stop(self, cost_model):
        # Stop the moment anything feasible appears.
        result = repro.explore(model="ncf", method="random", budget=500,
                               seed=0, platform="cloud",
                               callbacks=[EarlyStopping(
                                   target_cost=float("inf"))],
                               cost_model=cost_model)
        assert result.stopped_early
        assert result.feasible

    def test_request_stop(self, cost_model):
        class StopAtFive(SearchObserver):
            def on_step(self, step, cost, best_cost):
                if step >= 5:
                    self.request_stop()

        result = repro.explore(model="ncf", method="random", budget=500,
                               seed=0, platform="cloud",
                               callbacks=[StopAtFive()],
                               cost_model=cost_model)
        assert result.stopped_early
        assert len(result.history) == 5

    def test_observers_reset_between_runs(self, cost_model):
        # One observer instance serves many runs: a stop requested in run
        # 1 (or stale patience counters) must not leak into run 2.
        spec = SearchSpec(method="random", **dict(TINY, budget=30))
        session = SearchSession(spec, cost_model=cost_model)

        class StopAtFive(SearchObserver):
            def on_step(self, step, cost, best_cost):
                if step >= 5:
                    self.request_stop()

        stopper = StopAtFive()
        first = session.run(callbacks=[stopper])
        assert first.stopped_early and len(first.history) == 5
        second = session.run(callbacks=[stopper])
        assert second.stopped_early and len(second.history) == 5

        patience = EarlyStopping(patience=4)
        session.run(callbacks=[patience])
        stopped_at = patience.stopped_at
        session.run(callbacks=[patience])
        assert patience.stopped_at == stopped_at  # identical fresh run

    def test_local_ga_budget_counts_evaluations(self, cost_model):
        # Equal-budget fairness: local-ga must not outspend the other
        # genome methods by interpreting budget as whole generations.
        budget = 60
        result = repro.explore(model="ncf", method="local-ga",
                               budget=budget, seed=0, platform="cloud",
                               cost_model=cost_model)
        assert result.feasible
        assert result.result.evaluations <= budget + 20  # one population

    def test_checkpoint_hook_writes_best(self, cost_model, tmp_path):
        path = tmp_path / "checkpoint.json"
        result = repro.explore(method="sa", callbacks=[CheckpointHook(path)],
                               cost_model=cost_model, **TINY)
        document = json.loads(path.read_text())
        assert document["best_cost"] == result.best_cost
        assert document["best_assignments"] is not None

    def test_progress_reporter_writes_stream(self, cost_model):
        import io

        stream = io.StringIO()
        repro.explore(method="random", cost_model=cost_model,
                      callbacks=[ProgressReporter(every=2, stream=stream)],
                      **TINY)
        output = stream.getvalue()
        assert "[step 2]" in output
        assert "[done]" in output


class TestSessionResult:
    def test_save_and_load(self, cost_model, tmp_path):
        result = repro.explore(method="random", cost_model=cost_model,
                               **TINY)
        path = tmp_path / "run.json"
        result.save(path)
        loaded = SessionResult.load(path)
        assert loaded.spec == result.spec
        assert loaded.best_cost == result.best_cost

    def test_summary_mentions_method_and_model(self, cost_model):
        result = repro.explore(method="grid", cost_model=cost_model, **TINY)
        assert "grid" in result.summary()
        assert "ncf" in result.summary()

    def test_two_stage_detail_and_extra(self, cost_model):
        result = repro.explore(method="confuciux", cost_model=cost_model,
                               **TINY)
        assert result.detail is not None
        assert result.detail.best_cost == result.best_cost
        assert result.result.extra["global_cost"] is not None
        # extra survives serialization.
        clone = SessionResult.from_json(result.to_json())
        assert clone.result.extra["global_cost"] \
            == result.result.extra["global_cost"]

    #: A result saved while ``SearchSpec`` still had a ``kernel`` field.
    PRE_KERNEL_REMOVAL_DOC = (
        '{"spec": {"model": "ncf", "method": "random", "objective": '
        '"latency", "dataflow": "dla", "constraint_kind": "area", '
        '"platform": "cloud", "budget": 2, "seed": 0, "mix": false, '
        '"num_levels": 12, "max_pes": 128, "deployment": "lp", '
        '"max_total_pes": 4096, "max_total_l1": 8192, "layer_slice": '
        'null, "finetune": null, "executor": null, "workers": null, '
        '"nodes": null, "dispatch_min_batch": null, "envs": null, '
        '"task_timeout_s": null, "kernel": null, "autotune": null}, '
        '"result": {"algorithm": "random", "best_cost": 3670144.0, '
        '"best_assignments": [[96, 89], [24, 49], [8, 19], [1, 19]], '
        '"best_genome": [10, 7, 6, 3, 3, 0, 0, 0], "history": '
        '[3670144.0, 3670144.0], "evaluations": 2, "cache_hits": 0, '
        '"episodes": 2, "wall_time_s": 0.000649658999464009, '
        '"memory_bytes": 0, "extra": {}}, "stopped_early": false, '
        '"provenance": {"repro_version": "1.8.0", "method_kind": '
        '"genome", "executor": "serial", "kernel": "batched", '
        '"autotune": false, "envs": 1, "started_at": '
        '"2026-10-17T07:08:27", "finished_at": "2026-10-17T07:08:27"}}')

    @pytest.mark.parametrize("kernel", [None, "batched", "fused", "auto"])
    def test_loads_documents_saved_with_a_kernel(self, kernel, cost_model):
        document = json.loads(self.PRE_KERNEL_REMOVAL_DOC)
        document["spec"]["kernel"] = kernel
        loaded = SessionResult.from_json(json.dumps(document))
        assert "kernel" not in loaded.spec.to_dict()
        assert loaded.best_cost == 3670144.0
        # Every dropped kernel was bit-identical to the batched engine,
        # so a rerun of the loaded spec reproduces the saved result.
        rerun = SearchSession(loaded.spec, cost_model=cost_model).run()
        assert rerun.best_cost == loaded.best_cost
        assert rerun.best_assignments == loaded.best_assignments

    @pytest.mark.parametrize("kernel", ["fused32", "fused-jit"])
    def test_rejects_documents_naming_a_removed_kernel(self, kernel):
        document = json.loads(self.PRE_KERNEL_REMOVAL_DOC)
        document["spec"]["kernel"] = kernel
        with pytest.raises(ValueError, match=kernel):
            SessionResult.from_json(json.dumps(document))

    def test_spec_has_no_kernel_field(self):
        with pytest.raises(TypeError):
            SearchSpec(model="ncf", kernel="batched")
        with pytest.raises(ValueError, match="kernel"):
            SearchSpec.from_dict({"model": "ncf", "kernel": "warp-speed"})

    def test_session_validates_method_eagerly(self):
        with pytest.raises(KeyError, match="unknown method"):
            SearchSession(SearchSpec(model="ncf", method="alphago"))
