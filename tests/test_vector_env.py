"""VectorHWAssignmentEnv: lockstep waves vs scalar stepping.

Three layers of guarantees:

* **Protocol** -- reset/step shapes, masked done-handling, validation.
* **Single-env bit-parity** -- driving one lockstep episode produces the
  exact observation / reward / done / p_min stream of
  ``HWAssignmentEnv.step`` (the agent-level matrix lives in
  ``test_rl_vector_parity.py``).
* **Replay property** -- for *any* interleaving of violating episodes
  (hypothesis-generated action matrices, every constraint kind), each
  finished episode's bookkeeping (cost, used budget, termination step,
  feasibility, assignments) matches a per-episode scalar replay, and the
  env counters add up.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.constraints import PlatformConstraint, ResourceConstraint
from repro.costmodel import CostModel
from repro.env.environment import HWAssignmentEnv
from repro.env.spaces import ActionSpace
from repro.env.vector import VectorHWAssignmentEnv
from repro.models import get_model


@pytest.fixture(scope="module")
def cost_model():
    return CostModel()


@pytest.fixture(scope="module")
def layers():
    return get_model("mobilenet_v2")[:4]


@pytest.fixture(scope="module")
def space():
    return ActionSpace.build("dla")


def make_envs(layers, space, cost_model, num_envs, constraint=None,
              mix=False, **env_kwargs):
    if constraint is None:
        constraint = PlatformConstraint(kind="area", budget=6.0e6,
                                        platform="custom")
    if mix:
        space = ActionSpace.build(mix=True)
        env_kwargs.setdefault("dataflow", None)
    else:
        env_kwargs.setdefault("dataflow", "dla")
    env = HWAssignmentEnv(layers, space, "latency", constraint, cost_model,
                          **env_kwargs)
    return env, VectorHWAssignmentEnv(env, num_envs)


class TestProtocol:
    def test_reset_shape_and_live(self, layers, space, cost_model):
        _, venv = make_envs(layers, space, cost_model, 3)
        observations = venv.reset()
        assert observations.shape == (3, 10)
        assert list(venv.live_indices) == [0, 1, 2]
        assert not venv.all_done
        # every episode starts from the scalar first observation
        scalar_first = venv.env.encoder.encode(layers[0], 0, None)
        assert np.array_equal(observations,
                              np.tile(scalar_first, (3, 1)))

    def test_partial_wave_set(self, layers, space, cost_model):
        _, venv = make_envs(layers, space, cost_model, 8)
        observations = venv.reset(3)
        assert observations.shape == (3, 10)
        assert venv.num_active == 3

    def test_reset_bounds(self, layers, space, cost_model):
        _, venv = make_envs(layers, space, cost_model, 2)
        with pytest.raises(ValueError):
            venv.reset(0)
        with pytest.raises(ValueError):
            venv.reset(3)

    def test_step_before_reset_raises(self, layers, space, cost_model):
        _, venv = make_envs(layers, space, cost_model, 2)
        with pytest.raises(RuntimeError):
            venv.step(np.zeros((2, 2), dtype=np.int64))

    def test_step_shape_validation(self, layers, space, cost_model):
        _, venv = make_envs(layers, space, cost_model, 2)
        venv.reset()
        with pytest.raises(ValueError):
            venv.step(np.zeros((3, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            venv.step(np.full((2, 2), 99, dtype=np.int64))

    def test_wrapping_requirements(self, layers, space, cost_model):
        env, venv = make_envs(layers, space, cost_model, 2)
        with pytest.raises(ValueError):
            VectorHWAssignmentEnv(env, 0)
        with pytest.raises(TypeError):
            VectorHWAssignmentEnv(venv, 2)

    def test_done_rows_are_masked_out(self, layers, space, cost_model):
        # One episode picks the maximum pair (violates the tight budget
        # immediately), the other the minimum pair (survives).
        tight = PlatformConstraint(kind="area", budget=1.0e6,
                                   platform="custom")
        _, venv = make_envs(layers, space, cost_model, 2, constraint=tight)
        venv.reset()
        top = space.num_levels - 1
        _, _, dones, info = venv.step(np.array([[top, top], [0, 0]]))
        assert list(dones) == [True, False]
        assert info["episodes"][0] is not None
        assert not info["episodes"][0].feasible
        assert info["episodes"][1] is None
        assert list(venv.live_indices) == [1]
        # subsequent waves only accept actions for the live episode
        observations, rewards, dones, _ = venv.step(np.array([[0, 0]]))
        assert observations.shape == (1, 10)
        assert rewards.shape == (1,)

    def test_counters_shared_with_scalar_env(self, layers, space,
                                             cost_model):
        env, venv = make_envs(layers, space, cost_model, 2)
        venv.reset()
        venv.step(np.zeros((2, 2), dtype=np.int64))
        assert env.evaluations == 2
        assert venv.evaluations == 2
        assert venv.episodes == env.episodes


class TestSingleEnvBitParity:
    @pytest.mark.parametrize("mix", [False, True])
    @pytest.mark.parametrize("shaping", ["pmin", "raw"])
    def test_stream_matches_scalar(self, layers, space, cost_model, mix,
                                   shaping):
        """Observations, rewards, dones, p_min and the episode results of
        one lockstep episode equal the scalar stream exactly."""
        env, venv = make_envs(layers, space, cost_model, 1, mix=mix,
                              reward_shaping=shaping)
        scalar_env, _ = make_envs(layers, space, cost_model, 1, mix=mix,
                                  reward_shaping=shaping)
        head_sizes = venv.space.head_sizes
        rng = np.random.default_rng(5)
        for _ in range(4):  # several episodes: p_min carries across
            vec_obs = venv.reset(1)
            scalar_obs = scalar_env.reset()
            assert np.array_equal(vec_obs[0], scalar_obs)
            done = False
            while not done:
                action = [int(rng.integers(0, min(size, 4)))
                          for size in head_sizes]
                vec_obs, vec_rew, vec_done, vec_info = venv.step(
                    np.array([action]))
                scalar_obs, scalar_rew, done, scalar_info = \
                    scalar_env.step(action)
                assert np.array_equal(vec_obs[0], scalar_obs)
                assert float(vec_rew[0]) == scalar_rew
                assert bool(vec_done[0]) == done
                assert venv.p_min == scalar_env.p_min
                if done:
                    vec_episode = vec_info["episodes"][0]
                    scalar_episode = scalar_info["episode"]
                    assert vec_episode.cost == scalar_episode.cost
                    assert vec_episode.used == scalar_episode.used
                    assert vec_episode.feasible == scalar_episode.feasible
                    assert vec_episode.actions == scalar_episode.actions
                    assert vec_episode.assignments \
                        == scalar_episode.assignments
                    assert vec_episode.genome == scalar_episode.genome
        assert venv.evaluations == scalar_env.evaluations
        assert venv.episodes == scalar_env.episodes
        assert (venv.best.cost if venv.best else None) \
            == (scalar_env.best.cost if scalar_env.best else None)

    def test_constant_penalty_mode(self, layers, space, cost_model):
        tight = PlatformConstraint(kind="area", budget=1.0e6,
                                   platform="custom")
        env, venv = make_envs(layers, space, cost_model, 1,
                              constraint=tight,
                              penalty_mode="constant",
                              constant_penalty=-7.0)
        venv.reset(1)
        top = space.num_levels - 1
        _, rewards, dones, _ = venv.step(np.array([[top, top]]))
        assert bool(dones[0]) and float(rewards[0]) == -7.0


class TestCrossEpisodePMin:
    def test_wave_folds_in_episode_index_order(self, layers, space,
                                               cost_model):
        """Episode e's reward sees the p_min fold of episodes < e in the
        same wave (the paper's worst-performance-across-episodes stream,
        in a deterministic order)."""
        constraint = PlatformConstraint(kind="area", budget=1e12,
                                        platform="custom")
        env, venv = make_envs(layers, space, cost_model, 3,
                              constraint=constraint)
        venv.reset()
        actions = np.array([[3, 3], [0, 0], [2, 2]])
        _, rewards, _, info = venv.step(actions)
        costs = env.objective.evaluate(info["batch"])
        performance = -np.asarray(costs)
        # row 0 sets p_min to its own performance -> reward 0
        assert rewards[0] == 0.0
        expected_1 = performance[1] - min(performance[0], performance[1])
        expected_2 = performance[2] - min(performance[:3])
        assert rewards[1] == expected_1
        assert rewards[2] == expected_2
        assert env.p_min == min(performance)


@st.composite
def wave_actions(draw):
    """Episode count, action matrix stream, and a constraint kind."""
    episodes = draw(st.integers(min_value=1, max_value=4))
    # Level indices skewed low so some episodes survive several steps
    # while high draws violate early -- arbitrary interleavings.
    matrix = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=11),
                 min_size=2 * episodes, max_size=2 * episodes),
        min_size=4, max_size=4))
    kind = draw(st.sampled_from(["area", "power", "resource"]))
    return episodes, matrix, kind


class TestReplayProperty:
    @settings(max_examples=25, deadline=None)
    @given(wave_actions())
    def test_any_interleaving_matches_scalar_replay(self, case):
        """Every finished episode's bookkeeping equals a fresh scalar
        replay of its actions, regardless of which episodes violate
        when; evaluations count one per live episode per wave."""
        episodes, matrix, kind = case
        layers = get_model("mobilenet_v2")[:4]
        space = ActionSpace.build("dla")
        cost_model = CostModel()
        if kind == "resource":
            constraint = ResourceConstraint(max_pes=64,
                                            max_l1_bytes=16384)
        else:
            budget = 8.0e6 if kind == "area" else 700.0
            constraint = PlatformConstraint(kind=kind, budget=budget,
                                            platform="custom")
        env = HWAssignmentEnv(layers, space, "latency", constraint,
                              cost_model, dataflow="dla")
        venv = VectorHWAssignmentEnv(env, episodes)
        venv.reset()
        finished = {}
        steps_taken = 0
        wave = 0
        while not venv.all_done:
            live = venv.live_indices
            row_actions = np.array(
                matrix[wave % len(matrix)]).reshape(-1, 2)[:len(live)]
            steps_taken += len(live)
            _, _, dones, info = venv.step(row_actions)
            for row, episode in enumerate(info["episodes"]):
                if episode is not None:
                    finished[int(live[row])] = episode
            wave += 1
        assert len(finished) == episodes
        assert env.evaluations == steps_taken
        assert env.episodes == episodes
        for episode in finished.values():
            replay_env = HWAssignmentEnv(layers, space, "latency",
                                         constraint, cost_model,
                                         dataflow="dla")
            replay_env.reset()
            replay = None
            for action in episode.actions:
                _, _, _, step_info = replay_env.step(list(action))
                replay = step_info["episode"]
            assert replay is not None
            assert replay.steps == episode.steps
            assert replay.feasible == episode.feasible
            assert replay.cost == episode.cost
            assert replay.used == episode.used
            assert replay.assignments == episode.assignments


# ----------------------------------------------------------------------
# Deferred wave scoring
# ----------------------------------------------------------------------
#: Budgets per constraint kind, loosest last: tight budgets cut episodes
#: at the first layers, looser ones mid-episode or never.
DEFERRED_BUDGETS = {"area": (2.0e6, 4.0e6, 8.0e6),
                    "power": (300.0, 700.0, 1500.0),
                    "resource": (32, 64, 160)}


def constrained_env(kind, tightness, cost_model):
    budget = DEFERRED_BUDGETS[kind][tightness]
    if kind == "resource":
        constraint = ResourceConstraint(max_pes=budget, max_l1_bytes=16384)
    else:
        constraint = PlatformConstraint(kind=kind, budget=budget,
                                        platform="custom")
    return HWAssignmentEnv(get_model("mobilenet_v2")[:4],
                           ActionSpace.build("dla"), "latency", constraint,
                           cost_model, dataflow="dla")


@st.composite
def deferred_case(draw):
    episodes, matrix, kind = draw(wave_actions())
    return episodes, matrix, kind, draw(st.integers(min_value=0,
                                                    max_value=2))


def _wave_rows(matrix, wave, live):
    return np.array(matrix[wave % len(matrix)]).reshape(-1, 2)[:len(live)]


#: Episode 0 runs level 9, violating at its second or third layer under
#: the budgets the examples pick; episode 1 runs level 0 and finishes.
_MID_EPISODE = [[9, 9, 0, 0]] * 4


class TestDeferredWaits:
    @settings(max_examples=25, deadline=None)
    @given(deferred_case())
    @example((2, _MID_EPISODE, "area", 0))
    @example((2, _MID_EPISODE, "power", 1))
    @example((2, _MID_EPISODE, "resource", 1))
    def test_deferred_waits_match_immediate_steps_and_scalar_replay(
            self, case):
        """Issuing every wave of a set before waiting any (the episodic
        drivers' order) yields exactly the stream immediate stepping
        yields -- observations, rewards, dones, episode results, p_min
        and counters -- and each finished episode equals its scalar
        replay, under every constraint kind and wherever episodes
        violate."""
        episodes, matrix, kind, tightness = case
        cost_model = CostModel()
        env_now = constrained_env(kind, tightness, cost_model)
        venv_now = VectorHWAssignmentEnv(env_now, episodes)
        venv_now.reset()
        immediate = []
        while not venv_now.all_done:
            live = venv_now.live_indices
            immediate.append(venv_now.step(
                _wave_rows(matrix, len(immediate), live)))

        env_later = constrained_env(kind, tightness, cost_model)
        venv_later = VectorHWAssignmentEnv(env_later, episodes)
        venv_later.reset()
        handles = []
        while not venv_later.all_done:
            live = venv_later.live_indices
            handles.append(venv_later.step_async(
                _wave_rows(matrix, len(handles), live)))
        deferred = [venv_later.step_wait(handle) for handle in handles]

        assert len(deferred) == len(immediate)
        finished = []
        for now, later in zip(immediate, deferred):
            for a, b in zip(now[:3], later[:3]):
                assert np.array_equal(a, b)
            assert now[3]["episodes"] == later[3]["episodes"]
            finished += [e for e in later[3]["episodes"] if e is not None]
        assert len(finished) == episodes
        assert env_later.p_min == env_now.p_min
        assert env_later.evaluations == env_now.evaluations
        assert env_later.episodes == env_now.episodes == episodes
        assert env_later.best == env_now.best
        for episode in finished:
            replay_env = constrained_env(kind, tightness, cost_model)
            replay_env.reset()
            for action in episode.actions:
                _, _, _, step_info = replay_env.step(list(action))
            replay = step_info["episode"]
            assert replay == episode


class TestCostCallsPerWaveSet:
    @pytest.mark.parametrize("method", ["reinforce", "a2c"])
    @pytest.mark.parametrize("kind", ["area", "resource", "power"])
    def test_one_call_per_wave_set_unless_power(self, method, kind,
                                                monkeypatch):
        """A wave set under an area or resource budget makes exactly one
        batched cost call however many waves it issues; a power wave set
        makes one per wave, because its termination needs the report."""
        from repro.costmodel.batched import BatchedCostModel
        from repro.search.registry import get_method

        calls, waves = [], []
        evaluate = BatchedCostModel.evaluate
        step_async = VectorHWAssignmentEnv.step_async

        def spy_evaluate(model, table, layer_idx, *args):
            calls.append(len(layer_idx))
            return evaluate(model, table, layer_idx, *args)

        def spy_step_async(venv, actions):
            waves.append(len(actions))
            return step_async(venv, actions)

        monkeypatch.setattr(BatchedCostModel, "evaluate", spy_evaluate)
        monkeypatch.setattr(VectorHWAssignmentEnv, "step_async",
                            spy_step_async)
        env = constrained_env(kind, 1, CostModel())
        get_method(method).factory(seed=0).search(
            VectorHWAssignmentEnv(env, 4), 4)
        assert len(waves) > 1
        assert sum(calls) == sum(waves) == env.evaluations
        assert calls == (waves if kind == "power" else [sum(waves)])
