"""Lockstep multi-episode environment: the one episode engine.

Every episodic agent rolls its episodes through
:class:`VectorHWAssignmentEnv`: **E episodes in lockstep waves**, all live
episodes at the same layer ``t``, with one batched policy forward per
wave on the agent side.  A bare :class:`HWAssignmentEnv` handed to an
agent's ``search()`` runs as a one-env vector env.  Budget consumption,
termination, the shared cross-episode ``p_min`` stream, and the
per-episode :class:`~repro.env.environment.EpisodeResult` bookkeeping are
all vectorized; episodes that violate early are masked out of later
waves.

Deferred wave scoring
---------------------
Cost-model scoring goes through
:class:`~repro.env.environment.EpisodePlan`, the record of a wave set's
unscored waves, and one
:class:`~repro.costmodel.batched.BatchedCostModel` call (routed through
``CostModel.batched``, so an installed parallel executor and its
dispatch threshold apply unchanged):

* **Resource caps and area budgets** decide termination without a cost
  report -- PE / buffer arithmetic, or the closed-form area of
  :func:`~repro.costmodel.batched.area_terms`, bit-identical to the
  report's ``area_um2``.  :meth:`step_async` only records such a wave;
  the first :meth:`step_wait` of the set scores every recorded wave in
  one call, then rewards fold wave by wave in issue order.  A driver
  that issues a whole wave set before waiting (the REINFORCE and
  actor-critic rollouts do) pays one cost call per wave set.
* **Power budgets** need the report to decide termination, so each wave
  is scored as it is issued.
* :meth:`step` is ``step_wait(step_async(...))``: one call per wave, for
  drivers that need each reward at once (the off-policy agents).

Semantics
---------
* Every per-episode quantity (rewards, episode cost, used budget,
  termination step) accumulates in the exact scalar order, so an episode
  replayed through a scalar :class:`HWAssignmentEnv` produces an
  identical :class:`EpisodeResult` -- the property suite in
  ``tests/test_vector_env.py`` locks this for any interleaving of
  violating episodes, with waits immediate or deferred.
* The paper's cross-episode ``p_min`` ("worst layer performance observed
  across *all* episodes") folds across a wave in episode-index order:
  episode ``e``'s reward at step ``t`` sees the minimum over every
  earlier episode's step-``t`` performance in the same wave plus all
  previous waves.  For ``num_envs == 1`` this reduces exactly to the
  scalar stream of ``HWAssignmentEnv.step``; for ``num_envs > 1`` it is
  a new, reproducible scenario (see the RNG contract in API.md).

The driving agent interacts through a narrow protocol::

    observations = venv.reset(episodes)        # (E, obs_dim)
    waves = []
    while not venv.all_done:
        live = venv.live_indices               # episode index per row
        actions = policy(observations)         # (len(live), heads)
        wave = venv.step_async(actions)
        waves.append(wave)
        observations = wave.observations[~wave.dones]  # live set
    for wave in waves:                         # in issue order
        observations, rewards, dones, info = venv.step_wait(wave)
    # info["episodes"][row] carries the EpisodeResult on finishing rows.

Cross-episode state (``p_min``, ``best``, ``episodes``, ``evaluations``)
lives on the wrapped scalar env.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.constraints import ResourceConstraint
from repro.costmodel.batched import STYLE_INDEX, area_terms
from repro.env.environment import EpisodePlan, EpisodeResult, HWAssignmentEnv

__all__ = ["VectorHWAssignmentEnv"]


class _WaveHandle:
    """A wave issued by :meth:`VectorHWAssignmentEnv.step_async`.

    ``observations`` and ``dones`` are valid immediately; ``costs`` (the
    wave's objective values) is filled when the wave's
    :class:`EpisodePlan` commits -- and ``batch`` (its cost report) when
    that commit scored this wave alone -- and rewards and episode
    results materialize in :meth:`VectorHWAssignmentEnv.step_wait`.
    """

    __slots__ = ("observations", "dones", "live", "step", "violated",
                 "batch", "costs")

    def __init__(self, live: np.ndarray, step: int) -> None:
        self.live = live
        self.step = step
        self.batch = None
        self.costs = None


class VectorHWAssignmentEnv:
    """E lockstep episodes over one :class:`HWAssignmentEnv`.

    Args:
        env: The scalar environment whose task (layers, space, objective,
            constraint, cost model) and cross-episode state this vector
            env drives.  Must be a plain :class:`HWAssignmentEnv` (no
            proxies: the vector env writes its shared state back).
        num_envs: Maximum episodes per lockstep wave set (E).
    """

    #: Duck-typing marker the agents dispatch on (proxies forward it).
    is_vector = True

    def __init__(self, env: HWAssignmentEnv, num_envs: int) -> None:
        if not isinstance(env, HWAssignmentEnv):
            raise TypeError(
                "VectorHWAssignmentEnv wraps a plain HWAssignmentEnv "
                f"(got {type(env).__name__}); wrap observers around the "
                "vector env, not inside it")
        if num_envs < 1:
            raise ValueError("num_envs must be >= 1")
        self.env = env
        self.num_envs = int(num_envs)
        space = env.space
        self._pe_levels = np.asarray(space.pe_levels, dtype=np.int64)
        self._buf_levels = np.asarray(space.buf_levels, dtype=np.int64)
        self._heads = space.actions_per_step
        if space.is_mix:
            self._style_lut = np.asarray(
                [STYLE_INDEX[s] for s in space.dataflows], dtype=np.int64)
        else:
            self._style_lut = None
            self._fixed_style = STYLE_INDEX[env.dataflow]
        self._resource = isinstance(env.constraint, ResourceConstraint)
        #: Termination is decidable before scoring (resource arithmetic
        #: or the closed-form area), so waves wait in the plan.
        self._deferred = env.constraint.kind in ("resource", "area")
        if env.constraint.kind == "area":
            # Closed-form area of every (PE level, buffer level) pair.
            self._level_area = area_terms(
                env.cost_model.batched.hw, self._pe_levels[:, None],
                self._buf_levels[None, :])[0]
        self._active = 0
        self._live = np.zeros(0, dtype=np.int64)
        self._step_index = 0

    # ------------------------------------------------------------------
    # Scalar-env views (shared cross-episode state and task handles).
    # ------------------------------------------------------------------
    @property
    def space(self):
        return self.env.space

    @property
    def layers(self):
        return self.env.layers

    @property
    def observation_dim(self) -> int:
        return self.env.observation_dim

    @property
    def num_steps(self) -> int:
        return self.env.num_steps

    @property
    def best(self):
        return self.env.best

    @property
    def p_min(self):
        return self.env.p_min

    @property
    def episodes(self) -> int:
        return self.env.episodes

    @property
    def evaluations(self) -> int:
        return self.env.evaluations

    # ------------------------------------------------------------------
    @property
    def all_done(self) -> bool:
        """Whether every episode of the current wave set has finished."""
        return len(self._live) == 0

    @property
    def live_indices(self) -> np.ndarray:
        """Episode indices still stepping, in row order for :meth:`step`."""
        return self._live.copy()

    @property
    def num_active(self) -> int:
        """Episodes in the current wave set (including finished ones)."""
        return self._active

    # ------------------------------------------------------------------
    def reset(self, episodes: Optional[int] = None) -> np.ndarray:
        """Start a fresh wave set of ``episodes`` lockstep episodes.

        Returns the ``(episodes, obs_dim)`` observation matrix for step 0
        (every row is the scalar env's first observation).
        """
        episodes = self.num_envs if episodes is None else int(episodes)
        if not 1 <= episodes <= self.num_envs:
            raise ValueError(
                f"episodes must be in [1, {self.num_envs}], got {episodes}")
        env = self.env
        count, steps = episodes, env.num_steps
        self._active = count
        self._live = np.arange(count, dtype=np.int64)
        self._step_index = 0
        self._actions = np.zeros((count, steps, self._heads), dtype=np.int64)
        self._pes = np.zeros((count, steps), dtype=np.int64)
        self._l1 = np.zeros((count, steps), dtype=np.int64)
        self._episode_cost = np.zeros(count, dtype=np.float64)
        self._reward_sum = np.zeros(count, dtype=np.float64)
        self._used_budget = np.zeros(count, dtype=np.float64)
        self._used_pes = np.zeros(count, dtype=np.int64)
        self._used_l1 = np.zeros(count, dtype=np.int64)
        self._plan = EpisodePlan(env)
        return env.encoder.encode_batch(env.layers[0], 0, None, count=count)

    # ------------------------------------------------------------------
    def _decode(self, actions: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized ``ActionSpace.decode`` with the same range checks."""
        space = self.env.space
        num_levels = space.num_levels
        pe_idx, buf_idx = actions[:, 0], actions[:, 1]
        if pe_idx.min() < 0 or pe_idx.max() >= num_levels:
            raise ValueError("PE level index out of range")
        if buf_idx.min() < 0 or buf_idx.max() >= num_levels:
            raise ValueError("buffer level index out of range")
        if self._style_lut is not None:
            df_idx = actions[:, 2]
            if df_idx.min() < 0 or df_idx.max() >= len(space.dataflows):
                raise ValueError("dataflow index out of range")
            style_idx = self._style_lut[df_idx]
        else:
            style_idx = np.full(len(actions), self._fixed_style,
                                dtype=np.int64)
        return self._pe_levels[pe_idx], self._buf_levels[buf_idx], style_idx

    def _consume(self, live: np.ndarray, actions: np.ndarray,
                 pes: np.ndarray, l1: np.ndarray, batch) -> np.ndarray:
        """Vectorized ``HWAssignmentEnv._consume``: charge the wave's
        layers against each episode's budget; True per violated row.
        ``batch`` is ``None`` for a deferred (not yet scored) wave."""
        constraint = self.env.constraint
        if self._resource:
            self._used_pes[live] += pes
            self._used_l1[live] += pes * l1
            self._used_budget[live] = self._used_pes[live].astype(np.float64)
            return ((self._used_pes[live] > constraint.max_pes)
                    | (self._used_l1[live] > constraint.max_l1_bytes))
        if batch is None:
            consumption = self._level_area[actions[:, 0], actions[:, 1]]
        else:
            consumption = batch.constraint(constraint.kind)
        self._used_budget[live] = self._used_budget[live] + consumption
        return self._used_budget[live] > constraint.budget

    def _finish(self, episode_index: int, steps: int,
                feasible: bool) -> EpisodeResult:
        """Materialize one finished episode and fold it into the shared
        best / episode counters, exactly like ``HWAssignmentEnv._finish``."""
        env = self.env
        space = env.space
        actions = tuple(
            tuple(int(a) for a in self._actions[episode_index, s])
            for s in range(steps))
        if space.is_mix:
            assignments = tuple(
                (int(self._pes[episode_index, s]),
                 int(self._l1[episode_index, s]),
                 space.dataflows[int(self._actions[episode_index, s, 2])])
                for s in range(steps))
        else:
            assignments = tuple(
                (int(self._pes[episode_index, s]),
                 int(self._l1[episode_index, s]))
                for s in range(steps))
        episode = EpisodeResult(
            actions=actions,
            assignments=assignments,
            cost=float(self._episode_cost[episode_index]),
            used=float(self._used_budget[episode_index]),
            feasible=feasible,
            steps=steps,
        )
        env.episodes += 1
        if feasible and (env.best is None or episode.cost < env.best.cost):
            env.best = episode
        return episode

    # ------------------------------------------------------------------
    def step_async(self, actions) -> _WaveHandle:
        """Advance the wave's env-side state and record it for scoring.

        Returns a :class:`_WaveHandle` whose ``observations`` / ``dones``
        are valid immediately; pass it to :meth:`step_wait` -- in issue
        order -- to obtain the wave's rewards.  Under resource caps and
        area budgets the wave is only recorded in the set's
        :class:`EpisodePlan` (the first wait scores every recorded wave
        in one batched call); under a power budget it is scored here,
        because termination needs the report.  No agent RNG is consumed
        env-side, so when the scoring happens never changes a result.
        """
        live = self._live
        if len(live) == 0:
            raise RuntimeError(
                "step() called with no live episodes; reset()")
        actions = np.asarray(actions, dtype=np.int64)
        if actions.ndim != 2 or actions.shape != (len(live), self._heads):
            raise ValueError(
                f"expected an ({len(live)}, {self._heads}) action matrix, "
                f"got shape {actions.shape}")
        env = self.env
        t = self._step_index
        pes, l1, style_idx = self._decode(actions)

        self._actions[live, t] = actions
        self._pes[live, t] = pes
        self._l1[live, t] = l1

        handle = _WaveHandle(live, t)
        self._plan.step(handle, t, style_idx, pes, l1)
        if not self._deferred:
            self._plan.commit()
        violated = self._consume(live, actions, pes, l1, handle.batch)
        handle.violated = violated

        completed = t + 1 >= env.num_steps
        dones = violated | completed

        # Next observations: the scalar encode semantics per row -- the
        # next (layer, step) template for continuing and completed rows,
        # the current one for violating rows -- as two batch fills.
        next_step = min(t + 1, env.num_steps - 1)
        observations = env.encoder.encode_batch(
            env.layers[next_step], next_step, actions)
        if violated.any() and next_step != t:
            observations[violated] = env.encoder.encode_batch(
                env.layers[t], t, actions[violated])

        self._live = live[~dones]
        self._step_index = t + 1
        handle.observations = observations
        handle.dones = dones
        return handle

    def step_wait(self, handle: _WaveHandle):
        """Score (if still unscored) and fold one wave from
        :meth:`step_async`.

        Returns the ``(observations, rewards, dones, info)`` tuple
        :meth:`step` returns, minus ``info["batch"]``.  Handles must be
        waited in issue order (the shared ``p_min`` stream folds across
        waves sequentially).
        """
        if handle.costs is None:
            self._plan.commit()
        env = self.env
        live = handle.live
        t = handle.step
        violated = handle.violated
        costs = handle.costs
        self._episode_cost[live] = self._episode_cost[live] + costs

        # Shared p_min stream, folded across the wave in episode-index
        # order (the scalar stream exactly, for one live episode).
        performance = -costs
        previous = env.p_min
        previous_value = np.inf if previous is None else previous
        stream = np.where(violated, np.inf, performance)
        running = np.minimum(np.minimum.accumulate(stream), previous_value)
        if env.reward_shaping == "pmin":
            shaped = performance - running
        else:
            shaped = performance
        if env.penalty_mode == "accumulated":
            penalties = -self._reward_sum[live]
        else:
            penalties = np.full(len(live), env.constant_penalty)
        rewards = np.where(violated, penalties, shaped)
        self._reward_sum[live] = self._reward_sum[live] + rewards
        final_min = float(running[-1])
        if not np.isinf(final_min):
            env.p_min = final_min

        dones = handle.dones
        episodes_info: List[Optional[EpisodeResult]] = [None] * len(live)
        if dones.any():
            violated_list = violated.tolist()
            for row in np.flatnonzero(dones).tolist():
                episodes_info[row] = self._finish(
                    int(live[row]), t + 1,
                    feasible=not violated_list[row])

        return handle.observations, rewards, dones, {
            "episodes": episodes_info,
            "violated": violated,
        }

    def step(self, actions):
        """Advance every live episode by one layer in a single wave.

        Args:
            actions: ``(len(live_indices), actions_per_step)`` level
                indices, row ``r`` acting for episode ``live_indices[r]``.

        Returns:
            ``(observations, rewards, dones, info)`` -- all row-aligned
            with the stepped episodes.  ``observations`` holds every
            stepped episode's next observation (finished rows carry
            their terminal observation; compact with ``~dones`` before
            the next forward pass).  ``info["episodes"]`` carries one
            :class:`EpisodeResult` per finishing row (``None``
            elsewhere); ``info["batch"]`` is the wave's
            :class:`~repro.costmodel.report.BatchCostReport`.
        """
        handle = self.step_async(actions)
        out = self.step_wait(handle)
        out[3]["batch"] = handle.batch
        return out
