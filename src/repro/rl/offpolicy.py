"""Shared machinery for the continuous off-policy agents (DDPG/TD3/SAC).

The HW-assignment action space is discrete (Table-I levels), so the
continuous agents act in the box [-1, 1]^d -- d = 2, or 3 under MIX -- and
the environment adapter snaps each coordinate onto the nearest level, the
standard discretization the paper uses when comparing against continuous
methods ("DDPG, SAC, and TD3 in continuous space").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.env.environment import HWAssignmentEnv
from repro.nn.autograd import Tensor, no_grad
from repro.nn.modules import MLP, Module
from repro.rl.common import (
    ReplayBuffer,
    SearchAlgorithm,
    SearchResult,
    as_vector_env,
    drive_wave_sets,
)


def continuous_to_levels(action: np.ndarray,
                         head_sizes: Tuple[int, ...]) -> List[int]:
    """Map a point in [-1, 1]^d onto per-head level indices."""
    levels = []
    for coordinate, size in zip(action, head_sizes):
        fraction = (float(np.clip(coordinate, -1.0, 1.0)) + 1.0) / 2.0
        levels.append(int(round(fraction * (size - 1))))
    return levels


def continuous_to_levels_batch(actions: np.ndarray,
                               head_sizes: Tuple[int, ...]) -> np.ndarray:
    """Vectorized :func:`continuous_to_levels` over an ``(E, d)`` batch.

    ``np.rint`` matches Python's round-half-even, so every row is
    bit-identical to the scalar mapping.
    """
    fractions = (np.clip(actions, -1.0, 1.0) + 1.0) / 2.0
    sizes = np.asarray(head_sizes, dtype=np.float64) - 1.0
    return np.rint(fractions * sizes).astype(np.int64)


class QNetwork(Module):
    """State-action value network Q(s, a)."""

    def __init__(self, obs_dim: int, action_dim: int,
                 hidden_sizes=(64, 64),
                 rng: Optional[np.random.Generator] = None) -> None:
        self.net = MLP([obs_dim + action_dim, *hidden_sizes, 1],
                       activation="relu", rng=rng)

    def forward(self, obs: Tensor, action: Tensor) -> Tensor:
        return self.net(Tensor.concat([obs, action], axis=-1))


class OffPolicyAgent(SearchAlgorithm):
    """Base loop: act, store, and update once per environment step."""

    name = "offpolicy"

    def __init__(self, lr: float = 1e-3, discount: float = 0.9,
                 tau: float = 0.01, batch_size: int = 64,
                 warmup_steps: int = 256, buffer_capacity: int = 50_000,
                 hidden_sizes=(64, 64), updates_per_step: int = 1,
                 seed: Optional[int] = None) -> None:
        self.lr = lr
        self.discount = discount
        self.tau = tau
        self.batch_size = batch_size
        self.warmup_steps = warmup_steps
        self.buffer_capacity = buffer_capacity
        self.hidden_sizes = tuple(hidden_sizes)
        self.updates_per_step = updates_per_step
        self.rng = np.random.default_rng(seed)
        self.buffer: Optional[ReplayBuffer] = None
        self.action_dim = 0
        self._total_steps = 0

    # Subclass interface ------------------------------------------------
    def _build(self, env: HWAssignmentEnv) -> None:
        raise NotImplementedError

    def _act_batch(self, observations: np.ndarray,
                   explore: bool) -> np.ndarray:
        """Box actions for an ``(E, obs_dim)`` wave: one policy forward
        and one batched noise draw."""
        raise NotImplementedError

    def _update(self) -> None:
        raise NotImplementedError

    def _memory_bytes(self) -> int:
        raise NotImplementedError

    # Shared loops ------------------------------------------------------
    def _wave_actions(self, observations: np.ndarray) -> np.ndarray:
        """Actions for one lockstep wave, honoring the warmup schedule.

        The warmup budget is spent in episode-index order within the
        wave: the leading rows still inside it draw uniform box actions
        (one batched draw), the rest act through the policy (one batched
        forward + noise draw) -- for one live episode, the per-step
        warmup rule.
        """
        live = len(observations)
        warmup_rows = int(np.clip(self.warmup_steps - self._total_steps,
                                  0, live))
        actions = np.empty((live, self.action_dim))
        if warmup_rows:
            actions[:warmup_rows] = self.rng.uniform(
                -1.0, 1.0, (warmup_rows, self.action_dim))
        if warmup_rows < live:
            actions[warmup_rows:] = self._act_batch(
                observations[warmup_rows:], explore=True)
        return actions

    def _run_wave_set(self, venv, episodes: int) -> None:
        """One lockstep wave set: per wave, one batched act, one batched
        env step (a single cost-model call), one transition append per
        live episode, and -- past warmup -- one replay update per
        transition (the one-update-per-environment-step cadence)."""
        head_sizes = venv.space.head_sizes
        observations = venv.reset(episodes)
        while not venv.all_done:
            actions = self._wave_actions(observations)
            levels = continuous_to_levels_batch(actions, head_sizes)
            next_observations, rewards, dones, _ = venv.step(levels)
            live = len(levels)
            for row in range(live):
                self.buffer.add(observations[row], actions[row],
                                rewards[row], next_observations[row],
                                dones[row])
            self._total_steps += live
            if (self._total_steps >= self.warmup_steps
                    and len(self.buffer) >= self.batch_size):
                for _ in range(live * self.updates_per_step):
                    self._update()
            observations = next_observations[~dones]

    def search(self, env, epochs: int) -> SearchResult:
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        result, started = self._start(self.name)
        venv = as_vector_env(env)
        if self.buffer is None:
            self.action_dim = len(venv.space.head_sizes)
            self.buffer = ReplayBuffer(self.buffer_capacity,
                                       venv.observation_dim, self.action_dim)
            self._build(venv)
        drive_wave_sets(
            venv, epochs, result,
            lambda episodes: self._run_wave_set(venv, episodes))
        self._finalize(result, venv, started)
        result.memory_bytes = self._memory_bytes()
        # Replay buffer dominates the paper's memory-overhead row.
        result.memory_bytes += self.buffer.obs.nbytes * 2 \
            + self.buffer.actions.nbytes + self.buffer.rewards.nbytes \
            + self.buffer.dones.nbytes
        return result

    def _sample_batch(self):
        obs, actions, rewards, next_obs, dones = self.buffer.sample(
            self.batch_size, self.rng)
        return (Tensor(obs), Tensor(actions), rewards, Tensor(next_obs),
                dones)
