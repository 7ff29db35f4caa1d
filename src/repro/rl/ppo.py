"""PPO2 comparison agent (Schulman et al. 2017).

Clipped-surrogate proximal policy optimization with an MLP policy: the
strongest of the Table-V comparison agents in the paper.  Each epoch
collects one episode, computes standardized discounted returns and
advantages against an MLP value function, then performs several
minibatched update passes with the probability-ratio clip.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.env.environment import HWAssignmentEnv
from repro.nn.autograd import Tensor, no_grad
from repro.nn.functional import mse_loss
from repro.nn.modules import MLP
from repro.nn.optim import Adam, clip_grad_norm
from repro.rl.common import (
    SearchAlgorithm,
    SearchResult,
    as_vector_env,
    discounted_returns,
    drive_wave_sets,
    rollout_waves,
    standardize,
    waves_to_trajectories,
)
from repro.rl.policies import MLPPolicy


class PPO2(SearchAlgorithm):
    """Clipped-surrogate PPO with an MLP actor and critic."""

    name = "ppo2"

    def __init__(self, lr: float = 3e-3, discount: float = 0.9,
                 clip_ratio: float = 0.2, update_epochs: int = 4,
                 minibatch_size: int = 32, entropy_coef: float = 0.01,
                 value_coef: float = 0.5, max_grad_norm: float = 5.0,
                 hidden_sizes=(64, 64), seed: Optional[int] = None) -> None:
        if not 0.0 < clip_ratio < 1.0:
            raise ValueError("clip_ratio must be in (0, 1)")
        self.lr = lr
        self.discount = discount
        self.clip_ratio = clip_ratio
        self.update_epochs = update_epochs
        self.minibatch_size = minibatch_size
        self.entropy_coef = entropy_coef
        self.value_coef = value_coef
        self.max_grad_norm = max_grad_norm
        self.hidden_sizes = tuple(hidden_sizes)
        self.rng = np.random.default_rng(seed)
        self.policy: Optional[MLPPolicy] = None
        self.critic: Optional[MLP] = None
        self.optimizer: Optional[Adam] = None

    def _build(self, env: HWAssignmentEnv) -> None:
        self.policy = MLPPolicy(env.observation_dim, env.space.head_sizes,
                                hidden_sizes=self.hidden_sizes, rng=self.rng)
        self.critic = MLP([env.observation_dim, *self.hidden_sizes, 1],
                          rng=self.rng)
        self.optimizer = Adam(
            self.policy.parameters() + self.critic.parameters(), lr=self.lr)

    def _act_wave(self, observations: np.ndarray):
        """Batched action sampling plus behavior log-probs for a wave."""
        with no_grad():
            dists, _ = self.policy(Tensor(observations), None)
            actions = np.stack([d.sample(self.rng) for d in dists], axis=1)
            log_probs = None
            for head, dist in enumerate(dists):
                head_logp = dist.log_prob(actions[:, head]).numpy()
                log_probs = head_logp if log_probs is None \
                    else log_probs + head_logp
        return actions, log_probs

    def _collect_vector(self, venv, episodes: int):
        """Lockstep episode collection (see :meth:`A2C._collect_vector
        <repro.rl.a2c.A2C._collect_vector>`); each trajectory
        additionally carries its behavior log-probabilities."""
        waves = rollout_waves(venv, episodes, self._act_wave)
        trajectories = waves_to_trajectories(waves, episodes)
        collected = []
        for trajectory in trajectories:
            old_log_probs = np.array([
                float(waves[wave].extras[row])
                for wave, row in trajectory.rows])
            collected.append((np.array(trajectory.observations),
                              trajectory.actions, trajectory.rewards,
                              old_log_probs))
        return collected

    def _surrogate_loss(self, observations, actions, old_log_probs,
                        advantages, returns) -> Tensor:
        obs_tensor = Tensor(observations)
        dists, _ = self.policy(obs_tensor, None)
        log_probs = None
        entropies = None
        for head, dist in enumerate(dists):
            head_actions = [a[head] for a in actions]
            logp = dist.log_prob(head_actions)
            ent = dist.entropy()
            log_probs = logp if log_probs is None else log_probs + logp
            entropies = ent if entropies is None else entropies + ent
        ratio = (log_probs - Tensor(old_log_probs)).exp()
        adv = Tensor(advantages)
        unclipped = ratio * adv
        clipped = ratio.clip(1.0 - self.clip_ratio,
                             1.0 + self.clip_ratio) * adv
        # min(a, b) = b + (a - b).clip(-inf side): compose via elementwise
        # minimum using the identity min(a,b) = 0.5*(a+b-|a-b|).
        diff = unclipped - clipped
        surrogate = 0.5 * (unclipped + clipped - diff.abs())
        values = self.critic(obs_tensor).reshape(len(actions))
        value_loss = mse_loss(values, Tensor(returns))
        return (-surrogate.mean()
                + self.value_coef * value_loss
                - self.entropy_coef * entropies.mean())

    def update_wave(self, collected) -> float:
        """Clipped-surrogate passes over a wave of lockstep episodes.

        The wave is the rollout batch -- the standard vectorized-PPO
        convention: returns and advantages are computed (and
        standardized) per episode, then concatenated so the minibatched
        update passes shuffle across the whole wave.
        """
        observations = np.concatenate([c[0] for c in collected])
        actions = [action for c in collected for action in c[1]]
        old_log_probs = np.concatenate([c[3] for c in collected])
        returns = np.concatenate(
            [standardize(discounted_returns(c[2], self.discount))
             for c in collected])
        with no_grad():
            values = self.critic(Tensor(observations)).numpy().reshape(-1)
        advantages = np.empty_like(returns)
        offset = 0
        for c in collected:
            steps = len(c[2])
            chunk = slice(offset, offset + steps)
            advantages[chunk] = standardize(returns[chunk] - values[chunk])
            offset += steps
        return self._update_passes(observations, actions, old_log_probs,
                                   advantages, returns)

    def _update_passes(self, observations, actions, old_log_probs,
                       advantages, returns) -> float:
        count = len(actions)
        last_loss = 0.0
        for _ in range(self.update_epochs):
            order = self.rng.permutation(count)
            for start in range(0, count, self.minibatch_size):
                batch = order[start:start + self.minibatch_size]
                loss = self._surrogate_loss(
                    observations[batch],
                    [actions[i] for i in batch],
                    old_log_probs[batch],
                    advantages[batch],
                    returns[batch],
                )
                self.optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(self.optimizer.parameters, self.max_grad_norm)
                self.optimizer.step()
                last_loss = loss.item()
        return last_loss

    def search(self, env, epochs: int) -> SearchResult:
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        result, started = self._start(self.name)
        venv = as_vector_env(env)
        if self.policy is None:
            self._build(venv)
        drive_wave_sets(
            venv, epochs, result,
            lambda episodes: self.update_wave(
                self._collect_vector(venv, episodes)))
        self._finalize(result, venv, started)
        result.memory_bytes = 8 * (self.policy.num_parameters()
                                   + self.critic.num_parameters())
        return result
