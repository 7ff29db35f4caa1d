"""TD3 comparison agent (Fujimoto et al. 2018).

DDPG plus the three TD3 fixes: clipped double-Q (twin critics, min target),
target-policy smoothing noise, and delayed actor updates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.env.environment import HWAssignmentEnv
from repro.nn.autograd import Tensor, no_grad
from repro.nn.functional import huber_loss
from repro.nn.modules import MLP
from repro.nn.optim import Adam
from repro.rl.offpolicy import OffPolicyAgent, QNetwork


class TD3(OffPolicyAgent):
    """Twin-delayed DDPG over the level box."""

    name = "td3"

    def __init__(self, noise_sigma: float = 0.2, target_noise: float = 0.2,
                 noise_clip: float = 0.5, policy_delay: int = 2,
                 **kwargs) -> None:
        super().__init__(**kwargs)
        if policy_delay < 1:
            raise ValueError("policy_delay must be >= 1")
        self.noise_sigma = noise_sigma
        self.target_noise = target_noise
        self.noise_clip = noise_clip
        self.policy_delay = policy_delay
        self._updates = 0

    def _build(self, env: HWAssignmentEnv) -> None:
        obs_dim = env.observation_dim

        def make_actor() -> MLP:
            return MLP([obs_dim, *self.hidden_sizes, self.action_dim],
                       activation="relu", output_activation="tanh",
                       rng=self.rng)

        self.actor = make_actor()
        self.actor_target = make_actor()
        self.actor_target.load_state_dict(self.actor.state_dict())
        self.critic1 = QNetwork(obs_dim, self.action_dim, self.hidden_sizes,
                                rng=self.rng)
        self.critic2 = QNetwork(obs_dim, self.action_dim, self.hidden_sizes,
                                rng=self.rng)
        self.critic1_target = QNetwork(obs_dim, self.action_dim,
                                       self.hidden_sizes, rng=self.rng)
        self.critic2_target = QNetwork(obs_dim, self.action_dim,
                                       self.hidden_sizes, rng=self.rng)
        self.critic1_target.load_state_dict(self.critic1.state_dict())
        self.critic2_target.load_state_dict(self.critic2.state_dict())
        self.actor_optimizer = Adam(self.actor.parameters(), lr=self.lr)
        self.critic_optimizer = Adam(
            self.critic1.parameters() + self.critic2.parameters(),
            lr=self.lr)

    def _act_batch(self, observations: np.ndarray,
                   explore: bool) -> np.ndarray:
        with no_grad():
            actions = self.actor(Tensor(observations)).numpy()
        if explore:
            actions = actions + self.rng.normal(0.0, self.noise_sigma,
                                                size=actions.shape)
        return np.clip(actions, -1.0, 1.0)

    def _update(self) -> None:
        obs, actions, rewards, next_obs, dones = self._sample_batch()
        with no_grad():
            noise = np.clip(
                self.rng.normal(0.0, self.target_noise,
                                size=(self.batch_size, self.action_dim)),
                -self.noise_clip, self.noise_clip)
            next_actions = np.clip(
                self.actor_target(next_obs).numpy() + noise, -1.0, 1.0)
            next_actions = Tensor(next_actions)
            q1 = self.critic1_target(next_obs, next_actions).numpy()
            q2 = self.critic2_target(next_obs, next_actions).numpy()
            next_q = np.minimum(q1, q2).reshape(-1)
        targets = Tensor(rewards + self.discount * (1.0 - dones) * next_q)

        q1_values = self.critic1(obs, actions).reshape(self.batch_size)
        q2_values = self.critic2(obs, actions).reshape(self.batch_size)
        critic_loss = huber_loss(q1_values, targets) \
            + huber_loss(q2_values, targets)
        self.critic_optimizer.zero_grad()
        critic_loss.backward()
        self.critic_optimizer.step()

        self._updates += 1
        if self._updates % self.policy_delay == 0:
            actor_actions = self.actor(obs)
            actor_loss = -self.critic1(obs, actor_actions).mean()
            self.actor_optimizer.zero_grad()
            self.critic1.zero_grad()
            actor_loss.backward()
            self.actor_optimizer.step()
            self.critic1.zero_grad()
            self.actor_target.soft_update(self.actor, self.tau)
            self.critic1_target.soft_update(self.critic1, self.tau)
            self.critic2_target.soft_update(self.critic2, self.tau)

    def _memory_bytes(self) -> int:
        return 8 * 2 * (self.actor.num_parameters()
                        + self.critic1.num_parameters()
                        + self.critic2.num_parameters())
