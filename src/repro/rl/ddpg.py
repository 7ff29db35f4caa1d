"""DDPG comparison agent (Lillicrap et al. 2015).

Deterministic tanh actor with Gaussian exploration noise, a single Q
critic, and Polyak-averaged target networks.
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


class DDPG(OffPolicyAgent):
    """Deep deterministic policy gradient over the level box."""

    name = "ddpg"

    def __init__(self, noise_sigma: float = 0.2, **kwargs) -> None:
        super().__init__(**kwargs)
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        self.noise_sigma = noise_sigma

    def _build(self, env: HWAssignmentEnv) -> None:
        obs_dim = env.observation_dim
        self.actor = MLP([obs_dim, *self.hidden_sizes, self.action_dim],
                         activation="relu", output_activation="tanh",
                         rng=self.rng)
        self.critic = QNetwork(obs_dim, self.action_dim, self.hidden_sizes,
                               rng=self.rng)
        self.actor_target = MLP(
            [obs_dim, *self.hidden_sizes, self.action_dim],
            activation="relu", output_activation="tanh", rng=self.rng)
        self.critic_target = QNetwork(obs_dim, self.action_dim,
                                      self.hidden_sizes, rng=self.rng)
        self.actor_target.load_state_dict(self.actor.state_dict())
        self.critic_target.load_state_dict(self.critic.state_dict())
        self.actor_optimizer = Adam(self.actor.parameters(), lr=self.lr)
        self.critic_optimizer = Adam(self.critic.parameters(), lr=self.lr)

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
            next_actions = self.actor_target(next_obs)
            next_q = self.critic_target(next_obs, next_actions).numpy()
            next_q = next_q.reshape(-1)
        targets = rewards + self.discount * (1.0 - dones) * next_q

        q_values = self.critic(obs, actions).reshape(self.batch_size)
        critic_loss = huber_loss(q_values, Tensor(targets))
        self.critic_optimizer.zero_grad()
        critic_loss.backward()
        self.critic_optimizer.step()

        # Policy gradient: maximize Q(s, pi(s)).
        actor_actions = self.actor(obs)
        actor_loss = -self.critic(obs, actor_actions).mean()
        self.actor_optimizer.zero_grad()
        self.critic.zero_grad()
        actor_loss.backward()
        self.actor_optimizer.step()
        self.critic.zero_grad()

        self.actor_target.soft_update(self.actor, self.tau)
        self.critic_target.soft_update(self.critic, self.tau)

    def _memory_bytes(self) -> int:
        return 8 * 2 * (self.actor.num_parameters()
                        + self.critic.num_parameters())
