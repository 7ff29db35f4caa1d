"""REINFORCE -- the global-search stage of ConfuciuX (Section III).

Actor-only policy gradient: no critic approximates the (discrete, irregular)
HW-performance landscape; the policy learns directly from shaped rewards.
Per episode the agent samples one action pair per layer, the rewards are
turned into discounted (d = 0.9) returns, standardized, and the policy is
updated once -- the paper's "policy network gets updated at the end of each
epoch".
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.env.environment import HWAssignmentEnv
from repro.nn.autograd import Tensor
from repro.nn.optim import Adam, clip_grad_norm
from repro.rl.common import (
    SearchAlgorithm,
    SearchResult,
    as_vector_env,
    drive_wave_sets,
    normalize_rewards_for_training,
)
from repro.rl.policies import build_policy


class Reinforce(SearchAlgorithm):
    """The Con'X(global) agent.

    Args:
        policy: "rnn" (the paper's LSTM-128) or "mlp" (Table IX ablation).
        lr: Adam learning rate.
        discount: Return discount; the paper found 0.9 a good default.
        entropy_coef: Exploration bonus weight.
        hidden_size: LSTM width.
        seed: RNG seed for reproducible searches.
    """

    name = "reinforce"

    def __init__(self, policy: str = "rnn", lr: float = 3e-3,
                 discount: float = 0.9, entropy_coef: float = 0.01,
                 hidden_size: int = 128, max_grad_norm: float = 5.0,
                 seed: Optional[int] = None) -> None:
        self.policy_kind = policy
        self.lr = lr
        self.discount = discount
        self.entropy_coef = entropy_coef
        self.hidden_size = hidden_size
        self.max_grad_norm = max_grad_norm
        self.rng = np.random.default_rng(seed)
        self.policy = None
        self.optimizer = None

    # ------------------------------------------------------------------
    def _build(self, env: HWAssignmentEnv) -> None:
        self.policy = build_policy(
            self.policy_kind, env.observation_dim, env.space.head_sizes,
            rng=self.rng, hidden_size=self.hidden_size)
        self.optimizer = Adam(self.policy.parameters(), lr=self.lr)

    def run_episode(self, env):
        """Roll out one episode (a one-episode wave) keeping the autograd
        graph alive.

        Returns (log_prob tensors, entropy tensors, rewards, episode info).
        """
        return self.run_wave(as_vector_env(env), 1)[0]

    # Kept for the benchmark's tracer, which wraps this name.
    run_episode_planned = run_episode

    def run_wave(self, venv, episodes: int):
        """Roll ``episodes`` lockstep episodes through a vector env.

        One policy forward (and one batched action draw per head) serves
        the whole wave.  The LSTM state is row-compacted as episodes
        finish.  Every wave is issued before any is waited -- the
        policy is updated only at the end of the epoch, so rewards are
        needed only then -- which lets the env score the whole wave set
        in one batched cost call under resource caps and area budgets.
        Returns one ``(log_probs, entropies, rewards, episode)`` tuple
        per episode, where the tensors are single-row views into the
        wave graph (a one-row wave's tensors themselves) and ``episode``
        is its :class:`~repro.env.environment.EpisodeResult`.
        """
        observations = venv.reset(episodes)
        state = self.policy.initial_state(batch=episodes)
        issued = []
        while not venv.all_done:
            live = venv.live_indices
            dists, state = self.policy(Tensor(observations), state)
            actions = np.stack([d.sample(self.rng) for d in dists], axis=1)
            step_logp = dists[0].log_prob(actions[:, 0])
            step_entropy = dists[0].entropy()
            for head, dist in enumerate(dists[1:], start=1):
                step_logp = step_logp + dist.log_prob(actions[:, head])
                step_entropy = step_entropy + dist.entropy()
            handle = venv.step_async(actions)
            issued.append((live, step_logp, step_entropy, handle))
            keep = ~handle.dones
            observations = handle.observations[keep]
            if state is not None and not keep.all():
                state = (state[0][keep], state[1][keep])

        per_episode = [([], [], []) for _ in range(episodes)]
        finished = [None] * episodes
        for live, step_logp, step_entropy, handle in issued:
            _, rewards, _, info = venv.step_wait(handle)
            reward_list = rewards.tolist()
            for row, index in enumerate(live.tolist()):
                log_probs, entropies, episode_rewards = per_episode[index]
                if len(live) == 1:  # skip the gather node
                    log_probs.append(step_logp)
                    entropies.append(step_entropy)
                else:
                    log_probs.append(step_logp[[row]])
                    entropies.append(step_entropy[[row]])
                episode_rewards.append(reward_list[row])
                finished[index] = info["episodes"][row] or finished[index]
        return [(*logs, episode)
                for logs, episode in zip(per_episode, finished)]

    def _episode_loss(self, log_probs: List[Tensor],
                      entropies: List[Tensor],
                      rewards: List[float]) -> Tensor:
        """The REINFORCE loss of one episode (kept as a tensor)."""
        returns = normalize_rewards_for_training(rewards, self.discount)
        loss = None
        for log_prob, entropy, g in zip(log_probs, entropies, returns):
            term = log_prob * float(g) + entropy * self.entropy_coef
            loss = term if loss is None else loss + term
        return -loss.sum() * (1.0 / max(len(rewards), 1))

    def update(self, log_probs: List[Tensor], entropies: List[Tensor],
               rewards: List[float]) -> float:
        """One policy-gradient step on one episode; returns the loss."""
        return self.update_wave([(log_probs, entropies, rewards, None)])

    def update_wave(self, per_episode) -> float:
        """One policy-gradient step over a wave of episodes.

        The wave's episodes form one minibatch -- the mean of the
        per-episode losses, the standard vectorized-REINFORCE estimator
        (the per-step tensors share one wave graph, which supports a
        single backward).
        """
        losses = [self._episode_loss(log_probs, entropies, rewards)
                  for log_probs, entropies, rewards, _ in per_episode]
        loss = losses[0]
        for other in losses[1:]:
            loss = loss + other
        if len(losses) > 1:
            loss = loss * (1.0 / len(losses))
        self.optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(self.optimizer.parameters, self.max_grad_norm)
        self.optimizer.step()
        return loss.item()

    # ------------------------------------------------------------------
    def search(self, env, epochs: int) -> SearchResult:
        """Train for ``epochs`` episodes; track the best feasible design.

        ``env`` is a vector env (``envs`` lockstep episodes per update)
        or a bare :class:`HWAssignmentEnv`, run as a one-env vector env.
        """
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        result, started = self._start(self.name)
        venv = as_vector_env(env)
        if self.policy is None:
            self._build(venv)
        drive_wave_sets(
            venv, epochs, result,
            lambda episodes: self.update_wave(self.run_wave(venv, episodes)))
        self._finalize(result, venv, started)
        result.memory_bytes = 8 * self.policy.num_parameters()
        return result
