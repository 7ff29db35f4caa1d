"""The HW-assignment environment (paper Figure 3, Sections III-B..III-F).

An episode ("epoch" in the paper) walks the model's layers; each step the
agent assigns (PEs, Buffer) -- and a dataflow style under MIX -- to the
current layer.  The environment

* evaluates the layer with the cost model,
* tracks the remaining constraint budget and terminates with a penalty
  equal to the negated accumulated episode reward when it is violated
  (equation 2's Penalty branch),
* shapes rewards as ``P_t - P_min`` where ``P_t`` is the (negated) layer
  cost and ``P_min`` the worst layer performance observed across *all*
  episodes, keeping rewards positive while feasible, and
* records the best feasible complete design point seen so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.constraints import PlatformConstraint, ResourceConstraint
from repro.core.evaluator import Constraint
from repro.costmodel.batched import LayerTable
from repro.costmodel.estimator import CostModel
from repro.costmodel.report import CostReport
from repro.env.observation import ObservationEncoder
from repro.env.spaces import ActionSpace
from repro.models.layers import Layer
from repro.objectives import resolve_objective


@dataclass(frozen=True)
class EpisodeResult:
    """Summary of one completed episode."""

    actions: Tuple[Tuple[int, ...], ...]
    assignments: Tuple[Tuple, ...]
    cost: float
    used: float
    feasible: bool
    steps: int

    @property
    def genome(self) -> List[int]:
        """Flattened level-index genome (stage-2 GA seed format)."""
        return [gene for action in self.actions for gene in action]


class HWAssignmentEnv:
    """Layer-by-layer resource-assignment MDP.

    Args:
        layers: The target model (one time step per layer).
        space: Coarse-grained action space (Table I).
        objective: Any objective spec (registered name, ``weighted:`` /
            ``multi:`` string, spec dict, or
            :class:`repro.objectives.Objective` instance) -- minimized.
            Episodic rewards score the resolved objective per layer;
            multi-objective specs reward their primary component.
        constraint: Area/power budget or FPGA resource caps.
        cost_model: Analytical estimator (the Env's MAESTRO).
        dataflow: Fixed style; required unless ``space.is_mix``.
        reward_shaping: "pmin" (the paper's P_t - P_min shaping) or "raw"
            (the unshaped negative cost) -- the ablation knob behind the
            Section III-E design argument.
        penalty_mode: "accumulated" (the paper's negated accumulated
            episode reward) or "constant" (the threshold-based penalty the
            paper argues against).
        constant_penalty: Penalty value used when ``penalty_mode`` is
            "constant".
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        space: ActionSpace,
        objective: str,
        constraint: Constraint,
        cost_model: CostModel,
        dataflow: Optional[str] = None,
        reward_shaping: str = "pmin",
        penalty_mode: str = "accumulated",
        constant_penalty: float = -1.0,
    ) -> None:
        if not layers:
            raise ValueError("model has no layers")
        if not space.is_mix and dataflow is None:
            raise ValueError("a dataflow is required for non-MIX spaces")
        if reward_shaping not in ("pmin", "raw"):
            raise ValueError(
                f"unknown reward_shaping {reward_shaping!r} "
                f"(use 'pmin' or 'raw')")
        if penalty_mode not in ("accumulated", "constant"):
            raise ValueError(
                f"unknown penalty_mode {penalty_mode!r} "
                f"(use 'accumulated' or 'constant')")
        self.layers = list(layers)
        self.space = space
        self.objective = resolve_objective(objective)
        self.constraint = constraint
        self.cost_model = cost_model
        self.dataflow = dataflow
        self.reward_shaping = reward_shaping
        self.penalty_mode = penalty_mode
        self.constant_penalty = constant_penalty
        self.encoder = ObservationEncoder.for_model(self.layers, space)

        # Cross-episode state (paper: tracked during the training process).
        self.p_min: Optional[float] = None
        self.best: Optional[EpisodeResult] = None
        self.episodes = 0
        self.evaluations = 0

        self._reset_episode_state()

    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        return len(self.layers)

    @property
    def observation_dim(self) -> int:
        return 10

    def _reset_episode_state(self) -> None:
        self._step = 0
        self._prev_action: Optional[Sequence[int]] = None
        self._episode_rewards: List[float] = []
        self._episode_actions: List[Tuple[int, ...]] = []
        self._episode_assignments: List[Tuple] = []
        self._episode_cost = 0.0
        self._used_budget = 0.0
        self._used_pes = 0
        self._used_l1 = 0
        self._done = False

    # ------------------------------------------------------------------
    def reset(self) -> np.ndarray:
        """Start a new episode; returns the first observation."""
        self._reset_episode_state()
        return self.encoder.encode(self.layers[0], 0, None)

    def step(self, action: Sequence[int]):
        """Apply one action pair; returns (obs, reward, done, info).

        ``info['episode']`` carries the :class:`EpisodeResult` on the step
        that ends the episode (success or violation), else ``None``.
        """
        if self._done:
            raise RuntimeError("step() called on a finished episode; reset()")
        action = tuple(int(a) for a in action)
        layer = self.layers[self._step]
        decoded = self.space.decode(action)
        if len(decoded) == 3:
            pes, l1_bytes, style = decoded
        else:
            pes, l1_bytes = decoded
            style = self.dataflow
        report = self.cost_model.evaluate_layer(layer, style, pes, l1_bytes)
        self.evaluations += 1

        self._episode_actions.append(action)
        self._episode_assignments.append(decoded)
        self._episode_cost += self.objective.evaluate(report)
        violated = self._consume(report, pes, l1_bytes)

        if violated:
            if self.penalty_mode == "accumulated":
                # Equation 2: the penalty is the negated accumulated
                # reward, scaling itself to the objective's magnitude.
                reward = -float(sum(self._episode_rewards))
            else:
                reward = self.constant_penalty
            self._episode_rewards.append(reward)
            episode = self._finish(feasible=False)
            observation = self.encoder.encode(layer, self._step,
                                              action)
            return observation, reward, True, {
                "report": report, "violated": True, "episode": episode,
            }

        performance = -self.objective.evaluate(report)
        if self.p_min is None or performance < self.p_min:
            self.p_min = performance
        if self.reward_shaping == "pmin":
            reward = performance - self.p_min
        else:
            reward = performance
        self._episode_rewards.append(reward)

        self._prev_action = action
        self._step += 1
        done = self._step >= self.num_steps
        episode = self._finish(feasible=True) if done else None
        if done:
            next_layer = layer
        else:
            next_layer = self.layers[self._step]
        observation = self.encoder.encode(next_layer, min(self._step,
                                                          self.num_steps - 1),
                                          action)
        return observation, reward, done, {
            "report": report, "violated": False, "episode": episode,
        }

    # ------------------------------------------------------------------
    def _consume(self, report: CostReport, pes: int, l1_bytes: int) -> bool:
        """Charge this layer against the budget; True if now violated."""
        constraint = self.constraint
        if isinstance(constraint, ResourceConstraint):
            self._used_pes += pes
            self._used_l1 += pes * l1_bytes
            self._used_budget = float(self._used_pes)
            return (self._used_pes > constraint.max_pes
                    or self._used_l1 > constraint.max_l1_bytes)
        self._used_budget += constraint.consumption(report)
        return self._used_budget > constraint.budget

    def _finish(self, feasible: bool) -> EpisodeResult:
        self._done = True
        self.episodes += 1
        episode = EpisodeResult(
            actions=tuple(self._episode_actions),
            assignments=tuple(self._episode_assignments),
            cost=self._episode_cost,
            used=self._used_budget,
            feasible=feasible,
            steps=len(self._episode_actions),
        )
        if feasible and (self.best is None or episode.cost < self.best.cost):
            self.best = episode
        return episode

    # ------------------------------------------------------------------
    def budget_left(self) -> float:
        """L_budget of Section III-D (inf when unconstrained)."""
        constraint = self.constraint
        if isinstance(constraint, ResourceConstraint):
            return float(constraint.max_pes - self._used_pes)
        return constraint.budget - self._used_budget

    @property
    def plan_table(self) -> LayerTable:
        """This model's :class:`LayerTable`, built once per env."""
        if getattr(self, "_plan_table", None) is None:
            self._plan_table = LayerTable.build(self.layers)
        return self._plan_table


class EpisodePlan:
    """The unscored waves of one lockstep wave set over a
    :class:`HWAssignmentEnv`.

    :class:`~repro.env.vector.VectorHWAssignmentEnv` records every wave
    it issues (:meth:`step`) and scores all recorded waves in one
    :meth:`BatchedCostModel.evaluate
    <repro.costmodel.batched.BatchedCostModel.evaluate>` call
    (:meth:`commit`) -- the call an installed parallel backend shards.
    Waves whose termination needs no cost report (resource caps, area
    budgets) stay recorded until the first wait of the set; a
    power-budgeted wave is committed as soon as it is recorded, since its
    termination depends on the report.  The kernel is elementwise, so one
    call over many waves is bit-identical to one call per wave.
    """

    def __init__(self, env: HWAssignmentEnv) -> None:
        self.env = env
        self._waves: List[Tuple] = []

    def step(self, wave, step_index: int, style_idx: np.ndarray,
             pes: np.ndarray, l1_bytes: np.ndarray) -> None:
        """Record one wave: its rows evaluate layer ``step_index`` at the
        given styles, PE counts and L1 sizes."""
        self._waves.append((wave, step_index, style_idx, pes, l1_bytes))

    def commit(self) -> None:
        """Score every recorded wave in one batched call.

        Each recorded wave receives its objective values
        (``wave.costs``); a wave scored alone also keeps the report
        (``wave.batch``), which power budgets and ``step()`` read.
        """
        waves, self._waves = self._waves, []
        if not waves:
            return
        env = self.env
        sizes = [len(pes) for _, _, _, pes, _ in waves]
        batch = env.cost_model.batched.evaluate(
            env.plan_table,
            np.repeat(np.array([step for _, step, _, _, _ in waves],
                               dtype=np.int64), sizes),
            np.concatenate([style for _, _, style, _, _ in waves]),
            np.concatenate([pes for _, _, _, pes, _ in waves]),
            np.concatenate([l1 for _, _, _, _, l1 in waves]))
        env.evaluations += len(batch)
        costs = np.asarray(env.objective.evaluate(batch), dtype=np.float64)
        if len(waves) == 1:
            waves[0][0].batch = batch
        start = 0
        for (wave, *_), size in zip(waves, sizes):
            wave.costs = costs[start:start + size]
            start += size
