"""Whole-design-point evaluation shared by every search method.

The RL environment steps layer by layer, but the baseline optimizers (grid /
random / SA / GA / Bayesian) and the stage-2 GA treat a complete per-layer
assignment -- a *genome* -- as one sample.  ``DesignPointEvaluator`` turns a
genome into (objective value, feasibility, report) under a platform or
resource constraint, counting evaluations so sample efficiency can be
compared across methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.constraints import PlatformConstraint, ResourceConstraint
from repro.costmodel.batched import (
    STYLE_INDEX,
    LayerTable,
    ordered_row_sum,
)
from repro.costmodel.estimator import CostModel
from repro.costmodel.report import ModelCostReport, UtilizationReport
from repro.env.spaces import ActionSpace
from repro.models.layers import Layer
from repro.objectives import CostTotals, resolve_objective

Constraint = Union[PlatformConstraint, ResourceConstraint]

#: A raw per-layer assignment: (pes, l1_bytes) or (pes, l1_bytes, style).
RawAssignment = Tuple


@dataclass(frozen=True)
class EvalResult:
    """Outcome of evaluating one complete design point."""

    cost: float
    feasible: bool
    used: float
    report: ModelCostReport

    def utilization(self, constraint: Constraint) -> UtilizationReport:
        budget = (constraint.budget
                  if isinstance(constraint, PlatformConstraint)
                  else float(constraint.max_pes))
        return UtilizationReport(constraint=constraint.kind, budget=budget,
                                 used=self.used)


class DesignPointEvaluator:
    """Evaluate complete genomes for a (model, objective, constraint) task.

    Args:
        layers: Target model.
        objective: Any objective spec -- a registered name
            ("latency" / "energy" / "edp" / ...), a ``weighted:`` /
            ``multi:`` string, a spec dict, or an
            :class:`repro.objectives.Objective` instance (minimized).
        constraint: Platform (area/power) or resource (FPGA) budget.
        cost_model: The analytical estimator.
        space: Action space for level-indexed genomes.
        dataflow: Default style when assignments carry none.
        deployment: "lp" (per-layer partitions) or "ls" (one shared point).

    The resolved :class:`~repro.objectives.Objective` is exposed as
    :attr:`objective`; multi-objective specs score ``EvalResult.cost``
    with their primary component (Pareto methods re-rank from the
    aggregate figures on each result's report).
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        objective,
        constraint: Constraint,
        cost_model: CostModel,
        space: ActionSpace,
        dataflow: Optional[str] = None,
        deployment: str = "lp",
    ) -> None:
        if deployment not in ("lp", "ls"):
            raise ValueError("deployment must be 'lp' or 'ls'")
        if space.is_mix and dataflow is None:
            dataflow = space.dataflows[0]
        if not space.is_mix and dataflow is None:
            raise ValueError("a dataflow is required for non-MIX spaces")
        self.layers = list(layers)
        self.objective = resolve_objective(objective)
        self.constraint = constraint
        self.cost_model = cost_model
        self.space = space
        self.dataflow = dataflow
        self.deployment = deployment
        self.evaluations = 0
        #: Population evaluations served by the duplicate-row memo
        #: instead of the kernel (see ``_evaluate_population_arrays``).
        self.cache_hits = 0
        self._table: Optional[LayerTable] = None

    # ------------------------------------------------------------------
    @property
    def genome_length(self) -> int:
        """Genes per genome: 2N, or 3N under MIX (Section III-G)."""
        return len(self.layers) * self.space.actions_per_step

    def decode_genome(self, genome: Sequence[int]) -> List[RawAssignment]:
        """Level-index genome -> raw per-layer assignments."""
        per_step = self.space.actions_per_step
        if len(genome) != self.genome_length:
            raise ValueError(
                f"genome length {len(genome)} != expected "
                f"{self.genome_length}"
            )
        assignments: List[RawAssignment] = []
        for i in range(len(self.layers)):
            chunk = genome[i * per_step:(i + 1) * per_step]
            assignments.append(self.space.decode(chunk))
        return assignments

    # ------------------------------------------------------------------
    def evaluate_genome(self, genome: Sequence[int]) -> EvalResult:
        """Evaluate a level-indexed genome."""
        return self.evaluate_raw(self.decode_genome(genome))

    def evaluate_raw(
        self, assignments: Sequence[RawAssignment]
    ) -> EvalResult:
        """Evaluate raw (pes, l1_bytes[, style]) per-layer assignments."""
        self.evaluations += 1
        if self.deployment == "ls":
            pes, l1_bytes = assignments[0][0], assignments[0][1]
            style = (assignments[0][2] if len(assignments[0]) == 3
                     else self.dataflow)
            report = self.cost_model.evaluate_model_ls(
                self.layers, pes, l1_bytes, style)
        else:
            report = self.cost_model.evaluate_model(
                self.layers, assignments, dataflow=self.dataflow)
        used, feasible = self._check(report, assignments)
        return EvalResult(
            cost=self.objective.evaluate(report),
            feasible=feasible,
            used=used,
            report=report,
        )

    # ------------------------------------------------------------------
    # Population (batched) evaluation
    # ------------------------------------------------------------------
    def evaluate_population(
        self, genomes: Sequence[Sequence[int]]
    ) -> List[EvalResult]:
        """Evaluate a whole population of level-index genomes as one batch.

        The genomes are decoded with array indexing and evaluated through
        the vectorized estimator, including vectorized constraint checks
        for both platform (area/power) and FPGA resource budgets.  The
        returned costs, feasibility flags, and used-budget figures are
        bit-identical to calling :meth:`evaluate_genome` per genome; the
        per-result :class:`ModelCostReport` carries the aggregate figures
        with an empty ``per_layer`` list (population consumers only read
        the aggregates).
        """
        genomes = list(genomes)
        if not genomes:
            return []
        try:
            genes = np.asarray(genomes, dtype=np.int64)
        except ValueError:
            raise ValueError(
                f"population genomes must all have length "
                f"{self.genome_length}"
            ) from None
        if genes.ndim != 2 or genes.shape[1] != self.genome_length:
            raise ValueError(
                f"population genomes must all have length "
                f"{self.genome_length}, got shape {genes.shape}"
            )
        per_step = self.space.actions_per_step
        pe_idx = genes[:, 0::per_step]
        buf_idx = genes[:, 1::per_step]
        num_levels = self.space.num_levels
        if pe_idx.min() < 0 or pe_idx.max() >= num_levels:
            raise ValueError("PE level index out of range")
        if buf_idx.min() < 0 or buf_idx.max() >= num_levels:
            raise ValueError("buffer level index out of range")
        pes = np.asarray(self.space.pe_levels, dtype=np.int64)[pe_idx]
        l1_bytes = np.asarray(self.space.buf_levels, dtype=np.int64)[buf_idx]
        if self.space.is_mix:
            df_idx = genes[:, 2::per_step]
            if df_idx.min() < 0 or df_idx.max() >= len(self.space.dataflows):
                raise ValueError("dataflow index out of range")
            lut = np.asarray(
                [STYLE_INDEX[s] for s in self.space.dataflows],
                dtype=np.int64)
            style_idx = lut[df_idx]
        else:
            style_idx = np.full(pes.shape, STYLE_INDEX[self.dataflow],
                                dtype=np.int64)
        return self._evaluate_population_arrays(pes, l1_bytes, style_idx)

    def evaluate_population_raw(
        self, populations: Sequence[Sequence[RawAssignment]]
    ) -> List[EvalResult]:
        """Batched :meth:`evaluate_raw` over many complete assignments.

        Used by the stage-2 GA, whose candidates live in the raw integer
        space rather than the level-index space.
        """
        populations = list(populations)
        if not populations:
            return []
        num_layers = len(self.layers)
        default = (STYLE_INDEX[self.dataflow]
                   if self.dataflow is not None else None)
        pes_rows, l1_rows, style_rows = [], [], []
        for assignments in populations:
            if len(assignments) != num_layers:
                raise ValueError(
                    f"got {num_layers} layers but {len(assignments)} "
                    f"assignments"
                )
            pes_rows.append([a[0] for a in assignments])
            l1_rows.append([a[1] for a in assignments])
            row = []
            for a in assignments:
                if len(a) == 3:
                    try:
                        row.append(STYLE_INDEX[a[2]])
                    except KeyError:
                        raise KeyError(
                            f"unknown dataflow style {a[2]!r}; available: "
                            f"{', '.join(STYLE_INDEX)}"
                        ) from None
                elif default is not None:
                    row.append(default)
                else:
                    raise ValueError(
                        "assignment lacks a dataflow and no default was "
                        "given"
                    )
            style_rows.append(row)
        return self._evaluate_population_arrays(
            np.asarray(pes_rows, dtype=np.int64),
            np.asarray(l1_rows, dtype=np.int64),
            np.asarray(style_rows, dtype=np.int64),
        )

    def _evaluate_population_arrays(
        self, pes: np.ndarray, l1_bytes: np.ndarray, style_idx: np.ndarray
    ) -> List[EvalResult]:
        """Shared batched core: (G, N) design arrays -> per-genome results.

        Identical design points -- common under elitism, low mutation
        rates, and two-stage re-probes -- are deduplicated before kernel
        dispatch (``np.unique`` over the decoded rows) and the unique
        results scattered back, so duplicates never reach the estimator
        or an installed parallel backend.  The kernel is elementwise per
        row, so the returned costs, flags, and budgets are bit-identical
        either way; served duplicates are counted on :attr:`cache_hits`
        while :attr:`evaluations` keeps charging the full population
        (the budget currency every method spends).
        """
        population, num_layers = pes.shape
        self.evaluations += population
        if self._table is None:
            self._table = LayerTable.build(self.layers)
        if self.deployment == "ls":
            # One shared design point runs every layer: broadcast each
            # genome's first assignment across the model.
            pes = np.repeat(pes[:, :1], num_layers, axis=1)
            l1_bytes = np.repeat(l1_bytes[:, :1], num_layers, axis=1)
            style_idx = np.repeat(style_idx[:, :1], num_layers, axis=1)
        if population > 1:
            design = np.concatenate((pes, l1_bytes, style_idx), axis=1)
            # Cheap pre-check: equal rows hash equal, so a fully-unique
            # hash vector proves there is nothing to dedup without
            # paying the row-sort (wrapping int64 overflow is fine --
            # collisions only cost the full check below).
            mixer = self._row_mixer(design.shape[1])
            hashes = design @ mixer
            if len(np.unique(hashes)) == population:
                return self._evaluate_unique_rows(pes, l1_bytes, style_idx)
            unique, inverse = np.unique(design, axis=0, return_inverse=True)
            if len(unique) < population:
                self.cache_hits += population - len(unique)
                results = self._evaluate_unique_rows(
                    np.ascontiguousarray(unique[:, :num_layers]),
                    np.ascontiguousarray(
                        unique[:, num_layers:2 * num_layers]),
                    np.ascontiguousarray(unique[:, 2 * num_layers:]))
                return [results[i] for i in inverse.reshape(-1).tolist()]
        return self._evaluate_unique_rows(pes, l1_bytes, style_idx)

    def _row_mixer(self, width: int) -> np.ndarray:
        """A fixed random int64 vector hashing design rows (seeded, so
        dedup behavior is deterministic across runs)."""
        mixer = getattr(self, "_mixer", None)
        if mixer is None or len(mixer) != width:
            mixer = np.random.default_rng(0x5EED).integers(
                np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                size=width, dtype=np.int64)
            self._mixer = mixer
        return mixer

    def _evaluate_unique_rows(
        self, pes: np.ndarray, l1_bytes: np.ndarray, style_idx: np.ndarray
    ) -> List[EvalResult]:
        """Kernel dispatch and constraint checks for deduplicated rows."""
        population, num_layers = pes.shape
        layer_idx = np.tile(np.arange(num_layers, dtype=np.int64),
                            population)
        batch = self.cost_model.batched.evaluate(
            self._table, layer_idx, style_idx.reshape(-1),
            pes.reshape(-1), l1_bytes.reshape(-1))

        latency = batch.latency_cycles.reshape(population, num_layers)
        energy = batch.energy_nj.reshape(population, num_layers)
        area = batch.area_um2.reshape(population, num_layers)
        power = batch.power_mw.reshape(population, num_layers)
        latency_total = ordered_row_sum(latency)
        energy_total = ordered_row_sum(energy)
        if self.deployment == "ls":
            area_total = area.max(axis=1)
            power_total = power.max(axis=1)
        else:
            area_total = ordered_row_sum(area)
            power_total = ordered_row_sum(power)
        cost = np.asarray(self.objective.evaluate(CostTotals(
            latency_total, energy_total, area_total, power_total)),
            dtype=np.float64)

        constraint = self.constraint
        if isinstance(constraint, ResourceConstraint):
            if self.deployment == "ls":
                total_pes = pes[:, 0]
                total_l1 = pes[:, 0] * l1_bytes[:, 0]
            else:
                total_pes = pes.sum(axis=1)
                total_l1 = (pes * l1_bytes).sum(axis=1)
            feasible = ((total_pes <= constraint.max_pes)
                        & (total_l1 <= constraint.max_l1_bytes))
            used = total_pes.astype(np.float64)
        else:
            used = area_total if constraint.kind == "area" else power_total
            feasible = used <= constraint.budget

        # tolist() converts to native Python scalars in one pass, which is
        # markedly cheaper than per-element float() on numpy scalars.
        results: List[EvalResult] = []
        for lat, en, ar, po, co, fe, us in zip(
                latency_total.tolist(), energy_total.tolist(),
                area_total.tolist(), power_total.tolist(), cost.tolist(),
                feasible.tolist(), used.tolist()):
            results.append(EvalResult(
                cost=co,
                feasible=fe,
                used=us,
                report=ModelCostReport(
                    latency_cycles=lat,
                    energy_nj=en,
                    area_um2=ar,
                    power_mw=po,
                    per_layer=[],
                ),
            ))
        return results

    def _check(self, report: ModelCostReport,
               assignments: Sequence[RawAssignment]) -> Tuple[float, bool]:
        constraint = self.constraint
        if isinstance(constraint, ResourceConstraint):
            if self.deployment == "ls":
                total_pes = assignments[0][0]
                total_l1 = assignments[0][0] * assignments[0][1]
            else:
                total_pes = sum(a[0] for a in assignments)
                total_l1 = sum(a[0] * a[1] for a in assignments)
            feasible = (total_pes <= constraint.max_pes
                        and total_l1 <= constraint.max_l1_bytes)
            return float(total_pes), feasible
        used = report.constraint(constraint.kind)
        return used, used <= constraint.budget

    # ------------------------------------------------------------------
    def uniform_genome(self, pe_idx: int, buf_idx: int) -> List[int]:
        """A genome assigning the same levels to every layer (baselines)."""
        step: List[int] = [pe_idx, buf_idx]
        if self.space.is_mix:
            step.append(0)
        return step * len(self.layers)
