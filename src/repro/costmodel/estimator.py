"""The analytical performance / energy / area / power estimator.

Given a layer, a dataflow style, a PE count, and an L1 buffer size, the
estimator produces a :class:`CostReport`:

* **Latency** -- serial work per spatial unit times the number of temporal
  passes over the PE array, bounded below by DRAM streaming time, plus a
  fixed pipeline-fill term.  Over-provisioned PEs are idle (utilization < 1)
  and buy nothing, producing the plateaus of Fig. 4/5.
* **Energy** -- MAC switching energy, L1/L2/DRAM traffic energy, plus static
  energy (leakage x latency), which is what makes more resources sometimes
  *reduce* energy through shorter runtime, as Section IV-B discusses.
* **Area** -- PEs (MAC + L1) + shared L2 (sized to double-buffer the
  aggregate tile) + NoC.
* **Power** -- average power, energy / latency (1 GHz clock).

The model is deliberately analytical and fast (microseconds per call):
ConfuciuX evaluates tens of thousands of design points per search.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.costmodel.batched import BatchedCostModel
from repro.costmodel.constants import DEFAULT_HW, HardwareConfig
from repro.costmodel.dataflow import Dataflow, get_dataflow
from repro.costmodel.report import BatchCostReport, CostReport, ModelCostReport
from repro.models.layers import Layer

#: An assignment for one layer: (PEs, L1 bytes) or (PEs, L1 bytes, dataflow).
LayerAssignment = Union[Tuple[int, int], Tuple[int, int, str]]


def area_model(hw: HardwareConfig, pes: int,
               l1_bytes: int) -> Tuple[float, float, float, float, int]:
    """(pe, l1, l2, noc) areas and the L2 size for one design point.

    The scalar oracle's area arithmetic (``_evaluate_uncached`` consumes
    it).  Its vectorized twin is
    :func:`~repro.costmodel.batched.area_terms`, shared by the batched
    kernel and the vector env's deferred area check; the edge-dim parity
    test locks the two together bit for bit.
    """
    # L2 sized to double-buffer the aggregate resident tile.
    l2_bytes = int(
        math.ceil(hw.l2_double_sizing * pes * l1_bytes)
    )
    pe_area = hw.mac_area_um2 * pes
    l1_area = hw.l1_area_per_byte_um2 * l1_bytes * pes
    l2_area = hw.l2_area_per_byte_um2 * l2_bytes
    noc_area = hw.noc_area_per_pe_um2 * pes
    return pe_area, l1_area, l2_area, noc_area, l2_bytes


class CostModel:
    """Stateful facade: caches per-layer evaluations across a search.

    The RL loop re-evaluates identical (layer, dataflow, PE, buffer) tuples
    thousands of times; an LRU cache keyed on those tuples gives a large
    constant-factor speedup without changing any result.
    """

    def __init__(self, hw: HardwareConfig = DEFAULT_HW,
                 cache_size: int = 200_000) -> None:
        self.hw = hw
        self._evaluate_cached = lru_cache(maxsize=cache_size)(
            self._evaluate_uncached
        )
        self._batched: Optional[BatchedCostModel] = None

    @property
    def batched(self) -> BatchedCostModel:
        """The vectorized engine sharing this model's hardware constants.

        Lazily constructed; callers evaluating whole populations (the GA
        generations, the baseline optimizers, the design-space sweeps) go
        through this instead of the scalar per-call path.
        """
        if self._batched is None:
            self._batched = BatchedCostModel(self.hw)
        return self._batched

    def set_executor(self, backend) -> None:
        """Install (or, with ``None``, remove) an execution backend.

        With a :class:`repro.parallel.ExecutionBackend` installed, every
        batched evaluation through this model -- and therefore every
        population-level consumer sharing it -- is sharded by the
        backend.  Results are bit-identical either way; lifecycle is
        owned by the caller (usually a
        :class:`~repro.parallel.ParallelCoordinator`).
        """
        self.batched.executor = backend

    @property
    def executor(self):
        """The installed execution backend, or ``None`` (serial)."""
        return None if self._batched is None else self._batched.executor

    def evaluate_layer_batch(self, layer: Layer, dataflow, pes,
                             l1_bytes) -> BatchCostReport:
        """Vectorized sweep of one layer over (pes, l1_bytes) vectors.

        Returns arrays bit-identical to calling :meth:`evaluate_layer`
        elementwise, computed in a handful of NumPy operations.
        """
        return self.batched.evaluate_layer_batch(layer, dataflow, pes,
                                                 l1_bytes)

    # ------------------------------------------------------------------
    # Per-layer evaluation
    # ------------------------------------------------------------------
    def evaluate_layer(self, layer: Layer, dataflow, pes: int,
                       l1_bytes: int) -> CostReport:
        """Estimate one layer on one design point.

        Args:
            layer: The layer to run.
            dataflow: Style name ("dla"/"eye"/"shi") or Dataflow instance.
            pes: Number of processing elements (>= 1).
            l1_bytes: L1 scratchpad size per PE in bytes (>= 1).
        """
        if pes < 1:
            raise ValueError(f"pes must be >= 1, got {pes}")
        if l1_bytes < 1:
            raise ValueError(f"l1_bytes must be >= 1, got {l1_bytes}")
        # Resolve the style exactly once: the resolved singleton is both
        # the cache key and the mapper used on a miss.
        dataflow = get_dataflow(dataflow)
        return self._evaluate_cached(layer, dataflow, int(pes),
                                     int(l1_bytes))

    def _evaluate_uncached(self, layer: Layer, dataflow: Dataflow, pes: int,
                           l1_bytes: int) -> CostReport:
        hw = self.hw
        plan = dataflow.plan(layer, pes, l1_bytes)

        pes_used = min(pes, plan.units)
        passes = math.ceil(plan.units / pes_used)
        compute_cycles = float(passes * plan.unit_macs)
        utilization = plan.units / (passes * pes_used)

        weight_bytes = layer.weight_elements * plan.weight_fetches
        input_bytes = layer.input_elements * plan.input_fetches
        output_bytes = layer.output_elements * plan.output_fetches
        l2_traffic = weight_bytes + input_bytes + output_bytes

        # DRAM sees each unique operand once; the L2 prefetches tiles.
        dram_bytes = float(
            layer.weight_elements + layer.input_elements
            + layer.output_elements
        )
        memory_cycles = dram_bytes / hw.dram_bandwidth_bytes_per_cycle
        latency = max(compute_cycles, memory_cycles) + hw.pipeline_fill_cycles

        pe_area, l1_area, l2_area, noc_area, l2_bytes = area_model(
            hw, pes, l1_bytes)
        area = pe_area + l1_area + l2_area + noc_area

        dynamic_pj = (
            layer.macs * hw.mac_energy_pj
            + layer.macs * hw.l1_accesses_per_mac * hw.l1_energy_per_byte_pj
            + l2_traffic * hw.l2_energy_per_byte_pj
            + dram_bytes * hw.dram_energy_per_byte_pj
        )
        static_mw = (
            pes * hw.pe_static_power_mw
            + pes * l1_bytes * hw.l1_static_power_mw_per_byte
            + l2_bytes * hw.l2_static_power_mw_per_byte
        )
        # 1 GHz: one cycle is 1 ns, so mW x cycles = pJ.
        static_pj = static_mw * latency / hw.clock_ghz
        energy_pj = dynamic_pj + static_pj
        power_mw = energy_pj / latency * hw.clock_ghz

        return CostReport(
            latency_cycles=latency,
            energy_nj=energy_pj / 1000.0,
            area_um2=area,
            power_mw=power_mw,
            pes_used=pes_used,
            pe_utilization=utilization,
            l1_bytes_per_pe=l1_bytes,
            l2_bytes=l2_bytes,
            tile_k=plan.tile_k,
            macs=layer.macs,
            dram_bytes=dram_bytes,
            l2_traffic_bytes=l2_traffic,
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            pe_area_um2=pe_area,
            l1_area_um2=l1_area,
            l2_area_um2=l2_area,
            noc_area_um2=noc_area,
        )

    # ------------------------------------------------------------------
    # Whole-model evaluation
    # ------------------------------------------------------------------
    def evaluate_model(
        self,
        layers: Sequence[Layer],
        assignments: Sequence[LayerAssignment],
        dataflow: Optional[str] = None,
    ) -> ModelCostReport:
        """Evaluate a per-layer resource partition (the LP deployment).

        Args:
            layers: The model's layers, in order.
            assignments: One (pes, l1_bytes) -- or (pes, l1_bytes, style) for
                the MIX strategy -- per layer.
            dataflow: Default style used when an assignment omits one.

        Returns:
            Whole-model report: end-to-end latency and energy are sums over
            layers; area and power are sums over the per-layer partitions
            (the resources coexist on chip).
        """
        if len(layers) != len(assignments):
            raise ValueError(
                f"got {len(layers)} layers but {len(assignments)} assignments"
            )
        reports: List[CostReport] = []
        for layer, assignment in zip(layers, assignments):
            if len(assignment) == 3:
                pes, l1_bytes, style = assignment
            elif dataflow is not None:
                pes, l1_bytes = assignment
                style = dataflow
            else:
                raise ValueError(
                    "assignment lacks a dataflow and no default was given"
                )
            reports.append(self.evaluate_layer(layer, style, pes, l1_bytes))
        return ModelCostReport(
            latency_cycles=sum(r.latency_cycles for r in reports),
            energy_nj=sum(r.energy_nj for r in reports),
            area_um2=sum(r.area_um2 for r in reports),
            power_mw=sum(r.power_mw for r in reports),
            per_layer=reports,
        )

    def evaluate_model_ls(
        self,
        layers: Sequence[Layer],
        pes: int,
        l1_bytes: int,
        dataflow: str,
    ) -> ModelCostReport:
        """Evaluate a single shared design point run layer-by-layer (LS).

        Latency and energy sum over the sequential layer executions; area is
        that of the one accelerator; power is the worst (peak) layer power.
        """
        reports = [
            self.evaluate_layer(layer, dataflow, pes, l1_bytes)
            for layer in layers
        ]
        area = max(r.area_um2 for r in reports)
        power = max(r.power_mw for r in reports)
        return ModelCostReport(
            latency_cycles=sum(r.latency_cycles for r in reports),
            energy_nj=sum(r.energy_nj for r in reports),
            area_um2=area,
            power_mw=power,
            per_layer=reports,
        )

    def cache_info(self):
        """Expose LRU statistics (useful in perf tests)."""
        return self._evaluate_cached.cache_info()

    def clear_cache(self) -> None:
        self._evaluate_cached.cache_clear()
