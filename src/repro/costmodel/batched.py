"""NumPy-vectorized batched estimator: whole populations in a few kernels.

Every search method in this repository -- REINFORCE epochs, the local GA,
and the grid/random/SA/GA/Bayesian baselines -- evaluates tens of thousands
of design points per run, and each point used to go through a scalar Python
call chain (``CostModel.evaluate_layer`` -> ``Dataflow.plan`` ->
``CostReport``).  This module precomputes the per-layer invariants (shape
dimensions, MAC counts, operand element counts, DWCONV flags) once into a
:class:`LayerTable`, after which a whole batch of candidate
``(layer, style, pes, l1_bytes)`` rows -- an entire GA population, a full
grid sweep, or a vector of per-layer partitions -- is evaluated with array
arithmetic in a handful of NumPy operations.

The arithmetic deliberately mirrors the scalar path's expression order, so
the batched engine returns **bit-identical** numbers to
``CostModel.evaluate_layer`` (the parity suite in
``tests/test_batched_estimator.py`` asserts exact equality).  See
PERFORMANCE.md for the architecture and the measured speedup.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.costmodel.constants import DEFAULT_HW, HardwareConfig
from repro.costmodel.dataflow import (
    DATAFLOW_ORDER,
    DATAFLOWS,
    BatchDims,
    get_dataflow,
)
from repro.costmodel.report import BatchCostReport, objective_totals
from repro.models.layers import Layer, LayerType

__all__ = [
    "BATCH_STYLES",
    "STYLE_INDEX",
    "BatchedCostModel",
    "LRUCache",
    "LayerTable",
    "area_terms",
    "evaluate_batch_kernel",
    "objective_totals",
    "ordered_row_sum",
    "table_token",
]

#: Canonical style order of the batched engine (the MIX action order), and
#: the string -> row index mapping used to build ``style_idx`` arrays.
BATCH_STYLES: Tuple[str, ...] = tuple(DATAFLOW_ORDER)
STYLE_INDEX: Dict[str, int] = {s: i for i, s in enumerate(BATCH_STYLES)}


def ordered_row_sum(values: np.ndarray) -> np.ndarray:
    """Row sums accumulated left-to-right, matching the scalar ``sum()``.

    ``np.sum`` uses pairwise accumulation, which rounds differently from
    Python's sequential ``sum`` over per-layer reports; summing column by
    column keeps batched aggregates bit-identical to the scalar path.
    """
    total = np.zeros(len(values), dtype=np.float64)
    for column in range(values.shape[1]):
        total = total + values[:, column]
    return total


class LRUCache:
    """A small, thread-safe least-recently-used mapping.

    Bounds the single-layer ``LayerTable`` cache, so long-lived
    ``repro serve`` processes sweeping many models never grow without
    bound.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            try:
                self._data.move_to_end(key)
                return self._data[key]
            except KeyError:
                return default

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data



# Monotonic table identity.  ``id(table)`` is recycled by the allocator
# the moment a table is garbage-collected, so a worker keyed on it could
# evaluate a batch against a *stale* table shipped for an unrelated new
# table at the same address.  Tokens are assigned once per table, never
# reused.
_TABLE_TOKENS = itertools.count(1)
_TABLE_TOKEN_LOCK = threading.Lock()


def table_token(table: "LayerTable") -> int:
    """A process-unique, never-recycled identity for ``table``.

    Lazily stamped on first use (``LayerTable`` is frozen, so the stamp
    goes through ``object.__setattr__``); the execution backends key the
    tables they ship to workers on this instead of ``id(table)``.
    """
    token = getattr(table, "_token", None)
    if token is None:
        with _TABLE_TOKEN_LOCK:
            token = getattr(table, "_token", None)
            if token is None:
                token = next(_TABLE_TOKENS)
                object.__setattr__(table, "_token", token)
    return token


@dataclass(frozen=True)
class LayerTable:
    """Per-layer invariants of a fixed layer list, gathered into arrays.

    Built once per (model, search); every batched evaluation then indexes
    into these arrays with a ``layer_idx`` vector instead of touching the
    Python :class:`Layer` objects.
    """

    layers: Tuple[Layer, ...]
    K: np.ndarray
    C: np.ndarray
    out_y: np.ndarray
    out_x: np.ndarray
    R: np.ndarray
    S: np.ndarray
    is_dw: np.ndarray
    macs: np.ndarray
    weight_elements: np.ndarray
    input_elements: np.ndarray
    output_elements: np.ndarray
    dram_bytes: np.ndarray

    @classmethod
    def build(cls, layers: Sequence[Layer]) -> "LayerTable":
        layers = tuple(layers)
        if not layers:
            raise ValueError("cannot build a LayerTable from zero layers")

        def arr(values, dtype=np.int64):
            return np.array(values, dtype=dtype)

        return cls(
            layers=layers,
            K=arr([l.K for l in layers]),
            C=arr([l.C for l in layers]),
            out_y=arr([l.out_y for l in layers]),
            out_x=arr([l.out_x for l in layers]),
            R=arr([l.R for l in layers]),
            S=arr([l.S for l in layers]),
            is_dw=arr([l.layer_type is LayerType.DWCONV for l in layers],
                      dtype=bool),
            macs=arr([l.macs for l in layers]),
            weight_elements=arr([l.weight_elements for l in layers]),
            input_elements=arr([l.input_elements for l in layers]),
            output_elements=arr([l.output_elements for l in layers]),
            # DRAM sees each unique operand once (float, as the scalar
            # path converts it before dividing by the bandwidth).
            dram_bytes=arr(
                [float(l.weight_elements + l.input_elements
                       + l.output_elements) for l in layers],
                dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.layers)

    def dims(self, layer_idx: np.ndarray) -> BatchDims:
        """Gather the shape dimensions for a vector of layer rows."""
        return BatchDims(
            K=self.K[layer_idx],
            C=self.C[layer_idx],
            out_y=self.out_y[layer_idx],
            out_x=self.out_x[layer_idx],
            R=self.R[layer_idx],
            S=self.S[layer_idx],
            is_dw=self.is_dw[layer_idx],
        )


def area_terms(hw: HardwareConfig, pes: np.ndarray, l1_bytes: np.ndarray
               ) -> Tuple[np.ndarray, ...]:
    """Vectorized :func:`~repro.costmodel.estimator.area_model`.

    Returns ``(area, pe_area, l1_area, l2_area, noc_area, l2_bytes)``
    arrays, with ``area`` summed in the scalar order.  Area depends only
    on the resource assignment, never on the layer, so
    :class:`~repro.env.vector.VectorHWAssignmentEnv` checks area budgets
    with this closed form before any wave is scored, and the kernel
    builds its report from it: the two cannot drift apart
    (``tests/test_batched_estimator.py`` locks both against the scalar
    estimator bit for bit).
    """
    # L2 sized to double-buffer the aggregate resident tile.
    l2_bytes = np.ceil(hw.l2_double_sizing * pes * l1_bytes) \
        .astype(np.int64)
    pe_area = hw.mac_area_um2 * pes
    l1_area = hw.l1_area_per_byte_um2 * l1_bytes * pes
    l2_area = hw.l2_area_per_byte_um2 * l2_bytes
    noc_area = hw.noc_area_per_pe_um2 * pes
    area = pe_area + l1_area + l2_area + noc_area
    return area, pe_area, l1_area, l2_area, noc_area, l2_bytes


def evaluate_batch_kernel(
    hw: HardwareConfig,
    table: LayerTable,
    layer_idx: np.ndarray,
    style_idx: np.ndarray,
    pes: np.ndarray,
    l1_bytes: np.ndarray,
) -> BatchCostReport:
    """The validated core of :meth:`BatchedCostModel.evaluate`.

    Every operation is elementwise over the batch axis, so the kernel is
    *shard-invariant*: evaluating any partition of the batch and
    concatenating the shard outputs in order is bit-identical to one call
    over the full batch.  The execution backends in :mod:`repro.parallel`
    rely on this to fan one large batch out across worker processes.

    Callers are expected to have validated the arrays (``BatchedCostModel
    .evaluate`` does); the kernel itself runs no checks so worker shards
    pay no redundant validation.
    """
    batch = layer_idx.size
    units = np.empty(batch, dtype=np.int64)
    unit_macs = np.empty(batch, dtype=np.int64)
    weight_fetches = np.empty(batch, dtype=np.float64)
    input_fetches = np.empty(batch, dtype=np.float64)
    output_fetches = np.empty(batch, dtype=np.float64)
    tile_k = np.empty(batch, dtype=np.int64)
    for index, style in enumerate(BATCH_STYLES):
        sel = np.flatnonzero(style_idx == index)
        if sel.size == 0:
            continue
        plan = DATAFLOWS[style].plan_batch(
            table.dims(layer_idx[sel]), pes[sel], l1_bytes[sel])
        units[sel] = plan.units
        unit_macs[sel] = plan.unit_macs
        weight_fetches[sel] = plan.weight_fetches
        input_fetches[sel] = plan.input_fetches
        output_fetches[sel] = plan.output_fetches
        tile_k[sel] = plan.tile_k

    # ---- estimator epilogue, mirroring _evaluate_uncached ----------
    pes_used = np.minimum(pes, units)
    passes = -(-units // pes_used)
    compute_cycles = (passes * unit_macs).astype(np.float64)
    utilization = units / (passes * pes_used)

    weight_bytes = table.weight_elements[layer_idx] * weight_fetches
    input_bytes = table.input_elements[layer_idx] * input_fetches
    output_bytes = table.output_elements[layer_idx] * output_fetches
    l2_traffic = weight_bytes + input_bytes + output_bytes

    dram_bytes = table.dram_bytes[layer_idx]
    memory_cycles = dram_bytes / hw.dram_bandwidth_bytes_per_cycle
    latency = np.maximum(compute_cycles, memory_cycles) \
        + hw.pipeline_fill_cycles

    area, pe_area, l1_area, l2_area, noc_area, l2_bytes = area_terms(
        hw, pes, l1_bytes)

    macs = table.macs[layer_idx]
    dynamic_pj = (
        macs * hw.mac_energy_pj
        + macs * hw.l1_accesses_per_mac * hw.l1_energy_per_byte_pj
        + l2_traffic * hw.l2_energy_per_byte_pj
        + dram_bytes * hw.dram_energy_per_byte_pj
    )
    static_mw = (
        pes * hw.pe_static_power_mw
        + pes * l1_bytes * hw.l1_static_power_mw_per_byte
        + l2_bytes * hw.l2_static_power_mw_per_byte
    )
    static_pj = static_mw * latency / hw.clock_ghz
    energy_pj = dynamic_pj + static_pj
    power_mw = energy_pj / latency * hw.clock_ghz

    return BatchCostReport(
        latency_cycles=latency,
        energy_nj=energy_pj / 1000.0,
        area_um2=area,
        power_mw=power_mw,
        pes_used=pes_used,
        pe_utilization=utilization,
        l1_bytes_per_pe=l1_bytes,
        l2_bytes=l2_bytes,
        tile_k=tile_k,
        macs=macs,
        dram_bytes=dram_bytes,
        l2_traffic_bytes=l2_traffic,
        compute_cycles=compute_cycles,
        memory_cycles=memory_cycles,
        pe_area_um2=pe_area,
        l1_area_um2=l1_area,
        l2_area_um2=l2_area,
        noc_area_um2=noc_area,
    )


class BatchedCostModel:
    """Vectorized counterpart of :class:`~repro.costmodel.CostModel`.

    Stateless apart from the hardware constants and an optional execution
    backend: callers hold the :class:`LayerTable` (typically one per
    search) and pass index/value arrays describing the batch.

    When ``executor`` is set (an :class:`repro.parallel.ExecutionBackend`),
    validated batches are handed to it instead of the in-process kernel;
    the backends shard the batch across threads or worker processes and
    gather a bit-identical :class:`BatchCostReport`.
    """

    def __init__(self, hw: HardwareConfig = DEFAULT_HW,
                 executor=None) -> None:
        self.hw = hw
        #: Optional :class:`~repro.parallel.ExecutionBackend`; ``None``
        #: runs the kernel in-process.
        self.executor = executor
        # Single-layer tables for evaluate_layer_batch sweeps.  Bounded:
        # serve processes sweeping many models would otherwise
        # grow this per distinct Layer forever.
        self._single_tables = LRUCache(16)

    # ------------------------------------------------------------------
    def evaluate(
        self,
        table: LayerTable,
        layer_idx: np.ndarray,
        style_idx,
        pes: np.ndarray,
        l1_bytes: np.ndarray,
    ) -> BatchCostReport:
        """Evaluate a batch of (layer row, style, PEs, L1 bytes) points.

        Args:
            table: Precomputed invariants of the target layer list.
            layer_idx: Row index into ``table`` per batch element.
            style_idx: Dataflow index per element (see :data:`STYLE_INDEX`),
                or a scalar applied to the whole batch.
            pes: PE count per element (>= 1).
            l1_bytes: L1 bytes per PE per element (>= 1).

        Returns:
            A :class:`BatchCostReport` of arrays, element ``i`` matching
            ``CostModel.evaluate_layer`` on point ``i`` exactly.
        """
        layer_idx, style_idx, pes, l1_bytes = self._validate(
            table, layer_idx, style_idx, pes, l1_bytes)
        if self.executor is not None:
            return self.executor.evaluate(self.hw, table, layer_idx,
                                          style_idx, pes, l1_bytes)
        return evaluate_batch_kernel(self.hw, table, layer_idx, style_idx,
                                     pes, l1_bytes)

    # ------------------------------------------------------------------
    # Kept for the benchmark's tracer, which wraps this name.
    def evaluate_constrained(self, table: LayerTable, layer_idx, style_idx,
                             pes, l1_bytes, deployment: str, kind: str,
                             budget: float):
        """:meth:`evaluate` paired with ``None``: ``(report, None)``."""
        return self.evaluate(table, layer_idx, style_idx, pes,
                             l1_bytes), None

    # ------------------------------------------------------------------
    @staticmethod
    def _validate(table: LayerTable, layer_idx, style_idx, pes, l1_bytes):
        """Coerce and validate one batch; returns the canonical int64
        arrays."""
        layer_idx = np.asarray(layer_idx, dtype=np.int64)
        pes = np.asarray(pes, dtype=np.int64)
        l1_bytes = np.asarray(l1_bytes, dtype=np.int64)
        style_idx = np.broadcast_to(
            np.asarray(style_idx, dtype=np.int64), layer_idx.shape)
        if not (layer_idx.shape == pes.shape == l1_bytes.shape):
            raise ValueError("batch arrays must share one shape")
        if layer_idx.ndim != 1:
            raise ValueError("batch arrays must be 1-D")
        if layer_idx.size == 0:
            raise ValueError("cannot evaluate an empty batch")
        if layer_idx.min() < 0 or layer_idx.max() >= len(table):
            raise ValueError("layer_idx out of range for the table")
        if pes.min() < 1:
            raise ValueError("pes must be >= 1 for every batch element")
        if l1_bytes.min() < 1:
            raise ValueError("l1_bytes must be >= 1 for every batch element")
        if style_idx.min() < 0 or style_idx.max() >= len(BATCH_STYLES):
            raise ValueError(
                f"style_idx out of range; styles: {', '.join(BATCH_STYLES)}")
        return layer_idx, style_idx, pes, l1_bytes

    # ------------------------------------------------------------------
    def evaluate_layer_batch(self, layer: Layer, dataflow, pes,
                             l1_bytes) -> BatchCostReport:
        """Sweep one layer over vectors of (pes, l1_bytes) design points.

        The single-layer :class:`LayerTable` is cached per layer (in a
        bounded LRU), so repeated sweeps (contour grids, per-layer
        optima) pay the precompute once.  Scalar (0-d) ``pes`` /
        ``l1_bytes`` are promoted to length-1 vectors, returning a
        length-1 report.
        """
        style = get_dataflow(dataflow).style
        table = self._single_tables.get(layer)
        if table is None:
            table = LayerTable.build([layer])
            self._single_tables.put(layer, table)
        pes = np.atleast_1d(np.asarray(pes, dtype=np.int64))
        l1_bytes = np.atleast_1d(np.asarray(l1_bytes, dtype=np.int64))
        if pes.shape != l1_bytes.shape:
            raise ValueError("pes and l1_bytes must share one shape")
        layer_idx = np.zeros(pes.shape, dtype=np.int64)
        return self.evaluate(table, layer_idx, STYLE_INDEX[style], pes,
                             l1_bytes)
