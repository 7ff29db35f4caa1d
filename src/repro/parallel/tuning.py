"""Profile-guided adaptive execution (ROADMAP item 2 follow-on).

Every dispatch decision the execution backends make was static until
now: uniform round-robin shard sizes and a hard-coded per-transport
``TRANSPORT_MIN_BATCH`` break-even table.  This module closes the loop
from the measurements the backends already take -- shard completion
timestamps observed in their result-gather loops -- back into the next
dispatch:

* :class:`ThroughputModel` -- a thread-safe EWMA of rows/sec per
  ``(transport, worker-or-node)`` key.  Keys are stable slot numbers,
  so a respawned worker (or a fleet that survives a
  :class:`~repro.parallel.backend.ResilientBackend` ladder rung)
  inherits its history.
* :class:`ShardPlanner` -- sizes initial shards proportional to the
  measured rates.  Work stealing still rebalances tails; with
  ``steal=False`` and no measurements the plan degrades to exactly the
  static uniform round-robin, so results and schedules are unchanged
  until rates exist.
* :class:`BreakEvenCalibrator` -- ``dispatch_min_batch="auto"``: the
  first batches alternate inline vs sharded execution, timing both, and
  converge on a per-transport crossover instead of the static table.
* :class:`TuningState` -- the aggregate the
  :class:`~repro.parallel.ParallelCoordinator` owns and threads through
  ``make_backend`` into every backend, and whose :meth:`snapshot` lands
  in ``SessionResult.provenance["tuning"]``.

Every decision here only moves shard boundaries or routes a batch
inline vs sharded.  The batched kernel is elementwise over the batch
axis (shard-invariant), so results are bit-identical with tuning on or
off -- the parity suites lock this.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.backend import shard_bounds

__all__ = [
    "AUTOTUNE_ENV",
    "BreakEvenCalibrator",
    "ShardPlanner",
    "ThroughputModel",
    "TuningState",
    "default_autotune",
]

#: Environment variable enabling autotuning when the spec leaves
#: ``autotune`` unset (``1``/``true``/``on``/``yes``).
AUTOTUNE_ENV = "REPRO_AUTOTUNE"


def default_autotune() -> bool:
    """Whether ``$REPRO_AUTOTUNE`` asks for adaptive execution when the
    spec leaves ``autotune`` unset."""
    value = os.environ.get(AUTOTUNE_ENV)
    if value is None:
        return False
    return value.strip().lower() in ("1", "true", "on", "yes")

#: EWMA smoothing factor: high enough to follow a node that slows down
#: mid-run, low enough that one noisy shard cannot flip the plan.
DEFAULT_ALPHA = 0.4

#: Calibration probes per transport before the crossover is frozen.
CALIBRATION_PROBES = 6


class ThroughputModel:
    """Per-worker/per-node EWMA of observed rows per second.

    Observations arrive from the backends' result-gather loops: each
    completed shard reports ``(rows, elapsed_s)`` for the worker slot
    that ran it.  Rates are keyed ``(transport, key)`` where ``key`` is
    the stable worker index or node slot, so the model survives worker
    respawns and degradation-ladder rebuilds that reuse slots.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = float(alpha)
        self._rates: Dict[Tuple[str, object], float] = {}
        self._counts: Dict[Tuple[str, object], int] = {}
        self._lock = threading.Lock()

    def observe(self, transport: str, key, rows: int,
                elapsed_s: float) -> None:
        """Fold one completed shard into the EWMA for ``key``."""
        if rows <= 0 or elapsed_s <= 0.0:
            return
        rate = rows / elapsed_s
        slot = (transport, key)
        with self._lock:
            prev = self._rates.get(slot)
            if prev is None:
                self._rates[slot] = rate
            else:
                self._rates[slot] = (self.alpha * rate
                                     + (1.0 - self.alpha) * prev)
            self._counts[slot] = self._counts.get(slot, 0) + 1

    def rate(self, transport: str, key) -> Optional[float]:
        """Smoothed rows/sec for ``key``, or None before any sample."""
        with self._lock:
            return self._rates.get((transport, key))

    def observations(self, transport: str, key) -> int:
        with self._lock:
            return self._counts.get((transport, key), 0)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{transport: {str(key): rows_per_sec}}`` for provenance."""
        with self._lock:
            out: Dict[str, Dict[str, float]] = {}
            for (transport, key), rate in self._rates.items():
                out.setdefault(transport, {})[str(key)] = rate
            return out


class ShardPlanner:
    """Sizes initial shards proportional to measured throughput.

    :meth:`plan` returns ``(bounds, owners)`` covering the batch
    exactly: contiguous ``(lo, hi)`` spans plus the worker/node key that
    should run each span first (work stealing may still move it).  When
    any key lacks a rate -- the first batches, a fresh fleet -- or the
    batch is too small to split meaningfully, the plan falls back to
    the static uniform round-robin the backends used before tuning
    existed, bit-identical schedule included.
    """

    def __init__(self, throughput: ThroughputModel) -> None:
        self.throughput = throughput

    def _uniform(self, batch: int, keys: Sequence, chunks_per_key: int):
        bounds = shard_bounds(batch, len(keys) * chunks_per_key)
        owners = [keys[i % len(keys)] for i in range(len(bounds))]
        return bounds, owners

    def plan(self, batch: int, transport: str, keys: Sequence,
             chunks_per_key: int = 1):
        """Partition ``batch`` rows over ``keys`` by measured rate.

        Each key's allocation is the floor of its proportional share;
        leftover rows go to the largest fractional remainders (index
        order breaks ties, so plans are deterministic).  Each key's
        span is then sub-split into ``chunks_per_key`` shards -- the
        distributed backend's stealing granularity.
        """
        if batch < 1 or not keys:
            raise ValueError("plan needs a positive batch and >= 1 key")
        chunks_per_key = max(1, int(chunks_per_key))
        width = len(keys) * chunks_per_key
        rates = [self.throughput.rate(transport, key) for key in keys]
        if (batch < width or len(keys) == 1
                or any(r is None or r <= 0.0 or not np.isfinite(r)
                       for r in rates)):
            return self._uniform(batch, keys, chunks_per_key)
        total = sum(rates)
        raw = [batch * rate / total for rate in rates]
        alloc = [int(share) for share in raw]
        remainder = batch - sum(alloc)
        order = sorted(range(len(keys)),
                       key=lambda i: (-(raw[i] - alloc[i]), i))
        for i in order[:remainder]:
            alloc[i] += 1
        bounds: List[Tuple[int, int]] = []
        owners: List = []
        lo = 0
        for key, rows in zip(keys, alloc):
            if rows <= 0:
                continue
            for sub_lo, sub_hi in shard_bounds(rows, chunks_per_key):
                bounds.append((lo + sub_lo, lo + sub_hi))
                owners.append(key)
            lo += rows
        return bounds, owners


class BreakEvenCalibrator:
    """Converges on a per-transport inline-vs-shard crossover at runtime.

    With ``dispatch_min_batch="auto"``, the first
    :data:`CALIBRATION_PROBES` batches per transport alternate between
    inline and sharded execution (both bit-identical -- only wall clock
    differs) while their per-row times are recorded.  Whenever both
    modes have been timed at the same batch size, the faster one moves
    a bound: ``lo`` rises to the largest batch inline won, ``hi`` falls
    to the smallest batch sharding won.  After the probe budget the
    threshold freezes at ``hi`` (or ``2 * lo`` when sharding never won,
    or the static default when nothing conclusive was seen).
    """

    def __init__(self, probes: int = CALIBRATION_PROBES) -> None:
        self.probes = max(1, int(probes))
        self._lock = threading.Lock()
        self._state: Dict[str, dict] = {}

    def _transport(self, transport: str) -> dict:
        state = self._state.get(transport)
        if state is None:
            state = {"used": 0, "samples": {}, "lo": 0, "hi": None,
                     "threshold": None}
            self._state[transport] = state
        return state

    def route_inline(self, transport: str, batch: int,
                     static_threshold: int) -> bool:
        """Whether this batch should run inline (True) or sharded."""
        with self._lock:
            state = self._transport(transport)
            if state["threshold"] is not None:
                return batch < state["threshold"]
            if state["used"] >= self.probes:
                self._freeze(state, static_threshold)
                return batch < state["threshold"]
            state["used"] += 1
            # Odd probes run inline, even probes shard: both modes get
            # timed at whatever batch sizes the search actually sends.
            return state["used"] % 2 == 1

    def _freeze(self, state: dict, static_threshold: int) -> None:
        if state["hi"] is not None:
            state["threshold"] = state["hi"]
        elif state["lo"] > 0:
            state["threshold"] = 2 * state["lo"]
        else:
            state["threshold"] = max(0, int(static_threshold))

    def observe(self, transport: str, inline: bool, batch: int,
                elapsed_s: float) -> None:
        """Record one timed batch and update the crossover bounds."""
        if batch <= 0 or elapsed_s <= 0.0:
            return
        per_row = elapsed_s / batch
        with self._lock:
            state = self._transport(transport)
            if state["threshold"] is not None:
                return
            sample = state["samples"].setdefault(batch, {})
            mode = "inline" if inline else "sharded"
            # Keep the best observed time per mode: scheduling noise
            # only ever makes a mode look slower than it is.
            if mode not in sample or per_row < sample[mode]:
                sample[mode] = per_row
            if "inline" in sample and "sharded" in sample:
                if sample["inline"] <= sample["sharded"]:
                    state["lo"] = max(state["lo"], batch)
                elif state["hi"] is None or batch < state["hi"]:
                    state["hi"] = batch

    def threshold(self, transport: str) -> Optional[int]:
        with self._lock:
            state = self._state.get(transport)
            return None if state is None else state["threshold"]

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            return {transport: {"threshold": state["threshold"],
                                "probes": state["used"],
                                "inline_won_at": state["lo"],
                                "sharded_won_at": state["hi"]}
                    for transport, state in self._state.items()}


class TuningState:
    """The shared adaptive-execution state of one coordinator.

    One instance is threaded through ``make_backend`` into every
    backend a coordinator builds -- including the rebuilt inner backend
    after a :class:`~repro.parallel.backend.ResilientBackend` ladder
    rung -- so measured rates and the calibrated crossover survive
    respawns and downshifts.

    ``plan_shards`` gates the throughput-proportional
    :class:`ShardPlanner` (the ``autotune`` knob); ``auto_dispatch``
    gates the :class:`BreakEvenCalibrator`
    (``dispatch_min_batch="auto"``).  Either may be on without the
    other.
    """

    def __init__(self, plan_shards: bool = True,
                 auto_dispatch: bool = False,
                 alpha: float = DEFAULT_ALPHA) -> None:
        self.plan_shards = bool(plan_shards)
        self.auto_dispatch = bool(auto_dispatch)
        self.throughput = ThroughputModel(alpha=alpha)
        self.planner = ShardPlanner(self.throughput)
        self.calibrator = BreakEvenCalibrator()
        self._lock = threading.Lock()
        self._last_plan: Optional[dict] = None
        self._planned_batches = 0
        self._adaptive_plans = 0

    # -- planning ------------------------------------------------------
    def plan(self, batch: int, transport: str, keys: Sequence,
             chunks_per_key: int = 1):
        """Shard ``batch`` over ``keys``; records the plan for provenance."""
        bounds, owners = self.planner.plan(batch, transport, keys,
                                           chunks_per_key)
        uniform = self.planner._uniform(batch, keys, chunks_per_key)
        adaptive = (bounds, owners) != uniform
        with self._lock:
            self._planned_batches += 1
            self._adaptive_plans += int(adaptive)
            self._last_plan = {
                "transport": transport,
                "batch": batch,
                "adaptive": adaptive,
                "shard_rows": [hi - lo for lo, hi in bounds],
                "owners": [str(key) for key in owners],
            }
        return bounds, owners

    # -- shard timing --------------------------------------------------
    def observe(self, transport: str, key, rows: int,
                elapsed_s: float) -> None:
        self.throughput.observe(transport, key, rows, elapsed_s)

    # -- break-even calibration ----------------------------------------
    def route_inline(self, transport: str, batch: int,
                     static_threshold: int) -> bool:
        if not self.auto_dispatch:
            return batch < static_threshold
        return self.calibrator.route_inline(transport, batch,
                                            static_threshold)

    def observe_route(self, transport: str, inline: bool, batch: int,
                      elapsed_s: float) -> None:
        if self.auto_dispatch:
            self.calibrator.observe(transport, inline, batch, elapsed_s)

    # -- provenance ----------------------------------------------------
    def snapshot(self) -> dict:
        """The provenance record (``provenance["tuning"]``)."""
        with self._lock:
            last_plan = (dict(self._last_plan)
                         if self._last_plan is not None else None)
            planned = self._planned_batches
            adaptive = self._adaptive_plans
        return {
            "plan_shards": self.plan_shards,
            "auto_dispatch": self.auto_dispatch,
            "rates": self.throughput.snapshot(),
            "plan": last_plan,
            "planned_batches": planned,
            "adaptive_plans": adaptive,
            "break_even": self.calibrator.snapshot(),
        }
