"""Perf tracker: lockstep episode waves at envs in {2, 4, 8} vs one env.

Times the episodic-RL hot path -- rolling whole training epochs through
the HW-assignment environment -- on the ``BENCH_costmodel.json`` workload
(the first 20 MobileNet-V2 layers).  Every agent runs its episodes
through :class:`~repro.env.vector.VectorHWAssignmentEnv`; the baseline is
the one-env wave path an agent takes on a bare ``HWAssignmentEnv`` (one
episode at a time), against lockstep waves at ``envs`` in {2, 4, 8} (one
batched policy forward per wave, one batched cost call per wave set).
Writes ``BENCH_rl.json`` at the repo root::

    {"method": ..., "episodes": ..., "num_layers": ...,
     "scalar_s": ..., "scalar_eps_per_s": ...,
     "envs": {"2": {"seconds": ..., "eps_per_s": ..., "speedup": ...},
              "4": ..., "8": ...},
     "speedup_envs_8": ...}

``scalar_s`` keeps its name for the trend history; it times the one-env
baseline.  The speedup is pure kernel/forward vectorization -- no IPC, no
extra processes -- so it holds on a single CPU (like the cost-model
bench); the acceptance bar is >= 3x epoch throughput at ``envs=8``.  The
baseline run is also checked against :data:`GOLDEN`, the result the
agent's former scalar stepping loop produced on this workload.

Lockstep waves change *which* episodes are sampled for ``envs > 1``
(reproducibly per seed -- see the RNG contract in API.md), so this bench
compares throughput, not search quality.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time

from repro.core.constraints import platform_constraint
from repro.core.reporting import format_table
from repro.costmodel import CostModel
from repro.env.spaces import ActionSpace
from repro.env.vector import VectorHWAssignmentEnv
from repro.models import get_model
from repro.search.registry import get_method

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

NUM_LAYERS = 20
EPISODES = 48
ENV_COUNTS = (2, 4, 8)
METHOD = "a2c"
SEED = 0
#: Repetitions per configuration; the minimum is reported.
REPEATS = 3
#: (best_cost, history, evaluations) of the one-env baseline, recorded
#: from the scalar stepping loop the agents carried before every rollout
#: went through waves.
GOLDEN = (6666357.0,
          [13910232.0] * 4 + [11557575.0] * 18 + [6666357.0] * 26, 960)


def _run_once(info, layers, space, constraint, envs):
    """One full training run (fresh agent, fresh env); returns
    (seconds, SearchResult)."""
    method = info.factory(seed=SEED)
    cost_model = CostModel()
    env = VectorHWAssignmentEnv(
        _make_env(layers, space, constraint, cost_model), envs) \
        if envs else _make_env(layers, space, constraint, cost_model)
    gc.collect()
    started = time.perf_counter()
    result = method.search(env, EPISODES)
    return time.perf_counter() - started, result


def _make_env(layers, space, constraint, cost_model):
    from repro.env.environment import HWAssignmentEnv

    return HWAssignmentEnv(layers, space, "latency", constraint, cost_model,
                           dataflow="dla")


def _time(info, layers, space, constraint, envs):
    best_s, result = float("inf"), None
    for _ in range(REPEATS):
        seconds, result = _run_once(info, layers, space, constraint, envs)
        best_s = min(best_s, seconds)
    return best_s, result


def test_rl_throughput(save_report):
    layers = get_model("mobilenet_v2")[:NUM_LAYERS]
    space = ActionSpace.build("dla")
    constraint = platform_constraint(layers, "dla", "area", "cloud",
                                     CostModel(), space)
    info = get_method(METHOD)

    scalar_s, scalar_result = _time(info, layers, space, constraint, None)
    assert (scalar_result.best_cost, scalar_result.history,
            scalar_result.evaluations) == GOLDEN

    timings = {}
    for envs in ENV_COUNTS:
        seconds, result = _time(info, layers, space, constraint, envs)
        assert result.episodes == EPISODES
        timings[str(envs)] = {
            "seconds": seconds,
            "eps_per_s": EPISODES / seconds,
            "speedup": scalar_s / seconds,
        }

    speedup_envs_8 = timings["8"]["speedup"]
    rows = [["envs=1", f"{scalar_s * 1e3:.1f} ms",
             f"{EPISODES / scalar_s:.0f}", "1.00x"]]
    for envs in ENV_COUNTS:
        record = timings[str(envs)]
        rows.append([f"envs={envs}", f"{record['seconds'] * 1e3:.1f} ms",
                     f"{record['eps_per_s']:.0f}",
                     f"{record['speedup']:.2f}x"])
    save_report("rl_throughput", format_table(
        ["stepping", "wall time", "epochs/s", "speedup"], rows,
        title=f"{METHOD} x {EPISODES} epochs on {NUM_LAYERS} MobileNet-V2 "
              f"layers (one batched cost call per wave set)"))

    payload = {
        "method": METHOD,
        "episodes": EPISODES,
        "num_layers": NUM_LAYERS,
        "scalar_s": scalar_s,
        "scalar_eps_per_s": EPISODES / scalar_s,
        "envs": timings,
        "speedup_envs_8": speedup_envs_8,
    }
    (REPO_ROOT / "BENCH_rl.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    # Kernel vectorization, not parallelism: the bar holds on any host.
    assert speedup_envs_8 >= 3.0, (
        f"expected >= 3x epoch throughput at envs=8, got "
        f"{speedup_envs_8:.2f}x")
