"""Tests for the ablation knobs: reward shaping, penalty mode, GA
crossover mode, and the CLI entry point."""

import numpy as np
import pytest

from repro.core.constraints import PlatformConstraint, platform_constraint
from repro.core.evaluator import DesignPointEvaluator
from repro.env import HWAssignmentEnv
from repro.ga import LocalGA


class TestRewardShapingOptions:
    def test_rejects_unknown_shaping(self, cost_model, tiny_model,
                                     space_dla):
        constraint = PlatformConstraint(kind="area", budget=1e15)
        with pytest.raises(ValueError, match="reward_shaping"):
            HWAssignmentEnv(tiny_model, space_dla, "latency", constraint,
                            cost_model, dataflow="dla",
                            reward_shaping="clipped")

    def test_rejects_unknown_penalty(self, cost_model, tiny_model,
                                     space_dla):
        constraint = PlatformConstraint(kind="area", budget=1e15)
        with pytest.raises(ValueError, match="penalty_mode"):
            HWAssignmentEnv(tiny_model, space_dla, "latency", constraint,
                            cost_model, dataflow="dla",
                            penalty_mode="huge")

    def test_raw_reward_is_negative_cost(self, cost_model, tiny_model,
                                         space_dla):
        constraint = PlatformConstraint(kind="area", budget=1e15)
        env = HWAssignmentEnv(tiny_model, space_dla, "latency", constraint,
                              cost_model, dataflow="dla",
                              reward_shaping="raw")
        env.reset()
        _, reward, _, info = env.step((3, 3))
        assert reward == pytest.approx(
            -info["report"].latency_cycles)

    def test_constant_penalty_on_violation(self, cost_model, tiny_model,
                                           space_dla):
        constraint = platform_constraint(tiny_model, "dla", "area", "iotx",
                                         cost_model, space_dla)
        env = HWAssignmentEnv(tiny_model, space_dla, "latency", constraint,
                              cost_model, dataflow="dla",
                              penalty_mode="constant",
                              constant_penalty=-42.0)
        env.reset()
        done = False
        while not done:
            _, reward, done, info = env.step((11, 11))
        assert info["violated"]
        assert reward == -42.0

    def test_pmin_remains_default(self, cost_model, tiny_model, space_dla):
        constraint = PlatformConstraint(kind="area", budget=1e15)
        env = HWAssignmentEnv(tiny_model, space_dla, "latency", constraint,
                              cost_model, dataflow="dla")
        assert env.reward_shaping == "pmin"
        assert env.penalty_mode == "accumulated"


class TestCrossoverModes:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="crossover_mode"):
            LocalGA(crossover_mode="diagonal")

    def test_global_crossover_blends_parents(self):
        ga = LocalGA(crossover_mode="global", seed=0)
        a = [[1, 10], [1, 10], [1, 10], [1, 10]]
        b = [[9, 90], [9, 90], [9, 90], [9, 90]]
        children = [ga._global_crossover(a, b) for _ in range(20)]
        # Every gene comes from one of the parents...
        for child in children:
            for gene in child:
                assert gene in ([1, 10], [9, 90])
        # ...and blending actually mixes them.
        assert any(len({tuple(g) for g in child}) == 2
                   for child in children)

    def test_global_mode_runs_search(self, cost_model, mobilenet_slice,
                                     space_dla):
        constraint = platform_constraint(mobilenet_slice, "dla", "area",
                                         "iot", cost_model, space_dla)
        evaluator = DesignPointEvaluator(mobilenet_slice, "latency",
                                         constraint, cost_model, space_dla,
                                         dataflow="dla")
        seed = evaluator.decode_genome([2, 2] * len(mobilenet_slice))
        ga = LocalGA(crossover_mode="global", population_size=6, seed=0)
        result = ga.search(evaluator, seed, generations=8)
        assert result.best_cost is not None


class TestCLI:
    def test_models_command(self, capsys):
        from repro.__main__ import main

        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "mobilenet_v2" in out
        assert "resnet50" in out

    def test_evaluate_command(self, capsys):
        from repro.__main__ import main

        assert main(["evaluate", "--model", "ncf", "--pes", "8",
                     "--buffer", "29"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out

    def test_search_command_small(self, capsys):
        from repro.__main__ import main

        code = main(["search", "--model", "ncf", "--platform", "cloud",
                     "--epochs", "20", "--finetune", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fine-tuned" in out

    def test_search_mix_flag(self, capsys):
        from repro.__main__ import main

        code = main(["search", "--model", "ncf", "--platform", "cloud",
                     "--mix", "--epochs", "20", "--finetune", "0"])
        assert code == 0

    def test_unknown_command_exits(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["destroy"])

    @pytest.mark.parametrize("argv", [
        ["search", "--model", "ncf"],
        ["compare", "--model", "ncf"],
        ["serve"],
    ])
    def test_kernel_option_is_gone(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--kernel", "batched"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --kernel batched" \
            in capsys.readouterr().err
