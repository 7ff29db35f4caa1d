"""Parity suite for the vectorized batched estimator.

The batched engine is engineered to be *bit-identical* to the scalar path
(same expression order, same integer semantics), so these tests assert
exact equality -- far stronger than the 1e-9 tolerance the engine
guarantees publicly.  Coverage spans all three dataflow styles, DWCONV
layers, MIX assignments, LP and LS deployments, both constraint kinds,
seeded end-to-end equivalence of every search method that routes
through the batch API, extreme layer geometries, and the engine's
bounded caches and table identities.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.constraints import ResourceConstraint, platform_constraint
from repro.core.evaluator import DesignPointEvaluator
from repro.costmodel import (
    BATCH_STYLES,
    DEFAULT_HW,
    BatchedCostModel,
    CostModel,
    LayerTable,
    STYLE_INDEX,
)
from repro.costmodel.batched import (
    LRUCache,
    area_terms,
    evaluate_batch_kernel,
    table_token,
)
from repro.costmodel.report import BatchCostReport
from repro.env.spaces import ActionSpace
from repro.experiments import ls_study
from repro.ga import LocalGA
from repro.models import get_model
from repro.models.layers import Layer, LayerType
from repro.optim import BASELINE_OPTIMIZERS


@pytest.fixture(scope="module")
def model_layers():
    """A MobileNet-V2 slice: CONV, DWCONV, and PWCONV layers."""
    return get_model("mobilenet_v2")[:10]


def assert_reports_equal(scalar, batched):
    for field in dataclasses.fields(scalar):
        a = getattr(scalar, field.name)
        b = getattr(batched, field.name)
        assert a == b, f"{field.name}: scalar {a!r} != batched {b!r}"


# ----------------------------------------------------------------------
# Per-layer parity
# ----------------------------------------------------------------------
class TestLayerParity:
    @pytest.mark.parametrize("style", BATCH_STYLES)
    def test_exact_parity_all_styles(self, style, cost_model, tiny_model):
        """Every CostReport field matches exactly on a dense sweep across
        CONV, DWCONV, PWCONV, and GEMM layers."""
        pes = np.array([1, 2, 3, 7, 16, 64, 128, 500])
        l1 = np.array([1, 5, 19, 64, 129, 300, 2048, 9999])
        for layer in tiny_model:
            batch = cost_model.evaluate_layer_batch(
                layer, style, np.repeat(pes, len(l1)), np.tile(l1, len(pes)))
            i = 0
            for p in pes:
                for b in l1:
                    scalar = cost_model.evaluate_layer(layer, style,
                                                       int(p), int(b))
                    assert_reports_equal(scalar, batch.report(i))
                    i += 1

    def test_random_fuzz_parity(self, cost_model, model_layers):
        rng = np.random.default_rng(0)
        table = LayerTable.build(model_layers)
        n = 300
        layer_idx = rng.integers(0, len(model_layers), n)
        style_idx = rng.integers(0, len(BATCH_STYLES), n)
        pes = rng.integers(1, 300, n)
        l1 = rng.integers(1, 4000, n)
        batch = cost_model.batched.evaluate(table, layer_idx, style_idx,
                                            pes, l1)
        for i in range(n):
            scalar = cost_model.evaluate_layer(
                model_layers[layer_idx[i]], BATCH_STYLES[style_idx[i]],
                int(pes[i]), int(l1[i]))
            assert_reports_equal(scalar, batch.report(i))

    def test_objective_and_constraint_lookup(self, cost_model, conv_layer):
        batch = cost_model.evaluate_layer_batch(
            conv_layer, "dla", np.array([4, 8]), np.array([19, 39]))
        assert np.all(batch.objective("edp")
                      == batch.energy_nj * batch.latency_cycles)
        assert np.all(batch.constraint("area") == batch.area_um2)
        with pytest.raises(KeyError, match="objective"):
            batch.objective("nope")
        with pytest.raises(KeyError, match="constraint"):
            batch.constraint("nope")

    def test_rejects_bad_inputs(self, cost_model, conv_layer, tiny_model):
        table = LayerTable.build(tiny_model)
        ones = np.ones(2, dtype=np.int64)
        with pytest.raises(ValueError, match="pes"):
            cost_model.batched.evaluate(table, ones * 0, 0, ones * 0, ones)
        with pytest.raises(ValueError, match="l1_bytes"):
            cost_model.batched.evaluate(table, ones * 0, 0, ones, ones * 0)
        with pytest.raises(ValueError, match="style"):
            cost_model.batched.evaluate(table, ones * 0, 9, ones, ones)
        with pytest.raises(ValueError, match="layer_idx"):
            cost_model.batched.evaluate(table, ones * 99, 0, ones, ones)
        with pytest.raises(ValueError, match="empty"):
            cost_model.evaluate_layer_batch(conv_layer, "dla",
                                            np.array([], dtype=int),
                                            np.array([], dtype=int))
        with pytest.raises(ValueError, match="zero layers"):
            LayerTable.build([])


# ----------------------------------------------------------------------
# Whole-model / population parity
# ----------------------------------------------------------------------
def _constraints(layers, cost_model):
    space = ActionSpace.build("dla")
    return [
        platform_constraint(layers, "dla", "area", "iot", cost_model, space),
        platform_constraint(layers, "dla", "power", "cloud", cost_model,
                            space),
        ResourceConstraint(max_pes=250, max_l1_bytes=30_000),
    ]


def _random_genomes(rng, space, num_layers, count):
    genomes = []
    for _ in range(count):
        genome = []
        for _ in range(num_layers):
            genome.append(int(rng.integers(space.num_levels)))
            genome.append(int(rng.integers(space.num_levels)))
            if space.is_mix:
                genome.append(int(rng.integers(len(space.dataflows))))
        genomes.append(genome)
    return genomes


class TestPopulationParity:
    @pytest.mark.parametrize("mix", [False, True])
    @pytest.mark.parametrize("deployment", ["lp", "ls"])
    @pytest.mark.parametrize("objective", ["latency", "energy", "edp"])
    def test_population_matches_scalar(self, mix, deployment, objective,
                                       cost_model, model_layers):
        """evaluate_population == per-genome evaluate_genome, exactly,
        across MIX/fixed styles, LP/LS deployments, every objective, and
        both constraint kinds."""
        rng = np.random.default_rng(42)
        space = ActionSpace.build("dla", mix=mix)
        for constraint in _constraints(model_layers, cost_model):
            evaluator = DesignPointEvaluator(
                model_layers, objective, constraint, cost_model, space,
                dataflow=None if mix else "dla", deployment=deployment)
            genomes = _random_genomes(rng, space, len(model_layers), 25)
            batched = evaluator.evaluate_population(genomes)
            for genome, outcome in zip(genomes, batched):
                scalar = evaluator.evaluate_genome(genome)
                assert outcome.cost == scalar.cost
                assert outcome.feasible == scalar.feasible
                assert outcome.used == scalar.used
                assert (outcome.report.latency_cycles
                        == scalar.report.latency_cycles)
                assert outcome.report.energy_nj == scalar.report.energy_nj
                assert outcome.report.area_um2 == scalar.report.area_um2
                assert outcome.report.power_mw == scalar.report.power_mw

    def test_population_raw_mix_assignments(self, cost_model, model_layers):
        """Raw assignments carrying explicit per-layer styles (the MIX
        genome format of the stage-2 GA)."""
        rng = np.random.default_rng(3)
        space = ActionSpace.build(mix=True)
        constraint = _constraints(model_layers, cost_model)[0]
        evaluator = DesignPointEvaluator(
            model_layers, "latency", constraint, cost_model, space)
        populations = [
            [(int(rng.integers(1, 128)), int(rng.integers(1, 2048)),
              BATCH_STYLES[int(rng.integers(3))])
             for _ in model_layers]
            for _ in range(12)
        ]
        batched = evaluator.evaluate_population_raw(populations)
        for assignments, outcome in zip(populations, batched):
            scalar = evaluator.evaluate_raw(assignments)
            assert outcome.cost == scalar.cost
            assert outcome.feasible == scalar.feasible
            assert outcome.used == scalar.used

    def test_empty_population(self, cost_model, model_layers):
        space = ActionSpace.build("dla")
        constraint = _constraints(model_layers, cost_model)[0]
        evaluator = DesignPointEvaluator(
            model_layers, "latency", constraint, cost_model, space,
            dataflow="dla")
        assert evaluator.evaluate_population([]) == []
        assert evaluator.evaluate_population_raw([]) == []
        assert evaluator.evaluations == 0

    def test_population_counts_evaluations(self, cost_model, model_layers):
        space = ActionSpace.build("dla")
        constraint = _constraints(model_layers, cost_model)[0]
        evaluator = DesignPointEvaluator(
            model_layers, "latency", constraint, cost_model, space,
            dataflow="dla")
        genomes = _random_genomes(np.random.default_rng(0), space,
                                  len(model_layers), 7)
        evaluator.evaluate_population(genomes)
        assert evaluator.evaluations == 7

    def test_population_rejects_bad_genomes(self, cost_model, model_layers):
        space = ActionSpace.build("dla")
        constraint = _constraints(model_layers, cost_model)[0]
        evaluator = DesignPointEvaluator(
            model_layers, "latency", constraint, cost_model, space,
            dataflow="dla")
        with pytest.raises(ValueError, match="length"):
            evaluator.evaluate_population([[0, 0]])
        bad = [0] * evaluator.genome_length
        bad[0] = space.num_levels
        with pytest.raises(ValueError, match="PE level"):
            evaluator.evaluate_population([bad])


# ----------------------------------------------------------------------
# Model-level study helpers
# ----------------------------------------------------------------------
class TestStudyParity:
    def test_layer_contour_matches_scalar(self, cost_model, model_layers):
        space = ActionSpace.build("dla")
        layer = model_layers[4]
        grid = ls_study.layer_contour(layer, "dla", "latency", cost_model,
                                      space)
        for pe_idx, pes in enumerate(space.pe_levels):
            for buf_idx, l1_bytes in enumerate(space.buf_levels):
                report = cost_model.evaluate_layer(layer, "dla", pes,
                                                   l1_bytes)
                assert grid[pe_idx, buf_idx] == report.latency_cycles

    def test_uniform_sweep_matches_uniform_cost(self, cost_model,
                                                model_layers):
        space = ActionSpace.build("dla")
        for objective in ("latency", "energy", "edp"):
            grid = ls_study.uniform_sweep(model_layers, "dla", objective,
                                          cost_model, space)
            for pe_idx in (0, 5, 11):
                for buf_idx in (0, 5, 11):
                    expected = ls_study.uniform_cost(
                        model_layers, "dla", objective, cost_model,
                        space.pe_levels[pe_idx], space.buf_levels[buf_idx])
                    assert grid[pe_idx, buf_idx] == expected


# ----------------------------------------------------------------------
# Seeded end-to-end search equivalence through the batch path
# ----------------------------------------------------------------------
class TestSearchEquivalence:
    @pytest.mark.parametrize("name", sorted(BASELINE_OPTIMIZERS))
    def test_baseline_batch_equals_scalar(self, name, cost_model,
                                          model_layers):
        """Every baseline optimizer returns identical best costs, genomes,
        and convergence histories through the batch path."""
        space = ActionSpace.build("dla")
        constraint = _constraints(model_layers, cost_model)[0]

        def run(use_batch):
            evaluator = DesignPointEvaluator(
                model_layers, "latency", constraint, cost_model, space,
                dataflow="dla")
            optimizer = BASELINE_OPTIMIZERS[name](seed=11,
                                                  use_batch=use_batch)
            return optimizer.search(evaluator, 60)

        batched, scalar = run(True), run(False)
        assert batched.best_cost == scalar.best_cost
        assert batched.best_genome == scalar.best_genome
        assert batched.history == scalar.history
        assert batched.evaluations == scalar.evaluations

    def test_local_ga_batch_equals_scalar(self, cost_model, model_layers):
        space = ActionSpace.build("dla")
        constraint = _constraints(model_layers, cost_model)[0]

        def run(**kwargs):
            evaluator = DesignPointEvaluator(
                model_layers, "latency", constraint, cost_model, space,
                dataflow="dla")
            seed_assignments = evaluator.decode_genome(
                [2, 2] * len(model_layers))
            ga = LocalGA(population_size=10, seed=9, **kwargs)
            return ga.search(evaluator, seed_assignments, generations=15)

        batched = run()
        scalar = run(use_batch=False, memoize=False)
        assert batched.best_cost == scalar.best_cost
        assert batched.best_assignments == scalar.best_assignments
        assert batched.history == scalar.history
        # evaluations keeps sample-count semantics regardless of the memo.
        assert batched.evaluations == scalar.evaluations

    def test_local_ga_memo_skips_duplicate_offspring(self, cost_model,
                                                     model_layers):
        """With the paper's low mutation rate, elitism breeds duplicate
        offspring; the memo must serve them without estimator calls."""
        space = ActionSpace.build("dla")
        constraint = _constraints(model_layers, cost_model)[0]
        evaluator = DesignPointEvaluator(
            model_layers, "latency", constraint, cost_model, space,
            dataflow="dla")
        seed_assignments = evaluator.decode_genome(
            [2, 2] * len(model_layers))
        ga = LocalGA(population_size=10, mutation_rate=0.02,
                     crossover_rate=0.0, seed=1)
        result = ga.search(evaluator, seed_assignments, generations=20)
        assert result.cache_hits > 0
        # ``evaluations`` reports all fitness samples (memo hits
        # included); only the difference reached the estimator.
        total_lookups = 10 + 20 * (10 - ga.elite)
        assert result.evaluations == total_lookups
        assert evaluator.evaluations == total_lookups - result.cache_hits


# ----------------------------------------------------------------------
# Population dedup memo (duplicate design points hit the kernel once)
# ----------------------------------------------------------------------
class TestPopulationDedup:
    def _evaluator(self, cost_model, model_layers, deployment="lp"):
        space = ActionSpace.build("dla")
        constraint = _constraints(model_layers, cost_model)[0]
        return DesignPointEvaluator(model_layers, "latency", constraint,
                                    cost_model, space, dataflow="dla",
                                    deployment=deployment)

    @pytest.mark.parametrize("deployment", ["lp", "ls"])
    def test_duplicates_bit_identical_and_counted(self, cost_model,
                                                  model_layers,
                                                  deployment):
        """A population with duplicate rows returns exactly the per-genome
        scalar results while the duplicates are served from the memo."""
        evaluator = self._evaluator(cost_model, model_layers, deployment)
        reference = self._evaluator(cost_model, model_layers, deployment)
        rng = np.random.default_rng(0)
        space = evaluator.space
        unique = _random_genomes(rng, space, len(model_layers), 6)
        population = unique + unique[:4] + [unique[2]]
        outcomes = evaluator.evaluate_population(population)
        assert evaluator.cache_hits == 5
        # the budget currency still charges the full population
        assert evaluator.evaluations == len(population)
        for genome, outcome in zip(population, outcomes):
            scalar = reference.evaluate_genome(genome)
            assert outcome.cost == scalar.cost
            assert outcome.feasible == scalar.feasible
            assert outcome.used == scalar.used
            assert outcome.report.latency_cycles \
                == scalar.report.latency_cycles

    def test_all_unique_population_untouched(self, cost_model,
                                             model_layers):
        evaluator = self._evaluator(cost_model, model_layers)
        rng = np.random.default_rng(1)
        genomes = _random_genomes(rng, evaluator.space,
                                  len(model_layers), 8)
        evaluator.evaluate_population(genomes)
        assert evaluator.cache_hits == 0

    def test_raw_population_dedups_too(self, cost_model, model_layers):
        evaluator = self._evaluator(cost_model, model_layers)
        assignments = evaluator.decode_genome([3, 3] * len(model_layers))
        outcomes = evaluator.evaluate_population_raw(
            [assignments, assignments, assignments])
        assert evaluator.cache_hits == 2
        assert len({o.cost for o in outcomes}) == 1

    def test_genome_optimizer_reports_cache_hits(self, cost_model,
                                                 model_layers):
        """Elitist GA generations re-breed duplicates; the search result
        surfaces how many the evaluator memo absorbed."""
        evaluator = self._evaluator(cost_model, model_layers)
        ga = BASELINE_OPTIMIZERS["ga"](seed=0)
        result = ga.search(evaluator, 120)
        assert result.cache_hits == evaluator.cache_hits
        assert result.evaluations == 120


# ----------------------------------------------------------------------
# Extreme layer geometries
# ----------------------------------------------------------------------
REPORT_FIELDS = [f.name for f in dataclasses.fields(BatchCostReport)]
INT_FIELDS = ("pes_used", "l1_bytes_per_pe", "l2_bytes", "tile_k", "macs")

EDGE_LAYERS = [
    # L1 smaller than one R*S window.
    Layer("tiny-l1", LayerType.CONV, K=8, C=4, Y=14, X=14, R=5, S=5),
    # 1x1 kernel (R=S=1): window math degenerates.
    Layer("one-by-one", LayerType.PWCONV, K=16, C=8, Y=7, X=7),
    # Depthwise with a single channel.
    Layer("dw-c1", LayerType.DWCONV, K=1, C=1, Y=14, X=14, R=3, S=3),
    # Single output channel.
    Layer("k1", LayerType.CONV, K=1, C=16, Y=7, X=7, R=3, S=3),
    # Wide layer for the overflow probe.
    Layer("wide", LayerType.CONV, K=512, C=512, Y=56, X=56, R=3, S=3),
]

EDGE_POINTS = [
    (1, 1),                  # minimum everything
    (1, 4),                  # l1 < R*S for the 5x5 layer
    (7, 24),                 # l1 < window+S edge for shi
    (2 ** 20, 2 ** 20),      # huge pes * l1: int64 headroom probe
]


class TestEdgeDims:
    @pytest.mark.parametrize("style", BATCH_STYLES)
    def test_scalar_batched_agree(self, style, cost_model):
        """Scalar and batched paths agree exactly on every edge
        geometry x design-point combination, for every style."""
        table = LayerTable.build(EDGE_LAYERS)
        points = np.array(EDGE_POINTS, dtype=np.int64)
        n_layers, n_points = len(EDGE_LAYERS), len(points)
        layer_idx = np.repeat(np.arange(n_layers), n_points)
        style_idx = np.full(n_layers * n_points, STYLE_INDEX[style])
        pes = np.tile(points[:, 0], n_layers)
        l1 = np.tile(points[:, 1], n_layers)

        batched = evaluate_batch_kernel(DEFAULT_HW, table, layer_idx,
                                        style_idx, pes, l1)
        # The closed-form area the vector env checks budgets with is the
        # report's area, bit for bit (int64-headroom point included).
        assert area_terms(DEFAULT_HW, pes, l1)[0].tobytes() \
            == batched.area_um2.tobytes()
        for i in range(len(layer_idx)):
            scalar = cost_model.evaluate_layer(
                EDGE_LAYERS[layer_idx[i]], style,
                int(pes[i]), int(l1[i]))
            for name in REPORT_FIELDS:
                assert getattr(scalar, name) == getattr(batched, name)[i], \
                    f"{name} @ {EDGE_LAYERS[layer_idx[i]].name} " \
                    f"pes={pes[i]} l1={l1[i]}"

    @pytest.mark.parametrize("style", BATCH_STYLES)
    def test_huge_products_stay_positive(self, style):
        """pes * l1_bytes around 2**40 must not wrap int64 anywhere:
        every integer report field stays non-negative and the MAC count
        is positive."""
        table = LayerTable.build(EDGE_LAYERS)
        n = len(EDGE_LAYERS)
        report = evaluate_batch_kernel(
            DEFAULT_HW, table, np.arange(n),
            np.full(n, STYLE_INDEX[style]),
            np.full(n, 2 ** 20), np.full(n, 2 ** 20))
        for name in INT_FIELDS:
            values = getattr(report, name)
            assert (values >= 0).all(), f"{name} wrapped negative"
        assert (report.l2_bytes > 0).all()
        assert (report.macs > 0).all()
        assert np.isfinite(report.latency_cycles).all()
        assert np.isfinite(report.energy_nj).all()


# ----------------------------------------------------------------------
# Caches and table identity
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_capacity_bound_evicts_oldest(self):
        cache = LRUCache(3)
        for i in range(5):
            cache.put(i, str(i))
        assert len(cache) == 3
        assert cache.get(0) is None and cache.get(1) is None
        assert cache.get(4) == "4"

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3


def test_table_tokens_never_recycled():
    """Regression for ``id(table)`` keys: ``id()`` is recycled by the
    allocator the moment a table dies, so a new table could inherit a
    worker's stale table.  Tokens are monotonic, stable per table, and
    unique across tables no matter how many die."""
    import gc

    first = LayerTable.build(get_model("ncf"))
    token = table_token(first)
    assert table_token(first) == token  # stable per table
    seen = {token}
    del first
    for _ in range(5):
        gc.collect()
        fresh = LayerTable.build(get_model("ncf"))
        fresh_token = table_token(fresh)
        assert fresh_token not in seen
        seen.add(fresh_token)
        del fresh


class TestSingleTableCache:
    def test_single_layer_tables_bounded(self):
        """Regression: the per-layer table cache used to grow without
        bound under layer-sweep workloads."""
        model = BatchedCostModel()
        layers = [Layer(f"l{k}", LayerType.CONV, K=8 + k, C=8,
                        Y=7, X=7, R=3, S=3) for k in range(40)]
        for layer in layers:
            model.evaluate_layer_batch(layer, "dla",
                                       np.array([64]), np.array([512]))
        assert len(model._single_tables) <= 16

    def test_scalar_inputs_promote_to_length_one(self, conv_layer):
        """Regression: 0-d pes / l1_bytes used to fail batch validation."""
        model = BatchedCostModel()
        for pes, l1 in [(64, 512), (np.int64(64), np.int64(512)),
                        (np.array(64), np.array(512))]:
            report = model.evaluate_layer_batch(conv_layer, "dla", pes, l1)
            assert len(report) == 1
        vector = model.evaluate_layer_batch(conv_layer, "dla",
                                            np.array([64]),
                                            np.array([512]))
        scalar = model.evaluate_layer_batch(conv_layer, "dla", 64, 512)
        for name in REPORT_FIELDS:
            a, b = getattr(vector, name), getattr(scalar, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
