"""Differential suite: the batched evaluator vs the scalar oracle.

The numpy engine of :mod:`repro.core.batch_eval` claims bit-level
fidelity to the scalar evaluation chain (``MacroPartition.from_gene``
-> ``allocate_components`` -> ``PerformanceEvaluator.evaluate``). This
suite pins that claim across the entire model zoo and a grid of power
budgets (spanning infeasible, tight and generous regimes), for both
macro-sharing settings and both macro-specialization modes — and then
end to end: full synthesis must select the *identical* solution, with
identical search and pruning telemetry, with numpy and without it
(the ``without_numpy`` fixture), serial or pooled.
"""

from __future__ import annotations

import random

import pytest

from repro.core import Pimsyn, SynthesisConfig
from repro.core.dataflow import make_spec
from repro.core.macro_partition import MacroPartitionExplorer
from repro.hardware.power import PowerBudget
from repro.nn import zoo

POWER_GRID = (0.5, 2.0, 8.0, 50.0, 200.0)
METRIC_FIELDS = (
    "period", "latency", "throughput", "tops", "power",
    "tops_per_watt", "energy_per_image", "edp",
)


def _explorer(model, power, sharing=True, specialized=True,
              res_dac=1, seed=1):
    """A stage-3 explorer over a ones-WtDup spec for ``model``."""
    config = SynthesisConfig.fast(total_power=power)
    config.enable_macro_sharing = sharing
    config.specialized_macros = specialized
    n = model.num_weighted_layers
    spec = make_spec(
        model, [1] * n, xb_size=128, res_rram=2, res_dac=res_dac,
        params=config.params,
        max_blocks_per_layer=config.max_blocks_per_layer,
    )
    budget = PowerBudget(
        total_power=power, ratio_rram=0.3, xb_size=128, res_rram=2,
        num_crossbars=4096,
    )
    return MacroPartitionExplorer(
        spec=spec, budget=budget, res_dac=res_dac, config=config,
        rng=random.Random(seed),
    )


def _population(explorer, size=24, seed=2):
    """Seed genes plus a random mutation walk (all rule-valid)."""
    genes = explorer.initial_population(min(size, 8))
    rng = random.Random(seed)
    while len(genes) < size:
        parent = rng.choice(genes)
        operator = rng.choice(
            [explorer.mutate_num, explorer.mutate_share]
        )
        genes.append(operator(parent, rng))
    return genes


def _assert_equal(scalar, batched, label):
    assert scalar == batched, (
        f"{label}: scalar={scalar!r} batched={batched!r}"
    )


class TestZooDifferential:
    """Every zoo model x power grid: metrics are ``==``."""

    @pytest.mark.parametrize("name", zoo.available_models())
    def test_all_metrics_match_scalar_oracle(self, name):
        model = zoo.by_name(name)
        feasible_seen = 0
        infeasible_seen = 0
        for power in POWER_GRID:
            explorer = _explorer(model, power)
            genes = _population(explorer)
            batch = explorer.batch_evaluator.evaluate_population(genes)
            for k, gene in enumerate(genes):
                fitness, allocation, result = explorer.score(gene)
                _assert_equal(
                    fitness, float(batch.fitness[k]),
                    f"{name}@{power}W gene {k} fitness",
                )
                if allocation is None:
                    infeasible_seen += 1
                    assert not bool(batch.feasible[k])
                    continue
                feasible_seen += 1
                assert bool(batch.feasible[k])
                for field in METRIC_FIELDS:
                    _assert_equal(
                        getattr(result, field),
                        float(getattr(batch, field)[k]),
                        f"{name}@{power}W gene {k} {field}",
                    )
                assert result.bottleneck_layer == int(
                    batch.bottleneck_layer[k]
                )
        # The grid must actually exercise both regimes.
        assert feasible_seen > 0
        assert infeasible_seen > 0

    @pytest.mark.parametrize("sharing,specialized", [
        (True, False), (False, True), (False, False),
    ])
    def test_mode_flags_match_scalar_oracle(self, sharing, specialized):
        """Identical-macro and no-sharing variants stay differential."""
        for name in ("lenet5", "vgg13", "resnet18_cifar"):
            model = zoo.by_name(name)
            explorer = _explorer(
                model, 8.0, sharing=sharing, specialized=specialized
            )
            genes = _population(explorer)
            batched = explorer.score_population(genes)
            for gene, value in zip(genes, batched):
                _assert_equal(
                    explorer.score(gene)[0], value,
                    f"{name} sharing={sharing} "
                    f"specialized={specialized}",
                )

    def test_score_population_scalar_fallback(self, without_numpy):
        """Without numpy, score_population degrades to the scalar loop
        with identical values."""
        explorer = _explorer(zoo.by_name("lenet5"), 2.0)
        genes = _population(explorer, size=8)
        batched = explorer.score_population(genes)
        with without_numpy():
            assert explorer.score_population(genes) == batched

    def test_res_dac_variants(self):
        """ResDAC changes bit-serial depth; both engines must track."""
        model = zoo.by_name("alexnet_cifar")
        for res_dac in (1, 2, 4):
            explorer = _explorer(model, 8.0, res_dac=res_dac)
            genes = _population(explorer, size=12)
            batched = explorer.score_population(genes)
            for gene, value in zip(genes, batched):
                _assert_equal(
                    explorer.score(gene)[0], value,
                    f"res_dac={res_dac}",
                )


class TestFullSynthesisIdentity:
    """Whether numpy imports is an execution detail: with it, task
    bounds, EA scoring and the SA filter run batched; without it, on
    their scalar oracles. Results are identical."""

    @pytest.mark.parametrize("name,power", [
        ("lenet5", 2.0), ("alexnet_cifar", 8.0),
    ])
    def test_identical_solution_and_telemetry(
        self, name, power, without_numpy
    ):
        model = zoo.by_name(name)

        def run(backend):
            synthesizer = Pimsyn(model, SynthesisConfig.fast(
                total_power=power, seed=7, backend=backend,
            ))
            return synthesizer.synthesize().to_json(), synthesizer.report

        batched, batched_report = run("numpy")
        with without_numpy():
            scalar, scalar_report = run("python")
        assert batched == scalar
        # Even the search telemetry matches: the batched engine walks
        # the same RNG stream and consults the same memo, and the grid
        # bounds make the per-task walk's pruning decisions.
        assert batched_report.ea_evaluations == scalar_report.ea_evaluations
        assert batched_report.cache_hits == scalar_report.cache_hits
        assert batched_report.ea_runs == scalar_report.ea_runs
        assert batched_report.pruned_tasks == scalar_report.pruned_tasks

    def test_identical_across_jobs_and_batch(self, without_numpy):
        """The 2x2 (jobs, numpy) grid returns one solution."""
        outputs = set()
        for jobs in (1, 2):
            outputs.add(Pimsyn(zoo.by_name("lenet5"), (
                SynthesisConfig.fast(total_power=2.0, seed=11, jobs=jobs)
            )).synthesize().to_json())
            with without_numpy():
                outputs.add(Pimsyn(zoo.by_name("lenet5"), (
                    SynthesisConfig.fast(
                        total_power=2.0, seed=11, jobs=jobs,
                        backend="python",
                    )
                )).synthesize().to_json())
        assert len(outputs) == 1


class TestTechnologyDifferential:
    """Scalar-vs-batched identity must hold for *every* technology
    profile, not just the default reram constants (the batched engine
    consumes profile tables — ADC curves, resolution ranges, crossbar
    latency — so each built-in profile exercises different table
    entries)."""

    @pytest.mark.parametrize(
        "tech", ("reram", "reram-lp", "sram-pim")
    )
    def test_population_metrics_match_scalar_oracle(self, tech):
        model = zoo.by_name("vgg13")
        for power in (2.0, 8.0):
            config = SynthesisConfig.fast(total_power=power, tech=tech)
            res_rram = config.res_rram_choices[0]
            n = model.num_weighted_layers
            spec = make_spec(
                model, [1] * n, xb_size=128, res_rram=res_rram,
                res_dac=1, params=config.params,
                max_blocks_per_layer=config.max_blocks_per_layer,
            )
            budget = PowerBudget(
                total_power=power, ratio_rram=0.3, xb_size=128,
                res_rram=res_rram, num_crossbars=4096,
            )
            explorer = MacroPartitionExplorer(
                spec=spec, budget=budget, res_dac=1, config=config,
                rng=random.Random(3),
            )
            genes = _population(explorer, size=16)
            batch = explorer.batch_evaluator.evaluate_population(genes)
            for k, gene in enumerate(genes):
                fitness, allocation, result = explorer.score(gene)
                _assert_equal(
                    fitness, float(batch.fitness[k]),
                    f"{tech}@{power}W gene {k} fitness",
                )
                if allocation is None:
                    continue
                for field in METRIC_FIELDS:
                    _assert_equal(
                        getattr(result, field),
                        float(getattr(batch, field)[k]),
                        f"{tech}@{power}W gene {k} {field}",
                    )

    @pytest.mark.parametrize("tech", ("reram-lp", "sram-pim"))
    def test_full_synthesis_identity_per_technology(
        self, tech, without_numpy
    ):
        """Numpy stays an execution detail off-reram too, and
        non-default technologies synthesize end to end."""
        from repro.core.design_space import DesignSpace

        model = zoo.by_name("lenet5")
        probe = SynthesisConfig.fast(tech=tech)
        power = DesignSpace(model, probe).minimum_feasible_power(
            margin=2.0
        )

        def run(backend):
            solution = Pimsyn(model, SynthesisConfig.fast(
                total_power=power, seed=7, tech=tech, backend=backend,
            )).synthesize()
            assert solution.evaluation.throughput > 0
            return solution.to_json()

        batched = run("numpy")
        with without_numpy():
            assert run("python") == batched
