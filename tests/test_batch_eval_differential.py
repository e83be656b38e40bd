"""Differential suite: the batched evaluator vs the scalar oracle.

The numpy kernel behind :mod:`repro.core.batch_eval` claims bit-level
fidelity to the scalar evaluation chain (``MacroPartition.from_gene``
-> ``allocate_components`` -> ``PerformanceEvaluator.evaluate``), on
every :class:`~repro.core.batch_eval.BatchEvaluation` field. This suite
pins that claim across the entire model zoo and a grid of power
budgets (spanning infeasible, tight and generous regimes), for both
macro-sharing settings and both macro-specialization modes, and on the
kernel's risky inputs: population sizes on a residual DAG and a
NoC-bound context. Both paths reject the same malformed genes — an
owner shared by two layers among them (rule b allows pairs only). Then
end to end: full synthesis must select the *identical* solution, with
identical search and pruning telemetry, with numpy and without it
(the ``without_numpy`` fixture), serial or pooled, and the committed
pareto golden reproduces both ways. The kernel's deferred metrics pass
runs only when one of its fields is read, once, and every read order
of the twelve fields reads the oracle's values.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.core import Pimsyn, SynthesisConfig
from repro.core.backend import numpy_available
from repro.core.batch_eval import BATCH_FIELDS, DEFERRED_FIELDS
from repro.core.dataflow import make_spec
from repro.core.design_space import DesignPoint
from repro.core.executor import EvaluationTask, _TaskRunner
from repro.core.macro_partition import (
    MacroPartition,
    MacroPartitionExplorer,
    PopulationScorer,
    encode_gene,
)
from repro.errors import ConfigurationError
from repro.hardware.params import HardwareParams
from repro.hardware.power import PowerBudget
from repro.nn import zoo

POWER_GRID = (0.5, 2.0, 8.0, 50.0, 200.0)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the batched path needs numpy"
)


def _explorer(model, power, sharing=True, specialized=True,
              res_dac=1, seed=1, params=None, xb_size=128, wt_dup=1):
    """A stage-3 explorer over a uniform-WtDup spec for ``model``."""
    config = SynthesisConfig.fast(total_power=power, params=params)
    config.enable_macro_sharing = sharing
    config.specialized_macros = specialized
    n = model.num_weighted_layers
    spec = make_spec(
        model, [wt_dup] * n, xb_size=xb_size, res_rram=2,
        res_dac=res_dac, params=config.params,
        max_blocks_per_layer=config.max_blocks_per_layer,
    )
    budget = PowerBudget(
        total_power=power, ratio_rram=0.3, xb_size=xb_size, res_rram=2,
        num_crossbars=4096,
    )
    return MacroPartitionExplorer(
        spec=spec, budget=budget, res_dac=res_dac, config=config,
        rng=random.Random(seed),
    )


def _fitness(explorer, genes):
    """``genes``' fitness through the DSE's population scorer: the
    numpy kernel when numpy imports, the scalar oracle otherwise."""
    return PopulationScorer([explorer]).fitness(genes, [0] * len(genes))


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


def _multi_sharer_genes(explorer, size, seed=3):
    """Genes whose owners are shared by two or more later layers.

    Each gene cuts a shuffled layer list into groups of one to four,
    and the smallest layer of a group owns it. Every referenced owner
    owns itself, but rule b allows pairs only, so both scoring paths
    reject the genes with a group of three or more.
    """
    rng = random.Random(seed)
    n = explorer.spec.num_layers
    genes = []
    for _ in range(size):
        layers = list(range(n))
        rng.shuffle(layers)
        owners = list(range(n))
        while layers:
            group = [
                layers.pop()
                for _ in range(min(len(layers), rng.randint(1, 4)))
            ]
            for layer in group:
                owners[layer] = min(group)
        counts = [rng.randint(1, cap) for cap in explorer.caps]
        genes.append(encode_gene(owners, counts))
    return genes


def _assert_equal(scalar, batched, label):
    assert scalar == batched, (
        f"{label}: scalar={scalar!r} batched={batched!r}"
    )


def _assert_matches_oracle(explorer, genes, batch, label):
    """Every BatchEvaluation field of every gene ``==`` the scalar
    oracle's (``MacroPartitionExplorer.score_fields``)."""
    assert len(batch) == len(genes)
    for k, gene in enumerate(genes):
        for name, want in explorer.score_fields(gene).items():
            _assert_equal(
                want, getattr(batch, name)[k], f"{label} gene {k} {name}"
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
            _assert_matches_oracle(
                explorer, genes, batch, f"{name}@{power}W"
            )
            feasible_seen += int(batch.feasible.sum())
            infeasible_seen += int((~batch.feasible).sum())
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
            batched = _fitness(explorer, genes)
            for gene, value in zip(genes, batched):
                _assert_equal(
                    explorer.score(gene)[0], value,
                    f"{name} sharing={sharing} "
                    f"specialized={specialized}",
                )

    def test_score_population_scalar_fallback(self, without_numpy):
        """Without numpy, the population scorer degrades to the scalar
        loop with identical values."""
        explorer = _explorer(zoo.by_name("lenet5"), 2.0)
        genes = _population(explorer, size=8)
        batched = _fitness(explorer, genes)
        with without_numpy():
            assert _fitness(explorer, genes) == batched

    def test_res_dac_variants(self):
        """ResDAC changes bit-serial depth; both engines must track."""
        model = zoo.by_name("alexnet_cifar")
        for res_dac in (1, 2, 4):
            explorer = _explorer(model, 8.0, res_dac=res_dac)
            genes = _population(explorer, size=12)
            batched = _fitness(explorer, genes)
            for gene, value in zip(genes, batched):
                _assert_equal(
                    explorer.score(gene)[0], value,
                    f"res_dac={res_dac}",
                )


@needs_numpy
class TestRiskyKernelCases:
    """Inputs where the kernel's array layout could part from the
    scalar oracle: population sizes on a DAG with out-degree 4 and
    in-degree 3, a NoC-bound context, and the knob settings the EA tier
    never runs."""

    @pytest.mark.parametrize("size", (1, 16, 128))
    def test_resnet18_population_sizes(self, size):
        explorer = _explorer(zoo.by_name("resnet18_cifar"), 50.0)
        ctx = explorer.batch_evaluator.context
        assert len(ctx.out_slots) == 4  # largest out-degree
        assert max(
            producers.shape[0] for _, producers, _ in ctx.levels
        ) == 3  # largest in-degree
        genes = _population(explorer, size=size, seed=size)
        batch = explorer.batch_evaluator.evaluate_population(genes)
        assert all(batch.feasible)
        _assert_matches_oracle(explorer, genes, batch, f"pop{size}")

    def test_noc_bound_resnet18_context(self):
        """With the NoC 100x slower, transfers set the stage times, so
        the order in which each producer adds its transfers reaches the
        metrics; at the real NoC speed it never decides a bit here."""
        explorer = _explorer(
            zoo.by_name("resnet18_cifar"), 50.0,
            params=HardwareParams(noc_frequency=1e7),
        )
        genes = _population(explorer, size=128, seed=1)
        batch = explorer.batch_evaluator.evaluate_population(genes)
        _assert_matches_oracle(explorer, genes, batch, "slow NoC")
        comm_bound = 0
        for gene in genes:
            _fitness, _allocation, result = explorer.score(gene)
            timing = result.layer_timings[result.bottleneck_layer]
            comm_bound += timing.bottleneck == "comm"
        assert comm_bound == len(genes)

    @pytest.mark.parametrize("knobs", (
        {"sharing": False}, {"specialized": False},
    ), ids=("no-sharing", "identical-macros"))
    def test_zoo_contexts_under_knobs(self, knobs):
        feasible = 0
        for name in zoo.available_models():
            for power in POWER_GRID:
                explorer = _explorer(zoo.by_name(name), power, **knobs)
                genes = _population(explorer)
                batch = explorer.batch_evaluator.evaluate_population(genes)
                _assert_matches_oracle(
                    explorer, genes, batch, f"{name}@{power}W"
                )
                feasible += int(batch.feasible.sum())
        assert feasible > 500


@needs_numpy
class TestStackedRows:
    """One model's task contexts stacked into one by the task grid (a
    task runner's chunk, ``_TaskRunner.launches``), as a lock-stepped
    wave of EA launches scores them: a population that mixes every
    row's genes scores ``==``, on every field, to each gene's own
    context."""

    #: (RatioRram, ResDAC, XbSize, WtDup) per row at 200 W: peripheral
    #: budgets from infeasible to generous, three DAC resolutions, two
    #: crossbar sizes (row tiling, so the merge-layer masks differ) and
    #: two duplications (block counts and pipeline fractions).
    ROWS = (
        (0.99825, 1, 128, 1), (0.972, 2, 128, 1), (0.825, 4, 256, 2),
        (0.3, 1, 256, 1), (0.972, 1, 128, 2),
    )

    def _rows(self, model, sharing=True, specialized=True):
        """The chunk of ``ROWS``' tasks on one runner: its explorers,
        in row order, and their stacked evaluator."""
        config = SynthesisConfig.fast(
            total_power=200.0, enable_macro_sharing=sharing,
            specialized_macros=specialized,
        )
        n = model.num_weighted_layers
        tasks = [
            EvaluationTask(
                index=row,
                point=DesignPoint(
                    ratio_rram=ratio, res_rram=2, xb_size=xb_size,
                    num_crossbars=4096,
                ),
                wt_dup=(wt_dup,) * n, res_dac=res_dac,
            )
            for row, (ratio, res_dac, xb_size, wt_dup)
            in enumerate(self.ROWS)
        ]
        return _TaskRunner(model, config).launches(tasks)

    @pytest.mark.parametrize("sharing,specialized", [
        (True, True), (True, False), (False, True), (False, False),
    ])
    @pytest.mark.parametrize("name", zoo.available_models())
    def test_mixed_rows_match_each_context(
        self, name, sharing, specialized
    ):
        explorers, stacked = self._rows(
            zoo.by_name(name), sharing=sharing, specialized=specialized
        )
        assert stacked.context.num_rows == len(self.ROWS)
        alone, entries = [], []
        for row, explorer in enumerate(explorers):
            genes = _population(explorer, size=12, seed=row)
            alone.append(
                explorer.batch_evaluator.evaluate_population(genes)
            )
            entries.extend((row, k, gene) for k, gene in enumerate(genes))
        random.Random(5).shuffle(entries)
        batch = stacked.evaluate_population(
            [gene for _row, _k, gene in entries],
            [row for row, _k, _gene in entries],
        )
        assert len(batch) == len(entries)
        for position, (row, k, _gene) in enumerate(entries):
            for field in BATCH_FIELDS:
                _assert_equal(
                    getattr(alone[row], field)[k],
                    getattr(batch, field)[position],
                    f"{name} row {row} gene {k} {field}",
                )
        feasible = [bool(batch.feasible[p]) for p in range(len(batch))]
        assert any(feasible) and not all(feasible)

    def test_one_row_is_its_own_stack(self):
        """A one-task chunk scores like the task's own evaluator, with
        or without rows."""
        runner = _TaskRunner(
            zoo.by_name("lenet5"), SynthesisConfig.fast(total_power=2.0)
        )
        task = EvaluationTask(
            index=0, point=DesignPoint(0.3, 2, 128, 4096),
            wt_dup=(1,) * 5, res_dac=1,
        )
        (explorer,), evaluator = runner.launches([task])
        genes = _population(explorer, size=8)
        want = explorer.batch_evaluator.fitness_of(genes)
        assert evaluator.fitness_of(genes, [0] * len(genes)) == want
        assert evaluator.fitness_of(genes) == want

    def test_a_chunk_scores_through_its_evaluator(self):
        """Several explorers score only through their chunk's stacked
        evaluator, row ``k`` for explorer ``k``; a scorer of several
        explorers built without it is refused."""
        explorers, stacked = self._rows(zoo.by_name("lenet5"))
        with pytest.raises(ConfigurationError, match="chunk's batched"):
            PopulationScorer(explorers)
        genes = _population(explorers[1], size=4)
        assert PopulationScorer(explorers, stacked).fitness(
            genes, [1] * len(genes)
        ) == explorers[1].batch_evaluator.fitness_of(genes)

    def test_rows_must_name_a_row_per_gene(self):
        explorers, stacked = self._rows(zoo.by_name("lenet5"))
        genes = _population(explorers[0], size=4)
        for rows in ([0, 1, 2], [0, 1, 2, len(self.ROWS)], [-1, 0, 0, 0]):
            with pytest.raises(ConfigurationError, match="rows"):
                stacked.evaluate_population(genes, rows)


@pytest.fixture
def metrics_runs(monkeypatch):
    """The arguments of each run of the kernel's deferred metrics
    pass, in order."""
    from repro.core import backend

    runs = []
    real = backend._metrics_pass

    def counted(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(backend, "_metrics_pass", counted)
    return runs


#: The fields the stage pass sets.
STAGE_FIELDS = tuple(
    name for name in BATCH_FIELDS if name not in DEFERRED_FIELDS
)


def _stacked_case():
    """A stacked resnet18 context, five rows from infeasible to
    generous, scoring their genes in shuffled order."""
    explorers, stacked = TestStackedRows()._rows(
        zoo.by_name("resnet18_cifar")
    )
    entries = [
        (row, gene)
        for row, explorer in enumerate(explorers)
        for gene in _population(explorer, size=8, seed=row)
    ]
    random.Random(7).shuffle(entries)
    genes = [gene for _row, gene in entries]
    rows = [row for row, _gene in entries]
    oracle = [explorers[row].score_fields(gene) for row, gene in entries]
    return lambda: stacked.evaluate_population(genes, rows), oracle


def _one_row_case(name, **knobs):
    """One task's context, its genes scored with ``rows=None``."""
    explorer = _explorer(zoo.by_name(name), 8.0, **knobs)
    genes = _population(explorer, size=16)
    oracle = [explorer.score_fields(gene) for gene in genes]
    return (
        lambda: explorer.batch_evaluator.evaluate_population(genes),
        oracle,
    )


DEFERRED_CASES = {
    "stacked-shuffled-rows": _stacked_case,
    "one-row": lambda: _one_row_case("resnet18_cifar"),
    "identical-macros": lambda: _one_row_case(
        "resnet18_cifar", specialized=False
    ),
    "sharing-off": lambda: _one_row_case("vgg13", sharing=False),
    "empty-population": lambda: (
        lambda: _explorer(
            zoo.by_name("lenet5"), 2.0
        ).batch_evaluator.evaluate_population([]),
        [],
    ),
}

#: Read orders of the twelve fields: as listed, reversed, the metrics
#: pass's first, and two shuffles.
READ_ORDERS = (
    BATCH_FIELDS,
    BATCH_FIELDS[::-1],
    DEFERRED_FIELDS + STAGE_FIELDS,
    tuple(random.Random(1).sample(BATCH_FIELDS, len(BATCH_FIELDS))),
    tuple(random.Random(2).sample(BATCH_FIELDS, len(BATCH_FIELDS))),
)


@needs_numpy
class TestDeferredMetricsPass:
    """``score_population`` runs the stage pass when called; its record
    runs the metrics pass (the pipeline latency, the power account and
    the derived metrics) once, the first time one of those fields is
    read. The EA's fitness never pays for it, and every field is ``==``
    to the scalar oracle whatever the read order."""

    def test_fields_are_listed_once(self):
        assert len(set(BATCH_FIELDS)) == len(BATCH_FIELDS) == 12
        assert set(DEFERRED_FIELDS) < set(BATCH_FIELDS)
        assert set(STAGE_FIELDS) == {
            "feasible", "fitness", "period", "throughput",
            "bottleneck_layer", "num_macros",
        }

    def test_stage_fields_never_run_the_metrics_pass(self, metrics_runs):
        explorer = _explorer(zoo.by_name("resnet18_cifar"), 50.0)
        genes = _population(explorer, size=16)
        evaluator = explorer.batch_evaluator
        batch = evaluator.evaluate_population(genes)
        for field in STAGE_FIELDS:
            getattr(batch, field)
        fitness = evaluator.fitness_of(genes, [0] * len(genes))
        assert fitness == batch.fitness.tolist()
        assert _fitness(explorer, genes) == fitness
        assert metrics_runs == []

    @pytest.mark.parametrize("field", DEFERRED_FIELDS)
    def test_any_metrics_field_runs_the_pass_once(
        self, metrics_runs, field
    ):
        explorer = _explorer(zoo.by_name("resnet18_cifar"), 50.0)
        genes = _population(explorer, size=16)
        batch = explorer.batch_evaluator.evaluate_population(genes)
        getattr(batch, field)
        assert len(metrics_runs) == 1
        for name in BATCH_FIELDS:
            getattr(batch, name)
        batch.rows()
        assert len(metrics_runs) == 1

    def test_an_assigned_field_survives_the_pass(self, metrics_runs):
        """A metrics field assigned before the pass runs keeps its
        assigned value; the pass fills the other five."""
        import numpy as np

        explorer = _explorer(zoo.by_name("lenet5"), 2.0)
        genes = _population(explorer, size=8)
        want = explorer.batch_evaluator.evaluate_population(genes)
        batch = explorer.batch_evaluator.evaluate_population(genes)
        batch.power = np.full(len(genes), -1.0)
        assert batch.latency.tolist() == want.latency.tolist()
        assert batch.power.tolist() == [-1.0] * len(genes)
        assert len(metrics_runs) == 2

    @pytest.mark.parametrize("case", sorted(DEFERRED_CASES))
    def test_every_read_order_matches_the_oracle(self, case, metrics_runs):
        evaluate, oracle = DEFERRED_CASES[case]()
        for order in READ_ORDERS:
            batch = evaluate()
            columns = {name: getattr(batch, name).tolist() for name in order}
            assert len(batch) == len(oracle)
            for k, want in enumerate(oracle):
                for name in BATCH_FIELDS:
                    _assert_equal(
                        want[name], columns[name][k],
                        f"{case} {order[0]}-first gene {k} {name}",
                    )
            assert batch.rows() == oracle
        # One metrics pass per non-empty batch, whatever the order.
        assert len(metrics_runs) == (len(READ_ORDERS) if oracle else 0)


@needs_numpy
class TestMalformedGenes:
    """Both scoring paths reject the same genes with
    ConfigurationError, so no gene gets two different scores."""

    def test_empty_and_malformed_populations(self):
        explorer = _explorer(zoo.by_name("lenet5"), 2.0)
        evaluator = explorer.batch_evaluator
        assert len(evaluator.evaluate_population([])) == 0
        with pytest.raises(ConfigurationError, match="shape"):
            evaluator.evaluate_population([(1001,)])

    @pytest.mark.parametrize("gene,message", [
        ((1, 1000, 2001, 3001, 4001), "#macros"),
        ((1, 2001, 2001, 3001, 4001), "owner"),
        ((1, 1, 2001, 1001, 4001), "not an owner|non-owner"),
        ((1, 1001, 2001, 2001, 2001), "pairs only"),
        ((1, 1, 2001, 3001, 1), "pairs only"),
    ], ids=(
        "zero-macros", "owner-after-layer", "shares-with-a-sharer",
        "adjacent-sharers", "distant-sharers",
    ))
    def test_malformed_gene_rejected_by_both_paths(self, gene, message):
        explorer = _explorer(zoo.by_name("lenet5"), 2.0)
        assert len(gene) == explorer.spec.num_layers
        with pytest.raises(ConfigurationError, match=message):
            explorer.score(gene)
        with pytest.raises(ConfigurationError, match=message):
            explorer.batch_evaluator.evaluate_population(
                explorer.initial_population(4) + [gene]
            )

    @pytest.mark.parametrize(
        "name", ("lenet5", "resnet18_cifar", "vgg16_cifar")
    )
    def test_owner_shared_by_several_layers(self, name):
        """Genes with an owner shared two or more times. The scalar
        oracle would count one shared ADC bank per sharer and the kernel
        one per owner, so their power would differ; both reject them."""
        multi = 0
        for power in POWER_GRID:
            explorer = _explorer(zoo.by_name(name), power)
            for gene in _multi_sharer_genes(explorer, 12):
                owners = [value // 1000 for value in gene]
                if max(owners.count(j) for j in set(owners)) < 3:
                    continue  # pairs only: a valid gene
                multi += 1
                with pytest.raises(ConfigurationError, match="pairs only"):
                    MacroPartition.from_gene(gene)
                with pytest.raises(ConfigurationError, match="pairs only"):
                    explorer.batch_evaluator.evaluate_population([gene])
        assert multi >= 40


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

        def run():
            synthesizer = Pimsyn(model, SynthesisConfig.fast(
                total_power=power, seed=7,
            ))
            return synthesizer.synthesize().to_json(), synthesizer.report

        batched, batched_report = run()
        with without_numpy():
            scalar, scalar_report = run()
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
                    )
                )).synthesize().to_json())
        assert len(outputs) == 1

    @pytest.fixture(scope="class")
    def golden_payload(self):
        path = os.path.join(
            os.path.dirname(__file__), "golden",
            "pareto_front_vgg8.json",
        )
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("blocked", (False, True),
                             ids=("numpy", "no-numpy"))
    def test_pareto_golden_reproduced(
        self, blocked, golden_payload, without_numpy
    ):
        """The committed pareto-front golden reproduces with numpy and,
        on the scalar oracles, without it."""
        model = zoo.by_name(golden_payload["model"])
        config = SynthesisConfig.fast(
            total_power=golden_payload["total_power"],
            seed=golden_payload["seed"], pareto=True,
        )
        if blocked:
            with without_numpy():
                front = Pimsyn(model, config).synthesize_pareto()
        else:
            front = Pimsyn(model, config).synthesize_pareto()
        recomputed = json.loads(json.dumps(front.to_payload()["points"]))
        assert recomputed == golden_payload["points"]
        assert len(front) == golden_payload["front_size"]


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
            _assert_matches_oracle(
                explorer, genes, batch, f"{tech}@{power}W"
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

        def run():
            solution = Pimsyn(model, SynthesisConfig.fast(
                total_power=power, seed=7, tech=tech,
            )).synthesize()
            assert solution.evaluation.throughput > 0
            return solution.to_json()

        batched = run()
        with without_numpy():
            assert run() == batched
