"""Differential suite for the multi-objective (pareto) synthesis mode.

Mirrors ``test_batch_eval_differential.py`` one layer up: the vector
objectives driving NSGA-II must be **bit-identical** between the
batched engine and the scalar oracle across the model zoo, full
``synthesize_pareto()`` must return identical fronts whatever the
execution conditions (numpy on/off, ``jobs`` 1/2), every published
front point must re-verify against an independent
``PerformanceEvaluator`` re-run, and — the acceptance criterion — the
front's best-throughput point must match the single-objective
``synthesize()`` winner at the same power budget.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import ParetoSolutionSet, Pimsyn, SynthesisConfig
from repro.core.config import OBJECTIVE_SENSES, objective_vector
from repro.core.dataflow import make_spec
from repro.core.executor import (
    decode_memo_entries,
    encode_memo_entries,
)
from repro.core.macro_partition import MacroPartitionExplorer, PopulationScorer
from repro.errors import ConfigurationError
from repro.hardware.power import PowerBudget
from repro.nn import zoo

ALL_OBJECTIVES = tuple(sorted(OBJECTIVE_SENSES))
POWER_GRID = (0.5, 2.0, 8.0, 50.0, 200.0)


def _explorer(model, power, res_dac=1, seed=1):
    config = SynthesisConfig.fast(total_power=power)
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


def _vectors(explorer, genes, objectives=None):
    """``genes``' objective vectors as NSGA-II scores them: the DSE's
    population scorer's rows (the numpy kernel when numpy imports)
    through ``objective_vector``, over the config's objectives by
    default."""
    objectives = objectives or explorer.config.objectives
    rows = PopulationScorer([explorer]).rows(genes, [0] * len(genes))
    return [objective_vector(row, objectives) for row in rows]


def _population(explorer, size=24, seed=2):
    genes = explorer.initial_population(min(size, 8))
    rng = random.Random(seed)
    while len(genes) < size:
        parent = rng.choice(genes)
        operator = rng.choice(
            [explorer.mutate_num, explorer.mutate_share]
        )
        genes.append(operator(parent, rng))
    return genes


class TestZooVectorDifferential:
    """Batched vector objectives == scalar vector objectives, bitwise."""

    @pytest.mark.parametrize("name", zoo.available_models())
    def test_vectors_bit_identical_across_powers(self, name):
        model = zoo.by_name(name)
        feasible = infeasible = 0
        for power in POWER_GRID:
            explorer = _explorer(model, power)
            genes = _population(explorer)
            batched = _vectors(explorer, genes, ALL_OBJECTIVES)
            scalar = [
                objective_vector(explorer.score_fields(gene), ALL_OBJECTIVES)
                for gene in genes
            ]
            # == (not isclose): both paths must produce the *same
            # floats*, which is what makes fronts identical by
            # construction rather than merely close.
            assert batched == scalar
            for vector in scalar:
                if math.isinf(vector[0]):
                    infeasible += 1
                else:
                    feasible += 1
        assert feasible > 0
        assert infeasible > 0

    def test_num_macros_matches_partition_decode(self):
        """The batched macro count equals the scalar partition's."""
        from repro.core.macro_partition import MacroPartition

        explorer = _explorer(zoo.by_name("vgg8"), 8.0)
        genes = _population(explorer, size=16)
        batch = explorer.batch_evaluator.evaluate_population(genes)
        feasible_seen = 0
        for position, gene in enumerate(genes):
            if bool(batch.feasible[position]):
                feasible_seen += 1
                assert int(batch.num_macros[position]) == (
                    MacroPartition.from_gene(gene).num_macros
                )
            else:  # infeasible genes mask every metric, macros included
                assert int(batch.num_macros[position]) == 0
        assert feasible_seen > 0

    def test_scalar_fallback_path(self, without_numpy):
        """Without numpy it degrades to the scalar loop, same vectors."""
        explorer = _explorer(zoo.by_name("lenet5"), 2.0)
        genes = _population(explorer, size=8)
        batched = _vectors(explorer, genes)
        with without_numpy():
            assert _vectors(explorer, genes) == batched

    def test_infeasible_vector_is_dominated_sentinel(self):
        explorer = _explorer(zoo.by_name("lenet5"), 0.5)
        genes = _population(explorer, size=12)
        vectors = _vectors(
            explorer, genes, ("throughput", "energy_per_image")
        )
        sentinel = (float("-inf"), float("-inf"))
        assert sentinel in vectors  # 0.5 W starves lenet5's periphery


class TestFullParetoIdentity:
    """Execution knobs never change the front, only its wall time."""

    def test_identical_front_across_batch_and_jobs(self, without_numpy):
        fronts = set()
        reports = {}

        def run(jobs, batch):
            config = SynthesisConfig.fast(
                total_power=2.0, seed=7, jobs=jobs, pareto=True,
            )
            assert config.backend == ("numpy" if batch else "python")
            synthesizer = Pimsyn(zoo.by_name("lenet5"), config)
            fronts.add(synthesizer.synthesize_pareto().to_json())
            reports[(jobs, batch)] = synthesizer.report

        for jobs in (1, 2):
            run(jobs, batch=True)
            with without_numpy():
                run(jobs, batch=False)
        assert len(fronts) == 1
        # Batched and scalar walks share one memo accounting (jobs=1:
        # one shared in-process cache makes the totals comparable).
        assert (
            reports[(1, True)].ea_evaluations
            == reports[(1, False)].ea_evaluations
        )
        assert (
            reports[(1, True)].cache_hits
            == reports[(1, False)].cache_hits
        )

    def test_front_points_reverify_against_scalar_evaluator(self):
        config = SynthesisConfig.fast(total_power=2.0, seed=7)
        config.pareto = True
        model = zoo.by_name("lenet5")
        front = Pimsyn(model, config).synthesize_pareto()
        assert len(front) >= 1
        for point in front:
            result = point.reevaluate(model, config)
            assert result.throughput == point.throughput
            assert result.power == point.power
            assert result.tops_per_watt == point.tops_per_watt
            assert result.latency == point.latency
            assert result.energy_per_image == point.energy_per_image

    def test_front_is_mutually_non_dominated(self):
        from repro.optim.dominance import dominates

        config = SynthesisConfig.fast(total_power=2.0, seed=7)
        config.pareto = True
        front = Pimsyn(zoo.by_name("lenet5"), config).synthesize_pareto()
        vectors = front.objective_vectors()
        assert len(set(vectors)) == len(vectors)
        for a in vectors:
            for b in vectors:
                assert not dominates(a, b)


class TestAcceptance:
    """The issue's acceptance bar, pinned on the CIFAR zoo."""

    @pytest.mark.parametrize("name,power,seed", [
        ("lenet5", 2.0, 7),
        ("alexnet_cifar", 8.0, 2024),
        ("vgg8", 8.0, 7),
        ("vgg16_cifar", 16.0, 7),
    ])
    def test_best_throughput_matches_single_objective(
        self, name, power, seed
    ):
        model = zoo.by_name(name)
        reference = Pimsyn(model, SynthesisConfig.fast(
            total_power=power, seed=seed,
        )).synthesize()

        config = SynthesisConfig.fast(total_power=power, seed=seed)
        config.pareto = True
        front = Pimsyn(model, config).synthesize_pareto()

        best = front.best("throughput")
        assert best.throughput == pytest.approx(
            reference.evaluation.throughput, rel=1e-9, abs=1e-9
        )
        # The materialized solution is that same point, end to end.
        # Note the *gene* may legitimately differ from the scalar EA's
        # winner: several partitions can tie on throughput, and the
        # front keeps the one that also wins the remaining objectives
        # (same throughput, better energy/macros — never worse).
        assert front.solution is not None
        assert front.solution.evaluation.throughput == best.throughput
        assert best.energy_per_image <= (
            reference.evaluation.energy_per_image * (1 + 1e-9)
        ) or best.num_macros <= reference.partition.num_macros

    def test_front_never_loses_throughput_to_single_objective(self):
        """The structural guarantee behind the equality above: each
        task's NSGA-II population is warm-started with that task's
        scalar-EA winner, and a population's throughput-extreme point
        has infinite crowding distance, so it survives every
        truncation — the merged front can only match or *exceed* the
        single-objective winner. On resnet18_cifar the fast() EA
        budget under-searches and NSGA-II legitimately dominates it
        (same throughput guarantee, strictly better here)."""
        model = zoo.by_name("resnet18_cifar")
        reference = Pimsyn(model, SynthesisConfig.fast(
            total_power=16.0, seed=7,
        )).synthesize()
        config = SynthesisConfig.fast(total_power=16.0, seed=7)
        config.pareto = True
        front = Pimsyn(model, config).synthesize_pareto()
        assert front.best("throughput").throughput >= (
            reference.evaluation.throughput * (1 - 1e-9)
        )


class TestServeRoundTrip:
    """A pareto job's front survives the content-addressed store."""

    def test_store_round_trips_front_and_archive_export(self, tmp_path):
        from repro.serve import JobScheduler, ResultStore
        from repro.serve.job import JobRequest

        store = ResultStore(tmp_path / "store")
        request = JobRequest(
            model="lenet5", total_power=2.0, seed=7,
            overrides={"pareto": True},
        )
        plain = JobRequest(model="lenet5", total_power=2.0, seed=7)
        # pareto participates in the content key: a front is a
        # different artifact than a single solution.
        assert request.content_key() != plain.content_key()

        with JobScheduler(store, workers=1) as scheduler:
            record = scheduler.submit(request)
            scheduler.wait(record.id, timeout=300.0)
            assert record.state == "done", record.error

        document = store.get(request.content_key())
        assert document is not None
        front = ParetoSolutionSet.from_payload(document["front"])
        assert len(front) >= 1
        assert front.to_payload() == document["front"]
        assert front.objectives == (
            "throughput", "energy_per_image", "num_macros"
        )
        # Solution-only consumers (metrics summary, archive export)
        # keep working off the embedded best point.
        assert document["solution"]["metrics"]["throughput_img_s"] == (
            front.best("throughput").throughput
        )
        archive = store.to_archive()
        assert len(archive) == 1

    def test_memo_entries_with_vector_values_round_trip(self):
        entries = [
            ((("ctx", 1), (1001, 2)), 42.0),
            ((
                "pareto", ("throughput", "num_macros"),
                ("ctx", 1), (1001, 2),
            ), (78125.0, -3.0)),
            (("inf",), (float("-inf"), float("-inf"))),
        ]
        encoded = encode_memo_entries(entries)
        import json

        decoded = decode_memo_entries(json.loads(json.dumps(encoded)))
        assert decoded == entries


class TestObjectiveConfig:
    """SynthesisConfig validation of the new knobs."""

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthesisConfig.fast(objectives=("throughput", "beauty"))

    def test_duplicate_objectives_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthesisConfig.fast(
                objectives=("throughput", "throughput")
            )

    def test_single_objective_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthesisConfig.fast(objectives=("throughput",))

    def test_non_bool_pareto_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthesisConfig.fast(pareto=1)

    def test_objectives_normalized_to_tuple(self):
        config = SynthesisConfig.fast(
            objectives=["throughput", "power"]
        )
        assert config.objectives == ("throughput", "power")

    def test_alternate_objectives_run_end_to_end(self):
        config = SynthesisConfig.fast(total_power=2.0, seed=7)
        config.pareto = True
        config.objectives = ("throughput", "power")
        front = Pimsyn(zoo.by_name("lenet5"), config).synthesize_pareto()
        assert front.objectives == ("throughput", "power")
        vectors = front.objective_vectors()
        assert vectors == [
            objective_vector(
                {"throughput": p.throughput, "power": p.power},
                ("throughput", "power"),
            )
            for p in front
        ]
