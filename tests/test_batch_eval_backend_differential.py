"""Differential suite: batched EA scoring per array backend, end to end.

The tentpole claim of the batch-eval backend seam: ``backend`` is an
*execution* knob — it selects how populations are scored (vectorized
numpy, pure-python loops, numba JIT), never what they score. This
suite pins that in four layers:

1. Population-level: every zoo model x the power grid, the full
   :class:`BatchEvaluation` of a rule-valid population is ``==``
   across backends on every field. The array engines are also held to
   the python loop oracle on the vectorized kernel's risky inputs:
   owners with several sharers, population sizes on a residual DAG, a
   NoC-bound context, and the sharing-off and identical-macro
   settings.
2. Full synthesis: the (backend x jobs) matrix, plus the scalar
   oracles a numpy-less interpreter runs, returns one winning solution
   with identical telemetry (EA runs, pruning decisions, cache hits).
3. Content keys: the pinned fingerprints are byte-unchanged, and
   ``backend`` never perturbs a config fingerprint or a serve job key
   (an execution-only field), not even as the python default of an
   interpreter without numpy.
4. Goldens: the committed pareto-front golden is reproduced by every
   available backend, byte-identically across backends.

Backends whose optional dependency is missing are skipped with their
stated reason (the conformance suite covers their lookup behavior).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.core import Pimsyn, SynthesisConfig
from repro.core.backend import backend_status, get_backend, numpy_available
from repro.core.batch_eval import BatchPerformanceEvaluator
from repro.core.dataflow import make_spec
from repro.core.executor import config_fingerprint, params_fingerprint
from repro.core.macro_partition import MacroPartitionExplorer, encode_gene
from repro.hardware.params import HardwareParams
from repro.hardware.power import PowerBudget
from repro.nn import lenet5, zoo
from repro.serve.job import job_content_key

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="batched evaluation requires numpy"
)

POWER_GRID = (0.5, 2.0, 8.0, 50.0, 200.0)

#: Every backend that can execute here; all are held to ``==``.
AVAILABLE_BACKENDS = tuple(
    name for name, ok, _ in backend_status() if ok
)

#: PR 5 pins (recorded on the pre-profile tree). The seam's hard
#: promise: routing batched scoring through the array backends never
#: moves a default-technology content key.
PINNED_PARAMS_FP = "3dd4e2a54ef76d2a"
PINNED_CONFIG_FP_FAST_2W = "101f9fe6705bffb0"
PINNED_JOB_KEY_LENET5_FAST_2W = "0adb10f6bd13ed88e923b60108964df7"


def _explorer(model, power, seed=1):
    """A stage-3 explorer over a ones-WtDup spec for ``model``."""
    config = SynthesisConfig.fast(total_power=power)
    n = model.num_weighted_layers
    spec = make_spec(
        model, [1] * n, xb_size=128, res_rram=2, res_dac=1,
        params=config.params,
        max_blocks_per_layer=config.max_blocks_per_layer,
    )
    budget = PowerBudget(
        total_power=power, ratio_rram=0.3, xb_size=128, res_rram=2,
        num_crossbars=4096,
    )
    return MacroPartitionExplorer(
        spec=spec, budget=budget, res_dac=1, config=config,
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


def _multi_sharer_genes(explorer, size, seed=3):
    """Genes whose owners are shared by two or more later layers.

    Each gene cuts a shuffled layer list into groups of one to four,
    and the smallest layer of a group owns it. ``_validate_population``
    and ``MacroPartition.from_gene`` accept these genes (every
    referenced owner owns itself), though the EA's mutations only ever
    form pairs.
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


def _evaluator(explorer, backend, **knobs):
    options = dict(
        enable_macro_sharing=explorer.config.enable_macro_sharing,
        identical_macros=not explorer.config.specialized_macros,
    )
    options.update(knobs)
    return BatchPerformanceEvaluator(
        explorer.spec, explorer.budget, explorer.res_dac,
        backend=backend, **options,
    )


def _assert_batches_match(reference, candidate, backend_name):
    import numpy as np

    for field in dataclasses.fields(reference):
        assert np.array_equal(
            np.asarray(getattr(candidate, field.name)),
            np.asarray(getattr(reference, field.name)),
        ), f"{backend_name}:{field.name}"


class TestZooPopulationIdentity:
    """Every zoo model x power grid: batched scores agree across every
    available backend (numpy is the comparison baseline; python's
    oracle status vs the scalar path is pinned by
    test_batch_eval_differential.py)."""

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_population_scores_match_numpy(self, backend):
        if backend == "numpy":
            pytest.skip("numpy is the comparison baseline")
        for name in zoo.available_models():
            model = zoo.by_name(name)
            for power in POWER_GRID:
                explorer = _explorer(model, power)
                genes = _population(explorer)
                baseline = _evaluator(explorer, "numpy") \
                    .evaluate_population(genes)
                candidate = _evaluator(explorer, backend) \
                    .evaluate_population(genes)
                _assert_batches_match(baseline, candidate, backend)

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_empty_and_malformed_populations(self, backend):
        from repro.errors import ConfigurationError

        status = dict(
            (n, ok) for n, ok, _ in backend_status()
        )
        if not status[backend]:
            pytest.skip(f"backend {backend!r} unavailable")
        explorer = _explorer(zoo.by_name("lenet5"), 2.0)
        evaluator = _evaluator(explorer, backend)
        assert len(evaluator.evaluate_population([])) == 0
        with pytest.raises(ConfigurationError, match="shape"):
            evaluator.evaluate_population([(1001,)])
        n = explorer.spec.model.num_weighted_layers
        bad = [tuple([0 * 1000 + 0] + [1] * (n - 1))]  # zero macros
        with pytest.raises(ConfigurationError, match="#macros"):
            evaluator.evaluate_population(bad)


#: Array engines held to the python loop oracle on the vectorized
#: kernel's risky inputs.
VECTOR_BACKENDS = tuple(
    name for name in AVAILABLE_BACKENDS if name != "python"
)


class TestVectorKernelRiskyCases:
    """Inputs where the vectorized kernel's layout could part from the
    python loops: an owner claimed by several sharers (the loops'
    last-writer-wins partner), population sizes, a DAG with out-degree
    4 and in-degree 3, and the knob settings the EA tier never runs."""

    @pytest.mark.parametrize("backend", VECTOR_BACKENDS)
    def test_owner_shared_by_several_layers(self, backend):
        import numpy as np

        multi_sharer_genes = 0
        feasible = 0
        for name in ("lenet5", "resnet18_cifar", "vgg16_cifar"):
            for power in POWER_GRID:
                explorer = _explorer(zoo.by_name(name), power)
                genes = _multi_sharer_genes(explorer, 12)
                for gene in genes:
                    owners = [value // 1000 for value in gene]
                    sharers = [
                        owners.count(j) - 1 for j in set(owners)
                    ]
                    multi_sharer_genes += max(sharers) >= 2
                reference = _evaluator(explorer, "python") \
                    .evaluate_population(genes)
                candidate = _evaluator(explorer, backend) \
                    .evaluate_population(genes)
                _assert_batches_match(reference, candidate, backend)
                # The scalar chain agrees on these genes too.
                assert [explorer.score(g)[0] for g in genes] == \
                    [float(f) for f in np.asarray(reference.fitness)]
                feasible += int(np.sum(reference.feasible))
        assert multi_sharer_genes > 100
        assert feasible > 100

    @pytest.mark.parametrize("backend", VECTOR_BACKENDS)
    @pytest.mark.parametrize("size", (1, 16, 128))
    def test_resnet18_population_sizes(self, backend, size):
        explorer = _explorer(zoo.by_name("resnet18_cifar"), 50.0)
        reference_evaluator = _evaluator(explorer, "python")
        ctx = reference_evaluator.context
        assert len(ctx.out_slots) == 4  # largest out-degree
        assert max(
            producers.shape[0] for _, producers, _ in ctx.levels
        ) == 3  # largest in-degree
        genes = _population(explorer, size=size, seed=size)
        reference = reference_evaluator.evaluate_population(genes)
        candidate = _evaluator(explorer, backend) \
            .evaluate_population(genes)
        assert all(reference.feasible)
        _assert_batches_match(reference, candidate, backend)

    @pytest.mark.parametrize("backend", VECTOR_BACKENDS)
    def test_noc_bound_resnet18_context(self, backend):
        """With the NoC 100x slower, transfers set the stage times, so
        the order in which each producer adds its transfers reaches the
        metrics; at the real NoC speed it never decides a bit here."""
        import numpy as np

        explorer = _explorer(zoo.by_name("resnet18_cifar"), 50.0)
        ctx = _evaluator(explorer, "python").context
        slow = dataclasses.replace(
            ctx, noc_port_bandwidth=ctx.noc_port_bandwidth / 100
        )
        genes = np.asarray(
            _population(explorer, size=128, seed=1)
            + _multi_sharer_genes(explorer, 64)
        )
        reference = get_backend("python").score_population(slow, genes)
        candidate = get_backend(backend).score_population(slow, genes)
        _assert_batches_match(reference, candidate, backend)

    @pytest.mark.parametrize("backend", VECTOR_BACKENDS)
    @pytest.mark.parametrize("knobs", (
        {"enable_macro_sharing": False},
        {"identical_macros": True},
    ), ids=("no-sharing", "identical-macros"))
    def test_zoo_contexts_under_knobs(self, backend, knobs):
        import numpy as np

        feasible = 0
        for name in zoo.available_models():
            model = zoo.by_name(name)
            for power in POWER_GRID:
                explorer = _explorer(model, power)
                genes = _population(explorer) + \
                    _multi_sharer_genes(explorer, 8)
                reference = _evaluator(explorer, "python", **knobs) \
                    .evaluate_population(genes)
                candidate = _evaluator(explorer, backend, **knobs) \
                    .evaluate_population(genes)
                _assert_batches_match(reference, candidate, backend)
                feasible += int(np.sum(reference.feasible))
        assert feasible > 500


class TestFullSynthesisIdentity:
    """backend x jobs, and numpy on/off: one winner, one telemetry
    stream."""

    def test_backend_jobs_batch_matrix_lenet5(self, without_numpy):
        def run(jobs, backend):
            return Pimsyn(zoo.by_name("lenet5"), SynthesisConfig.fast(
                total_power=2.0, seed=7, jobs=jobs, backend=backend,
            )).synthesize().to_json()

        outputs = set()
        for jobs in (1, 4):
            for backend in AVAILABLE_BACKENDS:
                outputs.add(run(jobs, backend))
            with without_numpy():
                outputs.add(run(jobs, "python"))
        assert len(outputs) == 1

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_identical_telemetry_per_backend(self, backend):
        reports = {}
        runs = {}
        for key, cfg_backend in (("baseline", "numpy"),
                                 ("candidate", backend)):
            synthesizer = Pimsyn(zoo.by_name("lenet5"), (
                SynthesisConfig.fast(
                    total_power=2.0, seed=11, backend=cfg_backend,
                )
            ))
            runs[key] = synthesizer.synthesize().to_json()
            reports[key] = synthesizer.report
        assert runs["candidate"] == runs["baseline"]
        assert reports["candidate"].ea_runs == reports["baseline"].ea_runs
        assert reports["candidate"].pruned_tasks == \
            reports["baseline"].pruned_tasks
        assert reports["candidate"].cache_hits == \
            reports["baseline"].cache_hits

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_alexnet_identity_per_backend(self, backend, without_numpy):
        def run(backend):
            return Pimsyn(zoo.by_name("alexnet_cifar"), (
                SynthesisConfig.fast(
                    total_power=8.0, seed=7, backend=backend,
                )
            )).synthesize().to_json()

        solution = run(backend)
        with without_numpy():
            assert run("python") == solution


class TestContentKeyPins:
    """backend is execution-only: the pinned keys never move."""

    def test_pr5_fingerprints_byte_unchanged(self):
        assert params_fingerprint(HardwareParams()) == PINNED_PARAMS_FP
        fast = SynthesisConfig.fast(total_power=2.0)
        assert config_fingerprint(fast) == PINNED_CONFIG_FP_FAST_2W
        assert job_content_key(lenet5(), fast) == \
            PINNED_JOB_KEY_LENET5_FAST_2W

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_backend_choice_never_moves_a_key(self, backend):
        config = SynthesisConfig.fast(
            total_power=2.0, backend=backend,
        )
        assert config_fingerprint(config) == PINNED_CONFIG_FP_FAST_2W
        assert job_content_key(lenet5(), config) == \
            PINNED_JOB_KEY_LENET5_FAST_2W

    def test_numpy_free_interpreter_keys_identically(self):
        """An interpreter without numpy defaults to the python engine;
        its default config still maps to the pinned keys, so a store
        shared with a numpy host never splits."""
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.core import SynthesisConfig\n"
            "from repro.core.executor import config_fingerprint\n"
            "from repro.nn import lenet5\n"
            "from repro.serve.job import job_content_key\n"
            "config = SynthesisConfig.fast(total_power=2.0)\n"
            "print(config.backend, config_fingerprint(config),\n"
            "      job_content_key(lenet5(), config))\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [
            "python", PINNED_CONFIG_FP_FAST_2W,
            PINNED_JOB_KEY_LENET5_FAST_2W,
        ]


class TestGoldensPerBackend:
    """The committed pareto-front golden reproduces on every available
    backend, byte-identically across backends."""

    @pytest.fixture(scope="class")
    def golden_payload(self):
        import os

        path = os.path.join(
            os.path.dirname(__file__), "golden",
            "pareto_front_vgg8.json",
        )
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_pareto_golden_reproduced(self, backend, golden_payload):
        from repro.core.design_space import DesignSpace

        model = zoo.by_name(golden_payload["model"])
        config = SynthesisConfig.fast(
            total_power=golden_payload["total_power"],
            seed=golden_payload["seed"], backend=backend,
        )
        config.pareto = True
        front = Pimsyn(model, config).synthesize_pareto()
        recomputed = json.loads(json.dumps(front.to_payload()["points"]))
        assert recomputed == golden_payload["points"]
        assert len(front) == golden_payload["front_size"]
