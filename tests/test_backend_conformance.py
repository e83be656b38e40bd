"""Per-backend conformance for the array-execution engines.

Every :class:`~repro.core.backend.ArrayBackend` in the engine table
(numpy / python / numba) must return values ``==`` to the ``python``
loop engine for its three calls: the SA filter's ``ordered_sum`` and
the fused kernels (task-grid bounds *and* population scoring) — the
loop engine is the
reference, since it executes the scalar oracle's operation order
literally. The suite parametrizes over the table, and an engine whose
optional dependency is absent (``numba`` without numba installed) is
*skipped with its own stated reason* rather than silently ignored.

The lookup's validation behavior is pinned too: unknown names
(``cupy`` and ``torch`` among them) and selecting an unavailable
engine raise ConfigurationError with actionable messages, and the
default config falls back to the loop engine without numpy. An AST
guard keeps ``batch_eval.py`` and ``grid_eval.py`` free of
direct numpy imports — all array access goes through
``core.backend``.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.core.backend import (
    DEFAULT_BACKEND,
    ArrayBackend,
    NumbaBackend,
    NumpyBackend,
    PythonBackend,
    available_backends,
    backend_status,
    get_backend,
    numpy_available,
)
from repro.core.config import SynthesisConfig
from repro.errors import ConfigurationError, PimsynError

#: Names that are not engines, GPU stack names among them.
UNKNOWN_NAMES = ("cuda", "torch", "cupy")

pytestmark = pytest.mark.skipif(
    not numpy_available(),
    reason="TaskGrid assembly requires numpy",
)


def _backend_or_skip(name: str) -> ArrayBackend:
    status = {n: (ok, note) for n, ok, note in backend_status()}
    ok, note = status[name]
    if not ok:
        pytest.skip(f"backend {name!r} unavailable: {note}")
    return get_backend(name)


def _reference() -> PythonBackend:
    return get_backend("python")


def _random_matrix(rows, cols, seed, scale=1.0):
    rng = random.Random(seed)
    return [
        [rng.uniform(-scale, scale) for _ in range(cols)]
        for _ in range(rows)
    ]


@pytest.fixture(scope="module")
def lenet_grid():
    """A real TaskGrid (lenet5's fast queue) for kernel conformance."""
    from repro.core.design_space import DesignSpace
    from repro.core.executor import ExplorationEngine
    from repro.core.grid_eval import GridBoundEvaluator
    from repro.core.synthesizer import SynthesisReport
    from repro.nn import zoo

    model = zoo.by_name("lenet5")
    config = SynthesisConfig.fast(total_power=2.0, seed=7)
    engine = ExplorationEngine(model, config, SynthesisReport())
    points = list(DesignSpace(model, config).outer_points())
    executor = engine._make_executor()
    try:
        tasks = engine._build_tasks(executor, points, None)
    finally:
        executor.close()
    assert tasks
    evaluator = GridBoundEvaluator(model, config)
    scalar = [engine._local_runner.throughput_bound(t) for t in tasks]
    return evaluator.build_grid(tasks), scalar


class TestPrimitiveConformance:
    """ordered_sum: exact across backends."""

    @pytest.mark.parametrize("name", available_backends())
    def test_ordered_sum_matches_reference(self, name):
        backend = _backend_or_skip(name)
        terms = _random_matrix(7, 13, seed=1, scale=1e6)
        assert [float(v) for v in backend.ordered_sum(terms)] == \
            _reference().ordered_sum(terms)

    @pytest.mark.parametrize("name", available_backends())
    def test_ordered_sum_is_left_associated(self, name):
        """The accumulation order is the scalar oracle's, observable
        through a row engineered so pairwise summation differs."""
        backend = _backend_or_skip(name)
        row = [1e16, 1.0, 1.0, 1.0, -1e16]
        expected = 0.0
        for value in row:
            expected = expected + value
        assert [float(v) for v in backend.ordered_sum([row])] == \
            [expected]


class TestKernelConformance:
    """compute_bounds: bit-identical to the scalar oracle, per backend."""

    @pytest.mark.parametrize("name", available_backends())
    def test_compute_bounds_matches_scalar_oracle(
        self, name, lenet_grid
    ):
        backend = _backend_or_skip(name)
        grid, scalar = lenet_grid
        values = [float(v) for v in backend.compute_bounds(grid)]
        assert values == scalar

    @pytest.mark.parametrize("name", available_backends())
    def test_compute_bounds_cross_backend_identity(
        self, name, lenet_grid
    ):
        backend = _backend_or_skip(name)
        grid, _ = lenet_grid
        reference = [
            float(v) for v in _reference().compute_bounds(grid)
        ]
        assert [float(v) for v in backend.compute_bounds(grid)] == \
            reference


@pytest.fixture(scope="module")
def lenet_population():
    """A real PopulationContext + rule-valid gene population (lenet5)
    plus the python-oracle scores, for fused-kernel conformance."""
    import numpy as np

    from repro.core.batch_eval import BatchPerformanceEvaluator
    from repro.core.dataflow import make_spec
    from repro.core.macro_partition import MacroPartitionExplorer
    from repro.hardware.power import PowerBudget
    from repro.nn import zoo

    model = zoo.by_name("lenet5")
    config = SynthesisConfig.fast(total_power=2.0)
    n = model.num_weighted_layers
    spec = make_spec(
        model, [1] * n, xb_size=128, res_rram=2, res_dac=1,
        params=config.params,
        max_blocks_per_layer=config.max_blocks_per_layer,
    )
    budget = PowerBudget(
        total_power=2.0, ratio_rram=0.3, xb_size=128, res_rram=2,
        num_crossbars=4096,
    )
    explorer = MacroPartitionExplorer(
        spec=spec, budget=budget, res_dac=1, config=config,
        rng=random.Random(11),
    )
    genes = explorer.initial_population(8)
    rng = random.Random(13)
    while len(genes) < 32:
        parent = rng.choice(genes)
        operator = rng.choice(
            [explorer.mutate_num, explorer.mutate_share]
        )
        genes.append(operator(parent, rng))
    evaluator = BatchPerformanceEvaluator(
        spec, budget, 1, backend="python"
    )
    genes_arr = np.asarray(genes, dtype=np.int64)
    oracle = get_backend("python").score_population(
        evaluator.context, genes_arr
    )
    return evaluator.context, genes_arr, oracle


#: PopulationScores integer/flag fields.
EXACT_SCORE_FIELDS = ("feasible", "bottleneck_layer", "num_macros")
#: PopulationScores float kernel outputs.
FLOAT_SCORE_FIELDS = (
    "fitness", "period", "latency", "throughput", "tops", "power",
    "tops_per_watt", "energy_per_image", "edp",
)


class TestScorePopulationConformance:
    """The fused batch-eval kernel, per backend, ``==`` to the python
    oracle on every field."""

    @pytest.mark.parametrize("name", available_backends())
    def test_exact_fields_bit_identical(self, name, lenet_population):
        import numpy as np

        backend = _backend_or_skip(name)
        ctx, genes_arr, oracle = lenet_population
        scores = backend.score_population(ctx, genes_arr)
        for field in EXACT_SCORE_FIELDS:
            assert np.array_equal(
                np.asarray(getattr(scores, field)),
                np.asarray(getattr(oracle, field)),
            ), field

    @pytest.mark.parametrize("name", available_backends())
    def test_float_fields_within_contract(self, name, lenet_population):
        import numpy as np

        backend = _backend_or_skip(name)
        ctx, genes_arr, oracle = lenet_population
        scores = backend.score_population(ctx, genes_arr)
        for field in FLOAT_SCORE_FIELDS:
            got = np.asarray(getattr(scores, field), dtype=np.float64)
            want = np.asarray(getattr(oracle, field), dtype=np.float64)
            assert np.array_equal(got, want), field

    @pytest.mark.parametrize("name", available_backends())
    def test_population_has_feasible_and_infeasible_lanes(
        self, name, lenet_population
    ):
        """The fixture exercises both kernel paths; infeasible lanes
        must come back fully masked on every backend."""
        import numpy as np

        backend = _backend_or_skip(name)
        ctx, genes_arr, _ = lenet_population
        scores = backend.score_population(ctx, genes_arr)
        feasible = np.asarray(scores.feasible)
        assert feasible.any()
        masked = ~feasible
        if masked.any():
            for field in FLOAT_SCORE_FIELDS:
                vals = np.asarray(getattr(scores, field))
                assert np.all(vals[masked] == 0.0), field
            assert np.all(
                np.asarray(scores.bottleneck_layer)[masked] == -1
            )
            assert np.all(np.asarray(scores.num_macros)[masked] == 0)


class TestKernelHelperConformance:
    """The numpy kernel's gene decode and mesh hops: integer-exact to
    the scalar chain (``MacroPartition.from_gene`` / ``MeshNoC.hops``)."""

    def test_decode_matches_macro_partition(self, lenet_population):
        from repro.core.backend import _decode
        from repro.core.macro_partition import MacroPartition, decode_gene

        _, genes_arr, _ = lenet_population
        owners, is_owner, total, start, length = _decode(genes_arr)
        assert not is_owner.all()  # the population shares macros
        for k, gene in enumerate(genes_arr.tolist()):
            partition = MacroPartition.from_gene(tuple(gene))
            want_owners, _ = decode_gene(tuple(gene))
            assert owners[k].tolist() == list(want_owners)
            assert is_owner[k].tolist() == [
                owner == i for i, owner in enumerate(want_owners)
            ]
            assert int(total[k]) == partition.num_macros
            assert start[k].tolist() == [
                group[0] for group in partition.macro_groups
            ]
            assert length[k].tolist() == [
                len(group) for group in partition.macro_groups
            ]

    @pytest.mark.parametrize("num_macros", (1, 9, 50, 64))
    def test_hops_match_mesh_noc(self, num_macros):
        import numpy as np

        from repro.core.backend import _hops
        from repro.hardware.noc import MeshNoC
        from repro.hardware.params import HardwareParams

        noc = MeshNoC(num_macros, HardwareParams())
        rng = random.Random(5)
        a = [rng.randrange(num_macros) for _ in range(128)]
        b = [rng.randrange(num_macros) for _ in range(128)]
        got = _hops(
            np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64),
            noc.cols,
        )
        assert got.tolist() == [noc.hops(s, d) for s, d in zip(a, b)]

    def test_hops_is_manhattan(self):
        """Pinned against the closed form, not just the scalar chain."""
        import numpy as np

        from repro.core.backend import _hops

        a = np.asarray([0, 5, 7, 7], dtype=np.int64)
        b = np.asarray([7, 5, 0, 6], dtype=np.int64)
        assert _hops(a, b, 3).tolist() == [3, 0, 3, 1]


class TestNoDirectNumpyImport:
    """AST guard: the tensorized hot paths must reach numpy only
    through ``core.backend`` (``numpy_module()`` / the backend object),
    so one gate controls stubbing, monkeypatching, and availability
    (the bare-``HardwareParams()`` guard pattern from test_tech.py)."""

    GUARDED = ("core/batch_eval.py", "core/grid_eval.py")

    @pytest.mark.parametrize("relpath", GUARDED)
    def test_no_direct_numpy_import(self, relpath):
        src_root = (
            pathlib.Path(__file__).resolve().parent.parent
            / "src" / "repro"
        )
        path = src_root / relpath
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in ("numpy", "numba"):
                        offenders.append((node.lineno, alias.name))
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in ("numpy", "numba"):
                    offenders.append((node.lineno, node.module))
        assert not offenders, (
            f"{relpath} imports an array module directly "
            f"(go through repro.core.backend): {offenders}"
        )


class TestRegistry:
    """Lookup validation over the fixed engine table."""

    def test_engine_table_order(self):
        assert available_backends() == ["numpy", "python", "numba"]
        assert DEFAULT_BACKEND in available_backends()

    @pytest.mark.parametrize("name", UNKNOWN_NAMES)
    def test_unknown_name_raises_with_available_list(self, name):
        """The message names only the engines selectable here as
        available, and every other one with its reason."""
        usable = [n for n, ok, _ in backend_status() if ok]
        with pytest.raises(
            ConfigurationError, match="unknown backend"
        ) as err:
            get_backend(name)
        message = str(err.value)
        assert f"available: {usable}" in message
        for other, ok, reason in backend_status():
            if not ok:
                assert f"{other!r} is unavailable: {reason}" in message

    def test_unavailable_backend_raises_with_reason(self):
        if NumbaBackend.available():
            pytest.skip("numba installed here; nothing is unavailable")
        with pytest.raises(
            ConfigurationError, match="numba.*unavailable|unavailable"
        ):
            get_backend("numba")

    def test_numba_is_registered_even_when_absent(self):
        """Absence gates *selection*, not listing — `repro backends`
        must show the row with its reason."""
        assert "numba" in available_backends()
        status = {n: ok for n, ok, _ in backend_status()}
        assert status["numba"] is NumbaBackend.available()

    def test_instance_passthrough(self):
        backend = get_backend("python")
        assert get_backend(backend) is backend


class TestConfigIntegration:
    """SynthesisConfig validates its backend at construction."""

    @pytest.mark.parametrize("name", UNKNOWN_NAMES)
    def test_unknown_backend_fails_fast(self, name):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            SynthesisConfig.fast(total_power=2.0, backend=name)

    def test_non_string_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            SynthesisConfig.fast(total_power=2.0, backend=3)

    def test_default_backend_resolves(self):
        config = SynthesisConfig.fast(total_power=2.0)
        assert get_backend(config.backend).name == DEFAULT_BACKEND

    def test_default_config_runs_without_numpy(self):
        """With numpy blocked, the default config resolves to the loop
        engine and synthesizes lenet5 to the payload this process's
        numpy run produces."""
        from repro.core import Pimsyn
        from repro.nn import zoo

        script = (
            "import json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.core import Pimsyn, SynthesisConfig\n"
            "from repro.nn import zoo\n"
            "config = SynthesisConfig.fast(total_power=2.0)\n"
            "assert config.backend == 'python', config.backend\n"
            "solution = Pimsyn(zoo.by_name('lenet5'), config)"
            ".synthesize()\n"
            "print(json.dumps(solution.to_payload(), sort_keys=True))\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert result.returncode == 0, result.stderr
        config = SynthesisConfig.fast(total_power=2.0)
        assert config.backend == "numpy"
        solution = Pimsyn(zoo.by_name("lenet5"), config).synthesize()
        assert result.stdout.strip() == json.dumps(
            solution.to_payload(), sort_keys=True
        )


class TestCli:
    """`repro backends` lists the registry; --check gates exit status."""

    def test_backends_listing(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in available_backends():
            assert name in out

    def test_backends_check_available(self, capsys):
        from repro.cli import main

        assert main(["backends", "--check", "numpy"]) == 0
        assert "available" in capsys.readouterr().out

    @pytest.mark.parametrize("name", UNKNOWN_NAMES)
    def test_backends_check_unknown_fails(self, capsys, name):
        from repro.cli import main

        assert main(["backends", "--check", name]) == 1
        assert "unknown backend" in capsys.readouterr().err

    def test_synthesize_with_removed_backend_fails(self, capsys):
        from repro.cli import main

        assert main([
            "synthesize", "--model", "lenet5", "--power", "2",
            "--backend", "cupy",
        ]) == 1
        assert "unknown backend 'cupy'" in capsys.readouterr().err

    def test_probe_rejects_a_one_ulp_divergence(self):
        """The probe holds every field to ``==``: an engine whose
        fitness is one ulp off the oracle fails it."""
        import numpy as np

        from repro.cli import _backend_probe

        class OneUlpOff(NumpyBackend):
            name = "one-ulp-off"

            def score_population(self, ctx, genes):
                scores = super().score_population(ctx, genes)
                scores.fitness = np.nextafter(scores.fitness, np.inf)
                return scores

        _backend_probe(get_backend("numpy"))
        with pytest.raises(PimsynError, match="fitness"):
            _backend_probe(OneUlpOff())
