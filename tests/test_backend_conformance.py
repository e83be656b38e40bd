"""Conformance of the numpy kernels to their scalar oracles.

Each batched DSE path has one numpy kernel in :mod:`repro.core.backend`
and one scalar oracle, the code an interpreter without numpy runs. Each
kernel must return values ``==`` to its oracle:

* :func:`~repro.core.backend.row_sums`, the SA filter's Eq. 4 sums, to
  :func:`repro.utils.mathutils.ordered_sum` over each row;
* :func:`~repro.core.backend.compute_bounds` to
  :func:`repro.core.evaluator.throughput_upper_bound` on each task;
* :func:`~repro.core.backend.score_population` to
  :meth:`~repro.core.macro_partition.MacroPartitionExplorer.score` on
  each gene, on every field.

The reporting surface is pinned too: ``backend_status`` lists the two
engines, ``get_backend`` fails fast with actionable messages,
``SynthesisConfig.backend`` is a read-only report rather than a knob,
and ``repro backends --check numpy`` probes the kernel against the
scalar oracle. An AST guard keeps the batched modules free of direct
numpy imports — all array access goes through ``core.backend``.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.core.backend import (
    backend_status,
    compute_bounds,
    get_backend,
    numpy_available,
    row_sums,
    score_population,
)
from repro.core.config import SynthesisConfig
from repro.errors import ConfigurationError, PimsynError
from repro.utils.mathutils import ordered_sum

#: Names that are not engines: GPU stack names and the deleted JIT.
UNKNOWN_NAMES = ("cuda", "torch", "cupy", "numba")

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the numpy kernels need numpy"
)


def _random_matrix(rows, cols, seed, scale=1.0):
    rng = random.Random(seed)
    return [
        [rng.uniform(-scale, scale) for _ in range(cols)]
        for _ in range(rows)
    ]


def _grid_and_scalar_bounds(name, power, sharing):
    """A real TaskGrid (the model's fast queue) and its scalar bounds."""
    from repro.core.design_space import DesignSpace
    from repro.core.executor import ExplorationEngine
    from repro.core.grid_eval import GridBoundEvaluator
    from repro.core.synthesizer import SynthesisReport
    from repro.nn import zoo

    model = zoo.by_name(name)
    config = SynthesisConfig.fast(
        total_power=power, seed=7, enable_macro_sharing=sharing,
    )
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


@pytest.fixture(scope="module")
def lenet_population():
    """A lenet5 explorer, a rule-valid population with sharing pairs
    and infeasible genes, and the kernel's scores of it."""
    import numpy as np

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
    genes_arr = np.asarray(genes, dtype=np.int64)
    scores = score_population(
        explorer.batch_evaluator.context, genes_arr
    )
    return explorer, genes_arr, scores


@needs_numpy
class TestRowSumConformance:
    """row_sums: each row ``==`` to ordered_sum, the SA filter's
    scalar oracle."""

    @pytest.mark.parametrize("rows,cols,scale", [
        (7, 13, 1e6), (1, 1, 1.0), (64, 21, 1e-3),
    ])
    def test_row_sums_match_ordered_sum(self, rows, cols, scale):
        import numpy as np

        terms = _random_matrix(rows, cols, seed=rows, scale=scale)
        got = row_sums(np.asarray(terms, dtype=np.float64))
        assert got.tolist() == [ordered_sum(row) for row in terms]

    def test_negative_zero_row(self):
        """The one documented parting from the oracle: a row of only
        ``-0.0`` sums to ``-0.0`` where ordered_sum's ``0.0`` seed gives
        ``+0.0``; the two are ``==``."""
        import numpy as np

        got = float(row_sums(np.asarray([[-0.0, -0.0]]))[0])
        want = ordered_sum([-0.0, -0.0])
        assert got == want
        assert math.copysign(1.0, got) == -1.0
        assert math.copysign(1.0, want) == 1.0

    def test_row_sums_are_left_associated(self):
        """The accumulation order is the oracle's, observable through a
        row engineered so pairwise summation differs."""
        import numpy as np

        row = [1e16, 1.0, 1.0, 1.0, -1e16]
        expected = 0.0
        for value in row:
            expected = expected + value
        assert row_sums(np.asarray([row])).tolist() == [expected]
        assert expected == ordered_sum(row)


@needs_numpy
class TestBoundsConformance:
    """compute_bounds: bit-identical to the scalar bound, per task,
    with the rule-b halving on and off."""

    @pytest.mark.parametrize("name,power,sharing", [
        ("lenet5", 2.0, True),
        ("lenet5", 2.0, False),
        ("resnet18_cifar", 50.0, False),
    ])
    def test_compute_bounds_matches_scalar_oracle(
        self, name, power, sharing
    ):
        grid, scalar = _grid_and_scalar_bounds(name, power, sharing)
        assert grid.macro_sharing is sharing
        assert compute_bounds(grid).tolist() == scalar


#: BatchEvaluation integer/flag fields.
EXACT_SCORE_FIELDS = ("feasible", "bottleneck_layer", "num_macros")
#: BatchEvaluation float kernel outputs.
FLOAT_SCORE_FIELDS = (
    "fitness", "period", "latency", "throughput", "tops", "power",
    "tops_per_watt", "energy_per_image", "edp",
)


@needs_numpy
class TestScorePopulationConformance:
    """The fused population kernel ``==`` to the scalar oracle on every
    field of every gene."""

    @pytest.mark.parametrize("fields", (
        EXACT_SCORE_FIELDS, FLOAT_SCORE_FIELDS,
    ), ids=("exact-fields", "float-fields"))
    def test_fields_match_scalar_oracle(self, fields, lenet_population):
        explorer, genes_arr, scores = lenet_population
        for k, gene in enumerate(genes_arr.tolist()):
            oracle = explorer.score_fields(tuple(gene))
            for field in fields:
                assert getattr(scores, field)[k] == oracle[field], (
                    k, field,
                )

    def test_population_has_feasible_and_infeasible_lanes(
        self, lenet_population
    ):
        """The fixture exercises both kernel paths; infeasible lanes
        come back fully masked."""
        import numpy as np

        _, _, scores = lenet_population
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


@needs_numpy
class TestKernelHelperConformance:
    """The numpy kernel's gene decode and mesh hops: integer-exact to
    the scalar chain (``MacroPartition.from_gene`` / ``MeshNoC.hops``).
    The decode also validates, so its rejections are pinned here."""

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

    @pytest.mark.parametrize("gene,message", [
        ((1, 1000, 2001, 3001, 4001), "batch decode: #macros < 1"),
        ((1, 2001, 2001, 3001, 4001), "batch decode: owner > layer index"),
        ((1, 1, 2001, 1001, 4001),
         "batch decode: layer shares with a non-owner"),
        ((1, 1001, 2001, 2001, 2001),
         "batch decode: an owner is shared by more than one layer "
         "(rule b allows pairs only)"),
    ], ids=("zero-macros", "owner-after-layer", "shares-with-a-sharer",
            "owner-shared-twice"))
    def test_decode_rejections(self, lenet_population, gene, message):
        """Each gene ``MacroPartition.from_gene`` rejects is rejected by
        the kernel's decode, with its message, through the evaluator's
        one entry point and among valid genes."""
        import re

        import numpy as np

        from repro.core.backend import _decode
        from repro.core.macro_partition import MacroPartition

        explorer, genes_arr, _ = lenet_population
        with pytest.raises(ConfigurationError):
            MacroPartition.from_gene(gene)
        population = genes_arr.tolist()[:3] + [list(gene)]
        for reject in (
            lambda: _decode(np.asarray(population, dtype=np.int64)),
            lambda: explorer.batch_evaluator.evaluate_population(
                population
            ),
        ):
            with pytest.raises(
                ConfigurationError, match=f"^{re.escape(message)}$"
            ):
                reject()

    @staticmethod
    def _groups(num_macros, seed):
        """Contiguous groups covering ``num_macros`` macros, as the
        decode lays them out: ``(group_start, group_len)`` rows."""
        rng = random.Random(seed)
        starts, lengths, start = [], [], 0
        while start < num_macros:
            length = rng.randint(1, max(1, num_macros // 4))
            length = min(length, num_macros - start)
            starts.append(start)
            lengths.append(length)
            start += length
        return starts, lengths

    @pytest.mark.parametrize("num_macros", (1, 9, 50, 64))
    def test_mesh_ends_match_mesh_noc(self, num_macros):
        """Each group's first and last macro on the mesh, and the hop
        from its first macro to its second, as ``MeshNoC`` places
        them."""
        import numpy as np

        from repro.core.backend import _mesh_ends
        from repro.hardware.noc import MeshNoC
        from repro.hardware.params import HardwareParams

        noc = MeshNoC(num_macros, HardwareParams())
        for seed in range(4):
            starts, lengths = self._groups(num_macros, seed)
            ends, neighbor = _mesh_ends(
                np.asarray([num_macros], dtype=np.int64),
                np.asarray([starts], dtype=np.int64),
                np.asarray([lengths], dtype=np.int64),
            )
            first_row, first_col, last_row, last_col = (
                position[0].tolist() for position in ends
            )
            for i, (start, length) in enumerate(zip(starts, lengths)):
                last = start + length - 1
                assert (first_row[i], first_col[i]) == noc.position(start)
                assert (last_row[i], last_col[i]) == noc.position(last)
                if length > 1:
                    assert neighbor[0, i] == noc.hops(start, start + 1)

    @pytest.mark.parametrize("num_macros", (1, 9, 50, 64))
    def test_hops_match_mesh_noc(self, num_macros):
        """Each edge's hops: the least ``MeshNoC.hops`` between the end
        macros of its producer's and its consumer's groups."""
        import numpy as np

        from repro.core.backend import _edge_hops, _mesh_ends
        from repro.hardware.noc import MeshNoC
        from repro.hardware.params import HardwareParams

        noc = MeshNoC(num_macros, HardwareParams())
        rng = random.Random(5)
        for seed in range(4):
            starts, lengths = self._groups(num_macros, seed)
            ends, _ = _mesh_ends(
                np.asarray([num_macros], dtype=np.int64),
                np.asarray([starts], dtype=np.int64),
                np.asarray([lengths], dtype=np.int64),
            )
            layers = range(len(starts))
            src = [rng.choice(layers) for _ in range(32)]
            dst = [rng.choice(layers) for _ in range(32)]
            got = _edge_hops(
                ends, np.asarray(src, dtype=np.int64),
                np.asarray(dst, dtype=np.int64),
            )
            want = [
                min(
                    noc.hops(a, b)
                    for a in (starts[s], starts[s] + lengths[s] - 1)
                    for b in (starts[d], starts[d] + lengths[d] - 1)
                )
                for s, d in zip(src, dst)
            ]
            assert got[0].tolist() == want

    def test_hops_is_manhattan(self):
        """Pinned against the closed form, not just the scalar chain:
        on a 3-column mesh (9 macros), groups 0-1, 2, 3-7 and 8."""
        import numpy as np

        from repro.core.backend import _edge_hops, _mesh_ends

        ends, neighbor = _mesh_ends(
            np.asarray([9], dtype=np.int64),
            np.asarray([[0, 2, 3, 8]], dtype=np.int64),
            np.asarray([[2, 1, 5, 1]], dtype=np.int64),
        )
        assert [position.tolist() for position in ends] == [
            [[0, 0, 1, 2]], [[0, 2, 0, 2]],  # first macro: row, col
            [[0, 0, 2, 2]], [[1, 2, 1, 2]],  # last macro: row, col
        ]
        # A next column is one hop; the wrap from column 2 is three.
        assert neighbor[0, [0, 2]].tolist() == [1, 1]
        assert neighbor[0, [1, 3]].tolist() == [3, 3]
        src = np.asarray([0, 0, 1, 2], dtype=np.int64)
        dst = np.asarray([1, 3, 2, 3], dtype=np.int64)
        # 0-1 -> 2: (0,1)-(0,2); 0-1 -> 8: (0,1)-(2,2);
        # 2 -> 3-7: (0,2)-(1,0)...; 3-7 -> 8: (2,1)-(2,2).
        assert _edge_hops(ends, src, dst).tolist() == [[1, 3, 3, 1]]


class TestNoDirectNumpyImport:
    """AST guard: the batched paths reach numpy only through
    ``core.backend`` (``numpy_module()`` and its kernels), so one gate
    controls stubbing, monkeypatching, and availability (the
    bare-``HardwareParams()`` guard pattern from test_tech.py)."""

    GUARDED = (
        "core/batch_eval.py", "core/grid_eval.py",
        "core/weight_duplication.py",
    )

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


class TestReportingSurface:
    """backend_status / get_backend: the two engines, reported."""

    def test_status_rows(self):
        assert [row.name for row in backend_status()] == [
            "numpy", "python",
        ]
        status = {name: ok for name, ok, _ in backend_status()}
        assert status == {"numpy": numpy_available(), "python": True}

    @pytest.mark.parametrize("name", UNKNOWN_NAMES)
    def test_unknown_name_raises_with_available_list(self, name):
        usable = [n for n, ok, _ in backend_status() if ok]
        with pytest.raises(
            ConfigurationError, match="unknown backend"
        ) as err:
            get_backend(name)
        assert f"available: {usable}" in str(err.value)

    def test_numpy_unavailable_without_numpy(self, without_numpy):
        with without_numpy():
            status = {name: (ok, note) for name, ok, note in
                      backend_status()}
            assert status["numpy"] == (
                False, "numpy is not importable on this interpreter",
            )
            assert get_backend("python").name == "python"
            with pytest.raises(
                ConfigurationError,
                match="backend 'numpy' is unavailable: numpy is not "
                      "importable",
            ):
                get_backend("numpy")


class TestConfigIntegration:
    """``SynthesisConfig.backend`` reports the engine; it is no knob."""

    def test_backend_is_not_a_config_field(self):
        with pytest.raises(TypeError, match="backend"):
            SynthesisConfig(total_power=2.0, backend="python")
        with pytest.raises(TypeError, match="backend"):
            SynthesisConfig.fast(total_power=2.0, backend="numpy")
        config = SynthesisConfig.fast(total_power=2.0)
        with pytest.raises(TypeError, match="backend"):
            dataclasses.replace(config, backend="python")
        assert "backend" not in {
            f.name for f in dataclasses.fields(SynthesisConfig)
        }

    def test_backend_is_read_only(self):
        config = SynthesisConfig.fast(total_power=2.0)
        with pytest.raises(AttributeError):
            config.backend = "python"

    def test_default_backend_resolves(self, without_numpy):
        config = SynthesisConfig.fast(total_power=2.0)
        assert get_backend(config.backend).name == (
            "numpy" if numpy_available() else "python"
        )
        with without_numpy():
            assert config.backend == "python"
            assert get_backend(config.backend).name == "python"

    def test_default_config_runs_without_numpy(self):
        """On an interpreter without numpy the default config reports
        the python engine, keys to the pinned content keys, and
        synthesizes lenet5 to the payload this process's numpy run
        produces."""
        from repro.core import Pimsyn
        from repro.core.executor import config_fingerprint
        from repro.nn import zoo
        from repro.serve.job import job_content_key

        script = (
            "import json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.core import Pimsyn, SynthesisConfig\n"
            "from repro.core.executor import config_fingerprint\n"
            "from repro.nn import zoo\n"
            "from repro.serve.job import job_content_key\n"
            "config = SynthesisConfig.fast(total_power=2.0)\n"
            "model = zoo.by_name('lenet5')\n"
            "solution = Pimsyn(model, config).synthesize()\n"
            "print(json.dumps({\n"
            "    'backend': config.backend,\n"
            "    'config_key': config_fingerprint(config),\n"
            "    'job_key': job_content_key(model, config),\n"
            "    'payload': solution.to_payload(),\n"
            "}, sort_keys=True))\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert result.returncode == 0, result.stderr
        config = SynthesisConfig.fast(total_power=2.0)
        model = zoo.by_name("lenet5")
        solution = Pimsyn(model, config).synthesize()
        assert result.stdout.strip() == json.dumps({
            "backend": "python",
            "config_key": config_fingerprint(config),
            "job_key": job_content_key(model, config),
            "payload": solution.to_payload(),
        }, sort_keys=True)
        assert config_fingerprint(config) == "101f9fe6705bffb0"
        assert job_content_key(model, config) == \
            "0adb10f6bd13ed88e923b60108964df7"


class TestCli:
    """`repro backends` lists the engines; --check gates exit status."""

    def test_backends_listing(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name, _, note in backend_status():
            assert name in out and note in out

    def test_backends_listing_without_numpy(self, capsys, without_numpy):
        """Without numpy the table marks the scalar oracles as the
        engine that runs."""
        from repro.cli import main

        with without_numpy():
            assert main(["backends"]) == 0
        rows = {
            line.split()[0]: line.split()[1:3]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith(("numpy ", "python "))
        }
        assert rows["numpy"][0] == "no"
        assert rows["python"] == ["yes", "*"]

    @needs_numpy
    def test_backends_check_available(self, capsys):
        from repro.cli import main

        assert main(["backends", "--check", "numpy"]) == 0
        out = capsys.readouterr().out
        assert "backend 'numpy' is available" in out
        assert "bit-identical to the scalar oracle" in out

    def test_backends_check_python(self, capsys):
        from repro.cli import main

        assert main(["backends", "--check", "python"]) == 0
        assert "it is the scalar oracle" in capsys.readouterr().out

    @pytest.mark.parametrize("name", UNKNOWN_NAMES)
    def test_backends_check_unknown_fails(self, capsys, name):
        from repro.cli import main

        assert main(["backends", "--check", name]) == 1
        assert "unknown backend" in capsys.readouterr().err

    def test_backends_check_numpy_fails_without_numpy(
        self, capsys, without_numpy
    ):
        from repro.cli import main

        with without_numpy():
            assert main(["backends", "--check", "numpy"]) == 1
        assert "backend 'numpy' is unavailable" in \
            capsys.readouterr().err

    @needs_numpy
    def test_probe_rejects_a_one_ulp_divergence(self, monkeypatch):
        """The probe holds every field to ``==``: a kernel whose fitness
        is one ulp off the oracle fails it."""
        import numpy as np

        import repro.core.batch_eval
        from repro.cli import _backend_probe

        _backend_probe()

        def one_ulp_off(ctx, genes, rows=None):
            scores = score_population(ctx, genes, rows)
            scores.fitness = np.nextafter(scores.fitness, np.inf)
            return scores

        monkeypatch.setattr(
            repro.core.batch_eval, "score_population", one_ulp_off
        )
        with pytest.raises(PimsynError, match="fitness"):
            _backend_probe()
