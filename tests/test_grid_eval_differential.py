"""Differential suite: the tensorized task-grid walk vs the per-task walk.

The outer (design point x WtDup x ResDAC) queue is flattened into one
``(tasks, layers)`` :class:`~repro.core.backend.TaskGrid`, and every
pruning bound comes from one numpy kernel call. The claim mirrors the
batch-eval suite's, but stronger: the grid bounds are **bit-identical**
(``==``, not 1e-9-close) to :meth:`_TaskRunner.throughput_bound` called
once per task — pruning rides on exact float comparisons, so anything
less would let the tensorized walk change which tasks run. This suite
pins that claim across the model zoo and a power grid spanning
infeasible, tight and generous regimes — and then end to end: full
synthesis must select the identical solution with only the executor's
bounds on the per-task walk (search telemetry included, serial or
pooled) and with numpy blocked, pruned or not.
``tests/test_batch_eval_differential.py`` holds the numpy on/off
solution and telemetry identity across ``jobs``.
"""

from __future__ import annotations

import contextlib
import math

import pytest

from repro.core import Pimsyn, SynthesisConfig
from repro.core.backend import _ROW_FIELDS, numpy_available
from repro.core.component_alloc import fixed_overhead_power, layer_workloads
from repro.core.design_space import DesignSpace
from repro.core.evaluator import PerformanceEvaluator
from repro.core.executor import ExplorationEngine
from repro.core.grid_eval import GridBoundEvaluator
from repro.core.synthesizer import SynthesisReport
from repro.hardware.crossbar import required_adc_resolution
from repro.ir.builder import DataflowBuilder
from repro.nn import zoo
from repro.utils.mathutils import ordered_sum

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="grid evaluation requires numpy"
)

POWER_GRID = (0.5, 2.0, 8.0, 50.0, 200.0)


@contextlib.contextmanager
def _per_task_bounds():
    """Route only the executor's task bounds through the per-task scalar
    walk; the chunk contexts, EA scoring and the SA filter stay
    batched, so any difference comes from the bounds walk alone. A grid
    bound computed under it fails the test."""

    def per_task(engine, tasks):
        return [engine._local_runner.throughput_bound(t) for t in tasks]

    def no_grid_bounds(*_args, **_kwargs):
        raise AssertionError("grid bounds computed on the per-task walk")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ExplorationEngine, "_task_bounds", per_task)
        patch.setattr(GridBoundEvaluator, "bounds_array", no_grid_bounds)
        yield


def _engine_and_tasks(model, config):
    """The real queue the executor would walk for (model, config)."""
    engine = ExplorationEngine(model, config, SynthesisReport())
    points = list(DesignSpace(model, config).outer_points())
    if not points:
        return engine, []
    executor = engine._make_executor()
    try:
        tasks = engine._build_tasks(executor, points, None)
    finally:
        executor.close()
    return engine, tasks


class TestZooBoundsBitIdentity:
    """Every zoo model x power grid: grid bounds ``==`` scalar bounds."""

    @pytest.mark.parametrize("name", zoo.available_models())
    def test_bounds_match_scalar_walk_exactly(self, name):
        model = zoo.by_name(name)
        tasks_seen = 0
        for power in POWER_GRID:
            config = SynthesisConfig.fast(total_power=power, seed=7)
            engine, tasks = _engine_and_tasks(model, config)
            if not tasks:
                continue
            tasks_seen += len(tasks)
            scalar = [
                engine._local_runner.throughput_bound(t) for t in tasks
            ]
            grid = GridBoundEvaluator(model, config)
            assert grid.bounds(tasks) == scalar, f"{name}@{power}W"
        # The grid must actually produce work at some power level.
        assert tasks_seen > 0

    def test_bounds_span_zero_and_positive(self):
        """The power grid exercises both bound regimes (available
        peripheral power exhausted -> 0.0, and real positive bounds),
        so the kernels' early-out branch is covered differentially."""
        model = zoo.by_name("lenet5")
        values = set()
        for power in POWER_GRID:
            config = SynthesisConfig.fast(total_power=power, seed=7)
            _, tasks = _engine_and_tasks(model, config)
            if not tasks:
                continue
            grid = GridBoundEvaluator(model, config)
            for value in grid.bounds(tasks):
                values.add(value == 0.0)
        assert values == {True, False}

    def test_engine_task_bounds_routes_identically(self, without_numpy):
        """ExplorationEngine._task_bounds returns the same floats on
        the grid path and, numpy blocked, the scalar path."""
        model = zoo.by_name("alexnet_cifar")
        config = SynthesisConfig.fast(total_power=8.0, seed=7)
        grid_engine, tasks = _engine_and_tasks(model, config)
        grid_bounds = grid_engine._task_bounds(tasks)
        assert grid_engine._local_runner._grid is not None
        scalar_engine = ExplorationEngine(model, config, SynthesisReport())
        with without_numpy():
            per_task_bounds = scalar_engine._task_bounds(tasks)
        assert scalar_engine._local_runner._grid is None
        assert grid_bounds == per_task_bounds


def _oracle_row(runner, task):
    """Task ``task``'s population-context row from the scalar oracle's
    own helpers, over its spec and budget: each column as
    ``PerformanceEvaluator``'s stage-time helpers, ``layer_workloads``,
    ``allocate_components``' ordered Eq. 6 sums, ``fixed_overhead_power``
    and ``DataflowBuilder.producer_block_for`` compose it."""
    spec, budget = runner.spec_of(task), runner.budget_of(task)
    params = spec.params
    geos = spec.geometries
    oracle = PerformanceEvaluator(spec, budget)
    act_bytes = oracle._bytes_per_activation()
    adc_wl, alu_wl = layer_workloads(geos, spec.model, spec.bits)
    adc_lo, adc_hi = params.adc_resolution_range
    resolutions = [
        required_adc_resolution(
            min(budget.xb_size, geo.rows), budget.res_rram, task.res_dac,
            min_resolution=adc_lo, max_resolution=adc_hi,
        )
        for geo in geos
    ]
    adc_powers = [params.adc_power_of(r) for r in resolutions]
    builder = DataflowBuilder(spec)
    return {
        "mvm": [oracle._mvm_time(geo) for geo in geos],
        "load_num": [
            geo.total_blocks * geo.inputs_per_block * act_bytes
            for geo in geos
        ],
        "store_num": [
            geo.total_blocks * geo.outputs_per_block * act_bytes
            for geo in geos
        ],
        "total_blocks": [geo.total_blocks for geo in geos],
        "merge_rounds": [
            math.ceil(math.log2(geo.row_tiles)) if geo.row_tiles > 1
            else 0 for geo in geos
        ],
        "per_round_num": [geo.outputs_per_block * act_bytes for geo in geos],
        "out_bytes": [
            geo.out_positions * geo.cols * act_bytes for geo in geos
        ],
        "adc_wl": adc_wl,
        "alu_wl": alu_wl,
        "adc_powers": adc_powers,
        "merge_layers": [geo.row_tiles > 1 for geo in geos],
        "lat_fraction": [
            (builder.producer_block_for(geos[producer], geos[consumer], 0)
             + 1) / geos[producer].total_blocks
            for producer, consumer in sorted(
                spec.model.interlayer_edges(), key=lambda edge: edge[1]
            )
        ],
        "denom": ordered_sum(
            p * wl / params.adc_sample_rate
            for p, wl in zip(adc_powers, adc_wl)
        ) + ordered_sum(
            params.alu_power * wl / params.alu_frequency for wl in alu_wl
        ),
        # No macro: the fixed overhead's crossbar term alone.
        "crossbar_fixed": fixed_overhead_power(
            geos, [], params, budget.xb_size, task.res_dac
        ),
        "peripheral_power": budget.peripheral_power,
        "adc_power_unit": params.adc_power_of(max(resolutions)),
        "rram_power": sum(geo.crossbars for geo in geos)
        * params.crossbar_power_of(budget.xb_size),
    }


#: Default-config (model, power) grids whose every task's context row
#: is checked, and with numpy blocked, their synthesis digests.
CONTEXT_GRIDS = (
    ("lenet5", 2.0), ("alexnet_cifar", 20.0), ("vgg16_cifar", 40.0),
    ("resnet18_cifar", 60.0),
)


class TestGridContexts:
    """The stacked population contexts the task grid builds: every
    per-row column of every task of four default-config queues ``==``
    the scalar oracle's helpers, and the shared fields are the grid's
    model context and the config's settings."""

    @pytest.mark.parametrize("name,power", CONTEXT_GRIDS)
    def test_rows_match_the_scalar_helpers(self, name, power):
        model = zoo.by_name(name)
        config = SynthesisConfig(total_power=power, seed=1)
        engine, tasks = _engine_and_tasks(model, config)
        grid = GridBoundEvaluator(model, config)
        context = grid.population_context(grid.build_grid(tasks))
        assert context.num_rows == len(tasks) > 2000
        runner = engine._local_runner
        columns = {
            name: getattr(context, name).tolist() for name in _ROW_FIELDS
        }
        for k, task in enumerate(tasks):
            want = _oracle_row(runner, task)
            for field in _ROW_FIELDS:
                assert columns[field][k] == want[field], (
                    f"{name} task {k} {field}"
                )

    def test_chunk_contexts_are_the_queue_rows(self):
        """A grid that meets the queue's (XbSize, ResRram, ResDAC)
        combos chunk by chunk, as a task runner does, builds each
        chunk's rows as the whole queue's context holds them."""
        model = zoo.by_name("resnet18_cifar")
        config = SynthesisConfig(total_power=60.0, seed=1)
        _engine, tasks = _engine_and_tasks(model, config)
        whole = GridBoundEvaluator(model, config)
        queue = whole.population_context(whole.build_grid(tasks))
        grid = GridBoundEvaluator(model, config)
        for start in range(0, len(tasks), 16):
            chunk = grid.population_context(
                grid.build_grid(tasks[start:start + 16])
            )
            for field in _ROW_FIELDS:
                assert getattr(chunk, field).tolist() == getattr(
                    queue, field
                )[start:start + 16].tolist(), (start, field)
        # More combos than tables: the tables grew chunk by chunk.
        assert len(grid._combos) > len(grid._tables)

    @pytest.mark.parametrize("sharing,specialized", [
        (True, True), (True, False), (False, True),
    ])
    def test_shared_fields(self, sharing, specialized):
        model = zoo.by_name("resnet18_cifar")
        config = SynthesisConfig.fast(
            total_power=60.0, seed=7, enable_macro_sharing=sharing,
            specialized_macros=specialized,
        )
        _engine, tasks = _engine_and_tasks(model, config)
        grid = GridBoundEvaluator(model, config)
        first = grid.population_context(grid.build_grid(tasks[:16]))
        second = grid.population_context(grid.build_grid(tasks[16:]))
        shared = grid.model_context
        for context in (first, second):
            for field in (
                "comm_producer", "comm_consumer", "lat_producer",
                "out_slots", "levels",
            ):
                assert getattr(context, field) is getattr(shared, field)
            assert context.enable_macro_sharing is sharing
            assert context.identical_macros is (not specialized)
            assert context.macs2 == shared.macs2
            assert context.overlap_window == 4
        assert first.num_rows == 16
        assert second.num_rows == len(tasks) - 16


class TestFullSynthesisIdentity:
    """numpy only picks batched or scalar paths: results are
    identical."""

    @pytest.mark.parametrize("name,power", [
        ("lenet5", 2.0), ("alexnet_cifar", 8.0),
    ])
    def test_identical_solution_and_pruning_telemetry(self, name, power):
        model = zoo.by_name(name)

        def run():
            synthesizer = Pimsyn(model, SynthesisConfig.fast(
                total_power=power, seed=7,
            ))
            return synthesizer.synthesize().to_json(), synthesizer.report

        grid, grid_report = run()
        with _per_task_bounds():
            per_task, per_task_report = run()
        assert grid == per_task
        # Not just the winner: the pruning decisions themselves match,
        # because the bounds are bit-identical.
        assert grid_report.pruned_tasks == per_task_report.pruned_tasks
        assert grid_report.ea_runs == per_task_report.ea_runs
        assert grid_report.cache_hits == per_task_report.cache_hits

    def test_identical_across_jobs_and_grid(self):
        """The 2x2 (jobs, bounds walk) grid returns one solution: the
        grid bounds order and prune the dispatch waves under pool
        prefetch exactly like the per-task walk."""

        def run(jobs):
            return Pimsyn(zoo.by_name("lenet5"), SynthesisConfig.fast(
                total_power=2.0, seed=11, jobs=jobs,
            )).synthesize().to_json()

        outputs = set()
        for jobs in (1, 4):
            outputs.add(run(jobs))
            with _per_task_bounds():
                outputs.add(run(jobs))
        assert len(outputs) == 1

    def test_identical_across_pruning_and_grid(self, without_numpy):
        """Pruning on/off x numpy on/off: one winner (pruning only ever
        removes provably dominated tasks, on either bounds path)."""

        def run(prune):
            return Pimsyn(zoo.by_name("lenet5"), SynthesisConfig.fast(
                total_power=2.0, seed=11, prune_dominated=prune,
            )).synthesize().to_json()

        outputs = set()
        for prune in (True, False):
            outputs.add(run(prune))
            with without_numpy():
                outputs.add(run(prune))
        assert len(outputs) == 1
