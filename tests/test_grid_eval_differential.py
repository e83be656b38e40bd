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

import pytest

import repro.core.executor
from repro.core import Pimsyn, SynthesisConfig
from repro.core.backend import numpy_available
from repro.core.design_space import DesignSpace
from repro.core.executor import ExplorationEngine
from repro.core.grid_eval import GridBoundEvaluator
from repro.core.synthesizer import SynthesisReport
from repro.nn import zoo

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="grid evaluation requires numpy"
)

POWER_GRID = (0.5, 2.0, 8.0, 50.0, 200.0)


@contextlib.contextmanager
def _per_task_bounds():
    """Route only the executor's task bounds through the per-task scalar
    walk; EA scoring and the SA filter stay batched, so any difference
    comes from the bounds walk alone. Building a grid evaluator under
    it fails the test."""

    def no_grid(*_args, **_kwargs):
        raise AssertionError("grid evaluator built on the per-task walk")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.core.executor, "numpy_available", lambda: False)
        patch.setattr(repro.core.executor, "GridBoundEvaluator", no_grid)
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
        assert grid_engine._grid_evaluator is not None
        scalar_engine = ExplorationEngine(model, config, SynthesisReport())
        with without_numpy():
            per_task_bounds = scalar_engine._task_bounds(tasks)
        assert scalar_engine._grid_evaluator is None
        assert grid_bounds == per_task_bounds


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
