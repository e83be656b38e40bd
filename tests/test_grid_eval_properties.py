"""Hypothesis invariants of the tensorized task-grid walk.

Four properties the grid evaluator must satisfy for *any* task
ordering (not just the ones the differential suite samples):

- permuting the task queue permutes the bounds and nothing else;
- a batch of one equals the scalar ``throughput_bound``;
- pruning is *sound*: every task's bound is at least its true EA
  fitness, so the executor's dispatch-time check never skips a task
  that could beat the incumbent;
- memo hit/miss accounting is identical with the grid walk and, numpy
  blocked, the per-task walk (the tensorized path only changes how
  bounds are computed, never which EA launches run or what they
  memoize).
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings, strategies as st

from repro.core import Pimsyn, SynthesisConfig
from repro.core.backend import numpy_available
from repro.core.design_space import DesignSpace
from repro.core.executor import ExplorationEngine, TaskOutcome, _dominated
from repro.core.grid_eval import GridBoundEvaluator
from repro.core.synthesizer import SynthesisReport
from repro.nn import lenet5

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="grid evaluation requires numpy"
)


def _fixture():
    """lenet5's real fast-preset queue, bounds, and per-task truths.

    Built once at import: the task list and scalar bounds seed every
    property, and ``outcomes`` (each task's actual EA result) grounds
    the soundness property in *true* fitness, not just the bound.
    """
    model = lenet5()
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
    bounds = evaluator.bounds(tasks)
    scalar = [engine._local_runner.throughput_bound(t) for t in tasks]
    assert bounds == scalar  # precondition for everything below
    outcomes = engine._local_runner.run_tasks(tasks)
    return model, config, engine, evaluator, tasks, bounds, outcomes


if numpy_available():
    MODEL, CONFIG, ENGINE, EVALUATOR, TASKS, BOUNDS, OUTCOMES = \
        _fixture()
    FEASIBLE = [o for o in OUTCOMES if o.feasible]
    assert FEASIBLE
else:  # pragma: no cover - placeholders keep strategies importable
    MODEL = lenet5()
    TASKS, BOUNDS, OUTCOMES, FEASIBLE = [None], [0.0], [], []


class TestGridInvariants:
    @given(seed=st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_permutation_permutes_bounds(self, seed):
        order = list(range(len(TASKS)))
        seed.shuffle(order)
        permuted = EVALUATOR.bounds([TASKS[i] for i in order])
        assert permuted == [BOUNDS[i] for i in order]

    @given(index=st.integers(0, len(TASKS) - 1))
    @settings(max_examples=25, deadline=None)
    def test_batch_of_one_equals_scalar_bound(self, index):
        task = TASKS[index]
        assert EVALUATOR.bounds([task]) == [
            ENGINE._local_runner.throughput_bound(task)
        ]

    @given(
        index=st.integers(0, len(TASKS) - 1),
        copies=st.integers(2, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_duplicated_tasks_get_identical_bounds(self, index, copies):
        values = EVALUATOR.bounds([TASKS[index]] * copies)
        assert len(set(values)) == 1
        assert values[0] == BOUNDS[index]


class TestPruningSoundness:
    @given(incumbent_pos=st.integers(0, max(0, len(FEASIBLE) - 1)))
    @settings(max_examples=50, deadline=None)
    def test_no_winning_task_is_ever_pruned(self, incumbent_pos):
        """For any incumbent drawn from the *actual* feasible task
        outcomes, a task the dispatch check prunes can never beat the
        incumbent's true fitness (nor tie it with a smaller index)."""
        incumbent = FEASIBLE[incumbent_pos]
        for task, bound, truth in zip(TASKS, BOUNDS, OUTCOMES):
            if not _dominated(bound, task.index, incumbent):
                continue
            better = truth.feasible and (
                truth.fitness > incumbent.fitness
                or (
                    truth.fitness == incumbent.fitness
                    and truth.index < incumbent.index
                )
            )
            assert not better, (
                f"task {task.index} pruned but its true fitness "
                f"{truth.fitness} beats incumbent {incumbent.fitness}"
            )

    def test_dispatch_check_tie_break(self):
        """Pruned: strictly worse bounds, or ties held by *larger* task
        indices than the incumbent's."""
        incumbent = TaskOutcome(index=2, feasible=True, fitness=2.0)
        bounds = [3.0, 2.0, 2.0, 1.0, 2.0]
        assert [
            _dominated(bound, index, incumbent)
            for index, bound in enumerate(bounds)
        ] == [False, False, False, True, True]

    def test_bound_dominates_truth_everywhere(self):
        """The precondition soundness rests on: bound >= true fitness
        for every task in the queue (infeasible tasks report 0)."""
        for bound, outcome in zip(BOUNDS, OUTCOMES):
            truth = outcome.fitness if outcome.feasible else 0.0
            assert bound >= truth


class TestMemoAccounting:
    def test_hit_miss_telemetry_identical_grid_on_off(self, without_numpy):
        """The grid walk changes how bounds are computed, not which
        tasks run or what the memo sees: hits, misses and EA evaluation
        counts match the numpy-less per-task walk exactly."""

        def report():
            synthesizer = Pimsyn(lenet5(), SynthesisConfig.fast(
                total_power=2.0, seed=7,
            ))
            synthesizer.synthesize()
            return synthesizer.report

        on = report()
        with without_numpy():
            off = report()
        assert on.cache_hits == off.cache_hits
        assert on.cache_misses == off.cache_misses
        assert on.ea_evaluations == off.ea_evaluations
        assert on.ea_runs == off.ea_runs
        assert on.pruned_tasks == off.pruned_tasks

    def test_memo_snapshots_identical_grid_on_off(self, without_numpy):
        """Even the memo *contents* (key set and values) agree."""

        def snapshot():
            engine = ExplorationEngine(
                lenet5(),
                SynthesisConfig.fast(total_power=2.0, seed=7),
                SynthesisReport(),
            )
            engine.run()
            return dict(engine.memo_snapshot())

        on = snapshot()
        with without_numpy():
            assert snapshot() == on


class TestTilingSummaryEquivalence:
    """The O(1) tiling summary equals materializing the tile objects —
    the invariant that let both the spec builder and the grid assembly
    drop ``map_layer_weights`` without changing a single number."""

    @given(
        xb_size=st.sampled_from((128, 256, 512)),
        res_rram=st.sampled_from((1, 2, 4)),
        layer_index=st.integers(0, MODEL.num_weighted_layers - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_summary_matches_materialized_tiles(
        self, xb_size, res_rram, layer_index
    ):
        from repro.hardware.crossbar import (
            crossbar_tiling_summary,
            map_layer_weights,
        )

        layer = MODEL.weighted_layers[layer_index]
        summary = crossbar_tiling_summary(
            layer, xb_size, res_rram, MODEL.weight_precision
        )
        materialized = map_layer_weights(
            layer, xb_size, res_rram, MODEL.weight_precision
        )
        assert summary.num_crossbars == materialized.num_crossbars
        assert summary.row_tiles == materialized.row_tiles
        assert summary.col_tiles == materialized.col_tiles
        assert summary.bit_slices == materialized.bit_slices
