"""Tests for the parallel, cached DSE execution engine.

The three contracts the executor refactor must keep:

1. serial and parallel runs return byte-identical best solutions for a
   fixed seed (task RNGs are label-derived, the winner rule is
   order-free);
2. the task runner's evaluation memo is accounted in
   :class:`SynthesisReport`, actually short-circuits re-visited (design
   point, gene) tuples, and replays a run it was pre-filled from;
3. dominated-task pruning is sound — the analytical throughput bound
   never discards the true optimum of a small exhaustively-walked
   space.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Pimsyn, SynthesisConfig
from repro.core import executor as executor_mod
from repro.core.design_space import DesignSpace
from repro.core.evaluator import throughput_upper_bound
from repro.core.backend import numpy_available
from repro.core.executor import (
    OUTCOME_METRICS,
    WAVE_TASKS_PER_JOB,
    EvaluationTask,
    ExplorationEngine,
    ProcessExecutor,
    SerialExecutor,
    _TaskRunner,
    model_fingerprint,
    params_fingerprint,
)
from repro.core.executor import (
    decode_memo_entries,
    encode_memo_entries,
)
from repro.core.macro_partition import MacroPartitionExplorer, encode_gene
from repro.core.synthesizer import SynthesisReport
from repro.core.weight_duplication import WeightDuplicationFilter
from repro.errors import (
    ConfigurationError,
    InfeasibleError,
    PimsynError,
    SynthesisInterrupted,
)
from repro.hardware.params import HardwareParams
from repro.nn import lenet5, zoo


def _config(**overrides) -> SynthesisConfig:
    return SynthesisConfig.fast(total_power=2.0, seed=7, **overrides)


def _raise_interrupt(_signum, _frame):
    """The CLI's SIGTERM handler, as a picklable module-level twin."""
    raise KeyboardInterrupt


def _run(model, config):
    synthesizer = Pimsyn(model, config)
    solution = synthesizer.synthesize()
    return solution, synthesizer.report


class TestDeterminism:
    def test_serial_and_parallel_identical(self, lenet):
        serial, _ = _run(lenet, _config(jobs=1))
        parallel, parallel_report = _run(lenet, _config(jobs=3))
        assert parallel_report.jobs == 3
        assert serial.to_json() == parallel.to_json()
        assert serial.partition.gene == parallel.partition.gene
        assert serial.wt_dup == parallel.wt_dup

    def test_parallel_matches_exhaustive_serial(self, lenet):
        """jobs>1 with pruning == the un-pruned serial walk."""
        exhaustive, report = _run(lenet, _config(
            jobs=1, prune_dominated=False,
        ))
        engine, _ = _run(lenet, _config(jobs=2))
        assert report.pruned_tasks == 0
        assert engine.to_json() == exhaustive.to_json()

    def test_jobs_zero_resolves_to_cpu_count(self):
        config = _config(jobs=0)
        assert config.resolved_jobs >= 1

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(jobs=-1)

    def test_parallel_infeasible_power_raises(self, lenet):
        config = SynthesisConfig.fast(total_power=1e-3, seed=7, jobs=2)
        with pytest.raises(InfeasibleError):
            Pimsyn(lenet, config).synthesize()

    def test_fixed_wtdup_parallel(self, lenet):
        policy = lambda point: [1] * lenet.num_weighted_layers
        serial = Pimsyn(lenet, _config(jobs=1)).synthesize_with_wtdup(
            policy
        )
        parallel = Pimsyn(lenet, _config(jobs=2)).synthesize_with_wtdup(
            policy
        )
        assert serial.to_json() == parallel.to_json()


class TestCacheAccounting:
    def test_report_counts_hits_and_misses(self, lenet):
        _, report = _run(lenet, _config())
        assert report.ea_evaluations > 0
        # Misses are derived: every miss runs one full evaluation.
        assert report.cache_misses == report.ea_evaluations

    def test_duplicate_tasks_hit_the_shared_cache(self, lenet):
        """A re-visited (point, WtDup, ResDAC) tuple replays for free."""
        config = _config(prune_dominated=False)
        report = SynthesisReport()
        engine = ExplorationEngine(lenet, config, report)
        wt_dup = (1,) * lenet.num_weighted_layers
        solution = engine.run(
            candidates_of_point=lambda point: [wt_dup, wt_dup]
        )
        assert solution is not None
        # The duplicate candidate's EA runs re-visit every gene of the
        # original's: at least half of all lookups must be memo hits,
        # and no new evaluations may run for them.
        assert report.cache_hits >= report.cache_misses
        assert report.ea_runs == (
            2 * report.outer_points * len(config.res_dac_choices)
        )

    def test_share_eval_cache_is_not_a_config_field(self):
        """Every runner keeps one memo; there is no knob to share or
        unshare it."""
        with pytest.raises(TypeError, match="share_eval_cache"):
            SynthesisConfig(total_power=2.0, share_eval_cache=False)
        with pytest.raises(TypeError, match="share_eval_cache"):
            _config(share_eval_cache=True)
        with pytest.raises(TypeError, match="share_eval_cache"):
            dataclasses.replace(_config(), share_eval_cache=False)


class TestLockstepStageOne:
    """Stage 1 lock-steps the SA chains of every point it is given."""

    #: lenet5 @ 2 W on the default grid (35 outer points) with a short
    #: SA schedule (7 rungs of one 6-proposal round), so examples are
    #: cheap.
    CONFIG = SynthesisConfig(
        total_power=2.0, seed=1, sa_steps_per_temp=6, sa_cooling_rate=0.5,
    )

    @pytest.fixture(scope="class")
    def stage_one(self, lenet):
        """(runner, points, the lists of one call over all points), the
        points holding one hand-made point too small for the model."""
        points = list(DesignSpace(lenet, self.CONFIG).outer_points())
        points.insert(17, dataclasses.replace(points[0], num_crossbars=1))
        runner = _TaskRunner(lenet, self.CONFIG)
        return runner, points, runner.filter_candidates(points)

    def test_infeasible_point_yields_none(self, stage_one):
        _runner, points, whole = stage_one
        assert len(whole) == len(points) == 36
        assert [i for i, found in enumerate(whole) if found is None] == [17]

    @given(cuts=st.sets(st.integers(1, 35)))
    @settings(max_examples=40, deadline=None)
    def test_any_contiguous_split_gives_the_same_lists(
        self, stage_one, cuts
    ):
        runner, points, whole = stage_one
        bounds = [0, *sorted(cuts), len(points)]
        split = [
            found
            for start, stop in zip(bounds, bounds[1:])
            for found in runner.filter_candidates(points[start:stop])
        ]
        assert split == whole

    def _queue(self, points, lists):
        """The task queue stage 1's ``lists`` for ``points`` make: one
        task per (point, WtDup candidate, ResDAC), in that order."""
        tasks = []
        for point, found in zip(points, lists):
            for wt_dup in found or ():
                for res_dac in self.CONFIG.res_dac_choices:
                    tasks.append(EvaluationTask(
                        index=len(tasks), point=point, wt_dup=wt_dup,
                        res_dac=res_dac,
                    ))
        return tasks

    @pytest.mark.parametrize("jobs, sizes", [
        (2, [18, 18]),
        (5, [8, 7, 7, 7, 7]),
        (40, [1] * 36),
    ])
    def test_pool_makes_at_most_jobs_contiguous_chunks(
        self, stage_one, jobs, sizes, monkeypatch
    ):
        runner, points, whole = stage_one
        chunks, lists = [], []

        class _InlinePool:
            def imap(self, function, items):
                chunks.extend(items)
                results = [function(item) for item in items]
                lists.extend(found for chunk in results for found in chunk)
                return iter(results)

        monkeypatch.setattr(executor_mod, "_WORKER_RUNNER", runner)
        pool = ProcessExecutor.__new__(ProcessExecutor)
        pool.jobs = jobs
        pool._pool = _InlinePool()
        engine = ExplorationEngine(
            runner.model, self.CONFIG, SynthesisReport()
        )
        tasks = engine._build_tasks(pool, points, None)
        assert lists == whole
        assert tasks == self._queue(points, whole)
        assert [len(chunk) for chunk in chunks] == sizes
        assert [point for chunk in chunks for point in chunk] == points

    def test_pool_lists_match_serial(self, lenet, stage_one):
        runner, points, whole = stage_one
        serial = ExplorationEngine(lenet, self.CONFIG, SynthesisReport())
        queue = serial._build_tasks(SerialExecutor(runner), points, None)
        assert queue == self._queue(points, whole)
        engine = ExplorationEngine(lenet, self.CONFIG, SynthesisReport())
        pool = ProcessExecutor(lenet, self.CONFIG, jobs=3)
        try:
            assert engine._build_tasks(pool, points, None) == queue
        finally:
            pool.close()
        assert engine.report == serial.report
        assert engine.report.infeasible_points == 1

    def test_one_energy_call_per_round_for_every_point(
        self, lenet, monkeypatch
    ):
        """A ``jobs=1`` fast synthesis scores each SA round of both of
        its outer points' chains in one ``batch_energy`` call, and
        scores as many states as one call per chain round did."""
        sizes = []
        original = WeightDuplicationFilter.batch_energy

        def counting(filt, states):
            sizes.append(len(states))
            return original(filt, states)

        monkeypatch.setattr(
            WeightDuplicationFilter, "batch_energy", counting
        )
        config = _config(jobs=1)
        _, report = _run(lenet, config)
        assert report.outer_points == 2
        assert report.infeasible_points == 0
        rungs = len(config.sa_schedule.temperatures())
        assert len(sizes) == rungs * math.ceil(
            config.sa_steps_per_temp / config.sa_proposal_batch
        )
        assert sum(sizes) == (
            report.outer_points * rungs * config.sa_steps_per_temp
        )


class TestLockstepWaves:
    """``run_tasks`` lock-steps a chunk's EA launches
    (:func:`repro.core.macro_partition.explore_together`). Every launch
    must return what its explorer's solo ``explore()`` returns on a
    runner that walks the same tasks one at a time: the best gene and
    fitness, and the report's generations, best-fitness history,
    evaluations and cache hits."""

    #: At 20 W some of lenet5's launches stop on patience after 3
    #: generations and others run up to the cap of 6, so launches drop
    #: out of the lock-step at different rounds.
    CONFIG = SynthesisConfig.fast(total_power=20.0, seed=7)

    @staticmethod
    def _tasks(model, config):
        """A jobs=1 wave's chunk: lenet5's first ``WAVE_TASKS_PER_JOB
        - 1`` tasks, then the first one again under a new index, a
        launch sharing its memo context (and RNG label) with an earlier
        launch of the same wave."""
        runner = _TaskRunner(model, config)
        points = list(DesignSpace(model, config).outer_points())
        tasks = []
        for point, candidates in zip(
            points, runner.filter_candidates(points)
        ):
            for wt_dup in candidates or ():
                for res_dac in config.res_dac_choices:
                    tasks.append(EvaluationTask(
                        index=len(tasks), point=point, wt_dup=wt_dup,
                        res_dac=res_dac,
                    ))
        tasks = tasks[:WAVE_TASKS_PER_JOB - 1]
        return tasks + [dataclasses.replace(tasks[0], index=len(tasks))]

    def _serial(self, model, tasks):
        """Each task's solo ``explore()``, one after another on one
        runner (so one memo), as a one-task-per-wave walk runs them."""
        runner = _TaskRunner(model, self.CONFIG)
        runs = []
        for task in tasks:
            explorer = runner.make_explorer(task)
            try:
                partition, _allocation, result = explorer.explore()
            except InfeasibleError:
                found = None
            else:
                found = (partition.gene, result.fitness)
            runs.append((found, explorer.last_report))
        return runs

    @pytest.mark.parametrize(
        "numpy", (True, False), ids=("numpy", "scalar")
    )
    def test_each_launch_returns_its_solo_run(
        self, lenet, without_numpy, numpy
    ):
        from repro.core.macro_partition import explore_together

        tasks = self._tasks(lenet, self.CONFIG)
        with contextlib.ExitStack() as stack:
            if not numpy:
                stack.enter_context(without_numpy())
            serial = self._serial(lenet, tasks)
            explorers, evaluator = _TaskRunner(
                lenet, self.CONFIG
            ).launches(tasks)
            together = explore_together(explorers, evaluator)
            outcomes = _TaskRunner(lenet, self.CONFIG).run_tasks(tasks)
        for explorer, found, outcome, (want, report) in zip(
            explorers, together, outcomes, serial
        ):
            got = None if found is None else (
                found[0], found[1]["fitness"]
            )
            assert got == want
            assert explorer.last_report == report
            assert outcome.feasible == (want is not None)
            assert (outcome.gene, outcome.fitness) == (
                want if want is not None else (None, 0.0)
            )
            assert outcome.ea_evaluations == report.evaluations
            assert outcome.cache_hits == report.cache_hits
        reports = [report for _want, report in serial]
        generations = {report.generations for report in reports}
        assert min(generations) < self.CONFIG.ea_max_generations
        assert len(generations) > 1
        # The repeated task walks as the first one did, and every one
        # of its lookups is a hit, as when it runs after it.
        assert reports[-1].evaluations == 0
        assert reports[-1].cache_hits == (
            reports[0].evaluations + reports[0].cache_hits
        )

    @pytest.mark.parametrize(
        "numpy", (True, False), ids=("numpy", "scalar")
    )
    @pytest.mark.parametrize("name,power", (
        ("lenet5", 20.0), ("alexnet_cifar", 20.0),
        ("vgg16_cifar", 40.0), ("resnet18_cifar", 60.0),
    ))
    def test_outcome_metrics_are_the_winners_oracle_row(
        self, name, power, numpy, without_numpy
    ):
        """A wave's outcomes carry their winners' metrics from one
        batched call, not from per-launch scalar re-scores; each must
        still be ``==`` to the scalar oracle's row of its gene."""
        model = zoo.by_name(name)
        config = SynthesisConfig.fast(total_power=power, seed=7)
        tasks = self._tasks(model, config)
        with contextlib.ExitStack() as stack:
            if not numpy:
                stack.enter_context(without_numpy())
            runner = _TaskRunner(model, config)
            outcomes = runner.run_tasks(tasks)
        feasible = [outcome for outcome in outcomes if outcome.feasible]
        assert feasible
        for outcome in feasible:
            row = runner.make_explorer(tasks[outcome.index]).score_fields(
                outcome.gene
            )
            assert row["feasible"]
            for metric in OUTCOME_METRICS:
                assert getattr(outcome, metric) == row[metric], metric

    def test_a_runners_explorers_share_the_model_context(self, lenet):
        """Every chunk a runner launches scores over its one task grid,
        so the chunks' contexts share the grid's ModelContext arrays by
        identity."""
        if not numpy_available():
            pytest.skip("numpy is not installed")
        first, second = self._tasks(lenet, self.CONFIG)[:2]
        runner = _TaskRunner(lenet, self.CONFIG)
        chunks = [runner.launches([task]) for task in (first, second)]
        a, b = (evaluator.context for _explorers, evaluator in chunks)
        assert a.lat_fraction is not b.lat_fraction
        for name in (
            "comm_producer", "comm_consumer", "lat_producer",
            "out_slots", "levels",
        ):
            assert getattr(a, name) is getattr(b, name), name


class TestSpecBuilds:
    """A launch scored over its chunk's task grid builds no
    DataflowSpec: with numpy only what ships builds one, through the
    scalar oracle's re-score. Without numpy every launch scores
    through its own spec, and the scalar bounds walk builds one per
    task."""

    @pytest.fixture
    def spec_builds(self, monkeypatch):
        """Every DataflowSpec built while the test runs, in order."""
        from repro.ir.builder import DataflowSpec

        builds = []
        real = DataflowSpec.__post_init__

        def counted(spec):
            builds.append(spec)
            real(spec)

        monkeypatch.setattr(DataflowSpec, "__post_init__", counted)
        return builds

    @pytest.mark.parametrize(
        "numpy", (True, False), ids=("numpy", "scalar")
    )
    def test_synthesize_builds_the_shipped_spec(
        self, lenet, spec_builds, without_numpy, numpy
    ):
        if numpy and not numpy_available():
            pytest.skip("numpy is not installed")
        with contextlib.ExitStack() as stack:
            if not numpy:
                stack.enter_context(without_numpy())
            solution, report = _run(lenet, _config())
        assert report.ea_runs > 1
        tasks = report.ea_runs + report.pruned_tasks
        scalar = 0 if numpy else tasks + report.ea_runs
        assert len(spec_builds) == scalar + 1
        assert spec_builds[-1] is solution.spec

    @pytest.mark.parametrize(
        "numpy", (True, False), ids=("numpy", "scalar")
    )
    def test_synthesize_pareto_builds_one_per_front_point(
        self, lenet, spec_builds, without_numpy, numpy
    ):
        if numpy and not numpy_available():
            pytest.skip("numpy is not installed")
        with contextlib.ExitStack() as stack:
            if not numpy:
                stack.enter_context(without_numpy())
            synthesizer = Pimsyn(lenet, _config())
            front = synthesizer.synthesize_pareto()
        report = synthesizer.report
        assert report.ea_runs > 1 and report.nsga_runs > 1
        launches = 0 if numpy else report.ea_runs + report.nsga_runs
        assert len(spec_builds) == launches + len(front.points)
        assert front.solution.spec is spec_builds[launches]


class TestLockstepParetoChunks:
    """``run_pareto_tasks`` lock-steps a chunk's NSGA-II launches. Every
    launch must return what its solo ``run_pareto_tasks([item])``
    returns on a runner that walks the same items one at a time: its
    front's points, evaluations and cache hits."""

    CONFIG = TestLockstepWaves.CONFIG

    def _items(self, model):
        """A full chunk: ``TestLockstepWaves``' tasks (lenet5's first
        ``WAVE_TASKS_PER_JOB - 1`` and a repeat of the first), every
        other one warm-started with its EA winner."""
        tasks = TestLockstepWaves._tasks(model, self.CONFIG)
        outcomes = _TaskRunner(model, self.CONFIG).run_tasks(tasks)
        items = [
            executor_mod.ParetoTaskItem(
                task=task, inject=outcome.gene if k % 2 == 0 else None
            )
            for k, (task, outcome) in enumerate(zip(tasks, outcomes))
        ]
        items[-1] = dataclasses.replace(items[-1], inject=items[0].inject)
        return items

    @pytest.mark.parametrize(
        "numpy", (True, False), ids=("numpy", "scalar")
    )
    def test_each_launch_returns_its_solo_run(
        self, lenet, without_numpy, numpy
    ):
        items = self._items(lenet)
        assert len(items) == WAVE_TASKS_PER_JOB
        assert any(item.inject is not None for item in items)
        with contextlib.ExitStack() as stack:
            if not numpy:
                stack.enter_context(without_numpy())
            walker = _TaskRunner(lenet, self.CONFIG)
            serial = [
                walker.run_pareto_tasks([item])[0] for item in items
            ]
            together = _TaskRunner(lenet, self.CONFIG).run_pareto_tasks(
                items
            )
        assert together == serial
        assert len({len(outcome.points) for outcome in serial}) > 1
        # The repeated task walks as the first one did, and every one
        # of its lookups is a hit, as when it runs after it.
        first, repeat = serial[0], serial[-1]
        assert [p.gene for p in repeat.points] == [
            p.gene for p in first.points
        ]
        assert repeat.evaluations == 0
        assert repeat.cache_hits == first.evaluations + first.cache_hits


class TestPruning:
    def test_pruning_preserves_the_true_optimum(self, lenet):
        """Exhaustive walk vs pruned walk over the same small space."""
        exhaustive, ex_report = _run(lenet, _config(
            prune_dominated=False,
        ))
        pruned, pr_report = _run(lenet, _config())
        assert pr_report.pruned_tasks > 0
        assert pr_report.ea_runs < ex_report.ea_runs
        assert pruned.to_json() == exhaustive.to_json()

    def test_bound_is_an_upper_bound_on_every_ea_outcome(self, lenet):
        """No EA launch may beat its analytical throughput bound."""
        config = _config()
        runner = _TaskRunner(lenet, config)
        space = DesignSpace(lenet, config)
        wt_dup = (1,) * lenet.num_weighted_layers
        checked = 0
        for point in space.outer_points():
            for res_dac in config.res_dac_choices:
                task = EvaluationTask(
                    index=checked, point=point, wt_dup=wt_dup,
                    res_dac=res_dac,
                )
                bound = runner.throughput_bound(task)
                (outcome,) = runner.run_tasks([task])
                if not outcome.feasible:
                    continue
                assert outcome.throughput <= bound
                checked += 1
        assert checked > 0

    def test_bound_zero_when_overhead_exceeds_budget(self, lenet):
        """Specs whose floor overhead overruns the budget bound to 0."""
        config = _config()
        runner = _TaskRunner(lenet, config)
        space = DesignSpace(lenet, config)
        point = next(space.outer_points())
        task = EvaluationTask(
            index=0, point=point,
            wt_dup=(1,) * lenet.num_weighted_layers, res_dac=1,
        )
        explorer = runner.make_explorer(task)
        starved = type(explorer.budget)(
            total_power=explorer.budget.total_power,
            ratio_rram=0.999,  # peripheral share collapses to ~nothing
            xb_size=explorer.budget.xb_size,
            res_rram=explorer.budget.res_rram,
            num_crossbars=explorer.budget.num_crossbars,
        )
        assert throughput_upper_bound(explorer.spec, starved) == 0.0

    def test_archive_disables_pruning(self, lenet):
        from repro.core.archive import DesignArchive

        archive = DesignArchive(capacity=128)
        synthesizer = Pimsyn(lenet, _config(), archive=archive)
        synthesizer.synthesize()
        assert synthesizer.report.pruned_tasks == 0
        # One archive entry per feasible EA outcome.
        assert len(archive) == len(synthesizer.report.best_history)


def _infeasible_score(_explorer, _gene):
    return 0.0, None, None


class TestWinnerRescore:
    """A winner the scalar oracle calls infeasible means the search's
    engine and the oracle diverged: an explicit PimsynError that names
    the gene, its search fitness and the backend — never the
    skipped-task InfeasibleError, and never an assert that ``python -O``
    strips."""

    def test_synthesis_surfaces_the_divergence(self, lenet, monkeypatch):
        monkeypatch.setattr(
            MacroPartitionExplorer, "score", _infeasible_score
        )
        with pytest.raises(PimsynError, match="scalar oracle") as info:
            Pimsyn(lenet, _config()).synthesize()
        assert not isinstance(info.value, InfeasibleError)

    def test_materialized_winner_surfaces_the_divergence(
        self, lenet, monkeypatch
    ):
        config = _config()
        engine = ExplorationEngine(lenet, config, SynthesisReport())
        n = lenet.num_weighted_layers
        task = EvaluationTask(
            index=0, point=next(DesignSpace(lenet, config).outer_points()),
            wt_dup=(1,) * n, res_dac=1,
        )
        gene = encode_gene(range(n), [1] * n)
        monkeypatch.setattr(
            MacroPartitionExplorer, "score", _infeasible_score
        )
        with pytest.raises(PimsynError) as info:
            engine._materialize_gene(task, gene, 123.5)
        assert not isinstance(info.value, InfeasibleError)
        message = str(info.value)
        assert str(gene) in message
        assert "fitness 123.5" in message
        assert f"backend {config.backend!r}" in message


def _bump_one_genes_throughput(monkeypatch, gene):
    """Patch the batched kernel to add one ulp to ``gene``'s throughput
    wherever it scores it. Fitness is its own array, so every search
    walks as it does unpatched."""
    import numpy as np

    from repro.core import batch_eval

    kernel = batch_eval.score_population
    target = np.asarray(gene, dtype=np.int64)

    def bumped(ctx, genes, rows=None):
        scores = kernel(ctx, genes, rows)
        hit = np.all(np.asarray(genes) == target, axis=1)
        scores.throughput = np.where(
            hit, np.nextafter(scores.throughput, np.inf), scores.throughput
        )
        return scores

    monkeypatch.setattr(batch_eval, "score_population", bumped)


class TestShippedDesignCheck:
    """The runtime kernel check sits on the design that ships: its
    scalar re-score must reproduce every metric the search reported."""

    def test_a_one_ulp_divergence_names_the_field(self, lenet, monkeypatch):
        if not numpy_available():
            pytest.skip("the batched kernel needs numpy")
        config = _config()
        shipped = Pimsyn(lenet, config).synthesize()
        _bump_one_genes_throughput(monkeypatch, shipped.partition.gene)
        with pytest.raises(PimsynError, match="throughput") as info:
            Pimsyn(lenet, config).synthesize()
        assert not isinstance(info.value, InfeasibleError)
        assert str(shipped.partition.gene) in str(info.value)

    def test_a_one_ulp_divergence_on_the_front_names_the_field(
        self, lenet, monkeypatch
    ):
        """Pareto mode ships its whole merged front, and each point's
        metrics come from the batched kernel: a one-ulp power bump on
        every feasible gene must be caught when the front ships."""
        if not numpy_available():
            pytest.skip("the batched kernel needs numpy")
        import numpy as np

        from repro.core import batch_eval

        kernel = batch_eval.score_population

        def bumped(ctx, genes, rows=None):
            scores = kernel(ctx, genes, rows)
            scores.power = np.where(
                scores.feasible, np.nextafter(scores.power, np.inf),
                scores.power,
            )
            return scores

        monkeypatch.setattr(batch_eval, "score_population", bumped)
        with pytest.raises(PimsynError, match="scored power") as info:
            Pimsyn(lenet, _config()).synthesize_pareto()
        assert not isinstance(info.value, InfeasibleError)
        assert "scalar oracle" in str(info.value)

    def test_matching_metrics_ship(self, lenet):
        config = _config()
        engine = ExplorationEngine(lenet, config, SynthesisReport())
        solution = engine.run()
        assert solution is not None


def _cold_engine(lenet, **overrides):
    """An exploration engine that has run once, and its solution."""
    engine = ExplorationEngine(lenet, _config(**overrides), SynthesisReport())
    return engine, engine.run()


class TestWarmMemo:
    def test_warm_started_replay_runs_zero_evaluations(self, lenet):
        cold, cold_solution = _cold_engine(lenet)
        snapshot = cold.memo_snapshot()
        assert cold.report.ea_evaluations > 0
        assert len(snapshot) > 0

        warm = Pimsyn(lenet, _config(), warm_memo=snapshot)
        warm_solution = warm.synthesize()
        assert warm_solution.to_json() == cold_solution.to_json()
        assert warm.report.ea_evaluations == 0
        assert warm.report.cache_hits > 0

    def test_memo_entries_survive_json_round_trip(self, lenet):
        import json

        cold, cold_solution = _cold_engine(lenet)
        snapshot = cold.memo_snapshot()
        restored = decode_memo_entries(
            json.loads(json.dumps(encode_memo_entries(snapshot)))
        )
        assert sorted(restored) == sorted(snapshot)
        warm = Pimsyn(lenet, _config(), warm_memo=restored)
        assert warm.synthesize().to_json() == cold_solution.to_json()
        assert warm.report.ea_evaluations == 0

    def test_snapshot_is_the_one_runner_memo(self, lenet):
        """A serial run scores on the engine's own runner, so its
        snapshot holds each scored gene exactly once; a pool run's
        workers keep their memos, so it holds only the warm memo."""
        serial, _ = _cold_engine(lenet)
        snapshot = serial.memo_snapshot()
        assert len(snapshot) == serial.report.ea_evaluations
        parallel, _ = _cold_engine(lenet, jobs=2)
        assert parallel.memo_snapshot() == []
        warm = ExplorationEngine(
            lenet, _config(jobs=2), SynthesisReport(),
            warm_memo=snapshot[:3],
        )
        warm.run()
        assert warm.memo_snapshot() == snapshot[:3]


class TestInterrupt:
    def test_interrupt_raises_cleanly_with_partial_memo(
        self, lenet, monkeypatch
    ):
        from repro.core import executor as executor_mod

        calls = {"n": 0}
        original = executor_mod._TaskRunner.run_tasks

        def interrupting(self, tasks):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return original(self, tasks)

        monkeypatch.setattr(
            executor_mod._TaskRunner, "run_tasks", interrupting
        )
        # pruning off so the walk reaches a second run_tasks call: 24
        # tasks go out in waves of 16, and the first wave finishes
        synthesizer = Pimsyn(lenet, _config(prune_dominated=False))
        with pytest.raises(SynthesisInterrupted) as excinfo:
            synthesizer.synthesize()
        assert synthesizer.report.interrupted
        # the completed tasks' evaluations are carried for persistence
        assert len(excinfo.value.partial_memo) > 0
        assert isinstance(excinfo.value, Exception)

    def test_interrupt_terminates_process_pool(
        self, lenet, monkeypatch
    ):
        from repro.core import executor as executor_mod

        terminated = {"called": False}
        original = executor_mod.ProcessExecutor.terminate

        def tracking(self):
            terminated["called"] = True
            original(self)

        monkeypatch.setattr(
            executor_mod.ProcessExecutor, "terminate", tracking
        )

        def interrupting(_tasks):
            raise KeyboardInterrupt

        synthesizer = Pimsyn(lenet, _config(jobs=2))
        engine = synthesizer._engine()
        monkeypatch.setattr(
            engine, "_evaluate_queue",
            lambda *_a, **_k: interrupting(None),
        )
        with pytest.raises(SynthesisInterrupted):
            engine.run()
        assert terminated["called"]

    def test_second_sigint_during_pool_teardown_is_ignored(
        self, lenet, monkeypatch
    ):
        """``timeout -s INT`` sends a second SIGINT, which can land in
        ``terminate()`` after the first one interrupted the run. The
        teardown ignores SIGINT and SIGTERM, so the run still ends in
        SynthesisInterrupted, and it restores the caller's handlers.
        The handler here records instead of raising, so a signal that
        got through fails an assertion rather than aborting pytest."""
        import os

        received = []

        def recording(signum, _frame):
            received.append(signum)

        original = executor_mod.ProcessExecutor.terminate

        def signalled(self):
            os.kill(os.getpid(), signal.SIGINT)
            original(self)

        monkeypatch.setattr(
            executor_mod.ProcessExecutor, "terminate", signalled
        )
        synthesizer = Pimsyn(lenet, _config(jobs=2))
        engine = synthesizer._engine()

        def interrupting(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(engine, "_evaluate_queue", interrupting)
        previous = signal.signal(signal.SIGINT, recording)
        try:
            with pytest.raises(SynthesisInterrupted):
                engine.run()
            assert signal.getsignal(signal.SIGINT) is recording
        finally:
            signal.signal(signal.SIGINT, previous)
        assert received == []

    def test_pool_workers_die_quietly_on_sigterm(self, lenet, capfd):
        """``terminate()`` sends SIGTERM. A worker must not inherit the
        parent's handler that turns it into a KeyboardInterrupt (the
        CLI installs one), or each worker prints a traceback."""
        previous = signal.signal(signal.SIGTERM, _raise_interrupt)
        try:
            executor = ProcessExecutor(lenet, _config(), jobs=2)
            try:
                assert executor._pool.apply_async(
                    signal.getsignal, (signal.SIGTERM,)
                ).get(timeout=60) == signal.SIG_DFL
                for _ in range(2):
                    executor._pool.apply_async(time.sleep, (30,))
                time.sleep(0.5)  # let both workers pick up a sleep
            finally:
                executor.terminate()
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert "KeyboardInterrupt" not in capfd.readouterr().err


class TestFingerprints:
    def test_model_fingerprint_sensitive_to_content(self, lenet):
        other = lenet5()
        assert model_fingerprint(lenet) == model_fingerprint(other)
        renamed = lenet5()
        renamed.name = "renamed"
        assert model_fingerprint(renamed) != model_fingerprint(lenet)

    def test_params_fingerprint_sensitive_to_content(self):
        a = HardwareParams()
        b = HardwareParams()
        assert params_fingerprint(a) == params_fingerprint(b)

    def test_task_context_key_distinguishes_res_dac(self, lenet):
        config = _config()
        space = DesignSpace(lenet, config)
        point = next(space.outer_points())
        wt_dup = (1,) * lenet.num_weighted_layers
        keys = {
            EvaluationTask(
                index=i, point=point, wt_dup=wt_dup, res_dac=res_dac
            ).context_key("m", "p")
            for i, res_dac in enumerate(config.res_dac_choices)
        }
        assert len(keys) == len(config.res_dac_choices)
