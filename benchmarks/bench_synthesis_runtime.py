"""E9 — §V: synthesis runtime profile.

The paper reports ~4 hours per full synthesis in Python. This bench
times the reduced-space synthesis used throughout the repo and reports
the per-stage telemetry (outer points, SA candidates, EA runs), so the
runtime/search-effort tradeoff is visible. This is also the bench where
pytest-benchmark's statistics are most meaningful, so it runs the real
measurement loop (several rounds) on LeNet-5.

``test_parallel_engine_speedup`` additionally measures the executor
refactor: the exhaustive serial walk (pruning and the shared evaluation
cache disabled — the pre-refactor behavior) against the full engine at
``jobs=4``, asserting the two return byte-identical solutions.

``test_batched_vs_scalar_eval_speedup`` measures the numpy population
evaluator against the gene-at-a-time oracle on the EA hot path and
publishes the speedup into the benchmark JSON (``extra_info``), so CI
bench artifacts track the batching win over time.

``test_grid_walk_vs_per_task_speedup`` measures the tensorized
task-grid walk (plus the O(1) tiling summary it rides on) against the
per-task walk of an interpreter without numpy, with tile
materialization in spec construction, asserting identical solutions
and publishing the cold-synthesis speedup into the bench JSON.

Both baseline arms run inside the ``without_numpy`` fixture: numpy is
the only thing that picks a batched path or its scalar oracle.

``test_batched_backend_speedup`` publishes the numpy kernel's
EA-scoring throughput (genes/sec) and its speedup over the scalar
oracle at the EA's real 16-gene call size on resnet18_cifar into the
bench JSON, so CI artifacts track both over time.
"""

from __future__ import annotations

import random
import time

from repro.analysis import format_table
from repro.core import Pimsyn, SynthesisConfig
from repro.core.dataflow import make_spec
from repro.core.macro_partition import MacroPartitionExplorer, PopulationScorer
from repro.hardware.power import PowerBudget
from repro.nn import lenet5, zoo

from conftest import pimsyn_power_for, synthesize_cached


def run_synthesis():
    config = SynthesisConfig.fast(total_power=2.0, seed=99)
    synthesizer = Pimsyn(lenet5(), config)
    solution = synthesizer.synthesize()
    return synthesizer, solution


def test_synthesis_runtime_lenet(benchmark):
    synthesizer, solution = benchmark(run_synthesis)
    print()
    report = synthesizer.report
    print(format_table(
        ["metric", "value"],
        [
            ("outer design points", report.outer_points),
            ("WtDup candidates tried", report.candidates_tried),
            ("EA runs", report.ea_runs),
            ("wall seconds", round(report.wall_seconds, 3)),
            ("best img/s", round(solution.evaluation.throughput, 1)),
        ],
        title="synthesis telemetry (reduced space; paper's full grid "
              "runs ~4 h)",
    ))
    assert solution.evaluation.throughput > 0


def test_parallel_engine_speedup():
    """The pruned parallel engine vs the exhaustive serial walk.

    Same model, power, seed, and Table I sub-grid; the serial baseline
    disables pruning, reproducing the pre-executor driver that visited
    all 60 (point, WtDup, ResDAC) EA launches. The engine must return a byte-identical solution at >= 2x
    the speed (typically far more: dominated-task pruning alone skips
    ~90% of EA launches; ``jobs`` adds core scaling on multi-core
    hosts).
    """
    grid = dict(
        total_power=2.0, seed=99,
        xb_size_choices=(128, 256), res_dac_choices=(1, 2, 4),
        num_wtdup_candidates=10,
        ea_population_size=16, ea_offspring_per_gen=16,
        ea_max_generations=12, ea_patience=5,
    )

    def run(**overrides):
        synthesizer = Pimsyn(
            lenet5(), SynthesisConfig.fast(**grid, **overrides)
        )
        started = time.perf_counter()
        solution = synthesizer.synthesize()
        return solution, synthesizer.report, time.perf_counter() - started

    serial, serial_report, serial_s = run(jobs=1, prune_dominated=False)
    engine, engine_report, engine_s = run(jobs=4)
    speedup = serial_s / engine_s
    print()
    print(format_table(
        ["mode", "EA runs", "pruned", "cache hits", "seconds"],
        [
            ("serial exhaustive", serial_report.ea_runs, 0, 0,
             round(serial_s, 3)),
            (f"engine jobs={engine_report.jobs}", engine_report.ea_runs,
             engine_report.pruned_tasks, engine_report.cache_hits,
             round(engine_s, 3)),
        ],
        title=f"DSE executor speedup: {speedup:.1f}x "
              "(identical best solution)",
    ))
    assert engine.to_json() == serial.to_json()
    assert engine_report.pruned_tasks > 0
    # Generous floor so a loaded CI box cannot flake; typically >= 3x.
    assert speedup >= 1.5


def test_batched_vs_scalar_eval_speedup(benchmark, without_numpy):
    """Numpy population scoring vs the scalar oracle (the EA hot path).

    A VGG13 stage-3 landscape: 256 rule-valid genes scored once through
    ``PopulationScorer``'s ``fitness`` (what every EA generation now
    runs) and once through the gene-at-a-time ``score`` chain. The batched engine must
    be >= 2x faster — in practice it is far more — while returning
    numerically identical fitness values. Results (plus a full EA-run
    comparison with default Alg. 2 knobs, the scalar run with numpy
    blocked) land in the benchmark JSON's ``extra_info`` as the tracked
    batched-vs-scalar speedup numbers.
    """
    model = zoo.vgg13()
    config = SynthesisConfig(total_power=120.0)
    n = model.num_weighted_layers
    spec = make_spec(
        model, [2] * n, xb_size=128, res_rram=2, res_dac=1,
        params=config.params,
        max_blocks_per_layer=config.max_blocks_per_layer,
    )
    budget = PowerBudget(
        total_power=120.0, ratio_rram=0.3, xb_size=128, res_rram=2,
        num_crossbars=4096,
    )

    def make_explorer():
        return MacroPartitionExplorer(
            spec=spec, budget=budget, res_dac=1, config=config,
            rng=random.Random(5),
        )

    explorer = make_explorer()
    rng = random.Random(1)
    genes = explorer.initial_population(16)
    while len(genes) < 256:
        parent = rng.choice(genes)
        operator = rng.choice(
            [explorer.mutate_num, explorer.mutate_share]
        )
        genes.append(operator(parent, rng))

    started = time.perf_counter()
    scalar_scores = [explorer.score(g)[0] for g in genes]
    scalar_s = time.perf_counter() - started

    scorer = PopulationScorer([explorer])
    batched_scores = benchmark(scorer.fitness, genes, [0] * len(genes))
    batched_s = benchmark.stats.stats.min
    population_speedup = scalar_s / batched_s
    assert batched_scores == scalar_scores

    # Full EA launches (default Alg. 2 knobs), numpy on vs blocked.
    def timed_explore():
        ea = make_explorer()
        started = time.perf_counter()
        _partition, _allocation, result = ea.explore()
        return time.perf_counter() - started, result.throughput

    ea_seconds = {}
    ea_seconds[True], ea_throughput = timed_explore()
    with without_numpy():
        ea_seconds[False], scalar_throughput = timed_explore()
    assert scalar_throughput == ea_throughput
    ea_speedup = ea_seconds[False] / ea_seconds[True]

    benchmark.extra_info["population_size"] = len(genes)
    benchmark.extra_info["scalar_seconds"] = round(scalar_s, 6)
    benchmark.extra_info["batched_seconds"] = round(batched_s, 6)
    benchmark.extra_info["batched_speedup"] = round(
        population_speedup, 2
    )
    benchmark.extra_info["ea_run_speedup"] = round(ea_speedup, 2)
    print()
    print(format_table(
        ["path", "seconds", "speedup"],
        [
            ("scalar score() x 256", round(scalar_s, 4), "1.0x"),
            ("PopulationScorer(256)", round(batched_s, 4),
             f"{population_speedup:.1f}x"),
            ("EA explore() scalar", round(ea_seconds[False], 4), "1.0x"),
            ("EA explore() batched", round(ea_seconds[True], 4),
             f"{ea_speedup:.1f}x"),
        ],
        title=f"batched vs scalar evaluation (VGG13 landscape; EA best "
              f"{ea_throughput:.1f} img/s identical in both modes)",
    ))
    # Generous floor so a loaded CI box cannot flake; typically >= 20x.
    assert population_speedup >= 2.0


def _mutation_walk(model, total_power, num_crossbars, size):
    """A WtDup=2 explorer for ``model`` and ``size`` genes from a
    random mutation walk (the EA's own operators)."""
    config = SynthesisConfig(total_power=total_power)
    n = model.num_weighted_layers
    spec = make_spec(
        model, [2] * n, xb_size=128, res_rram=2, res_dac=1,
        params=config.params,
        max_blocks_per_layer=config.max_blocks_per_layer,
    )
    budget = PowerBudget(
        total_power=total_power, ratio_rram=0.3, xb_size=128,
        res_rram=2, num_crossbars=num_crossbars,
    )
    explorer = MacroPartitionExplorer(
        spec=spec, budget=budget, res_dac=1, config=config,
        rng=random.Random(5),
    )
    rng = random.Random(1)
    genes = explorer.initial_population(16)
    while len(genes) < size:
        parent = rng.choice(genes)
        operator = rng.choice(
            [explorer.mutate_num, explorer.mutate_share]
        )
        genes.append(operator(parent, rng))
    return explorer, genes


def test_batched_backend_speedup(benchmark):
    """numpy EA-scoring throughput, and its speedup over the scalar
    oracle at the EA's real call size.

    The numpy kernel scores one 256-gene VGG13 population through
    ``BatchPerformanceEvaluator`` under pytest-benchmark's loop; its
    wall time and genes/sec land in ``extra_info`` (``numpy_seconds``,
    ``numpy_genes_per_sec``).

    A second row times like work on a residual DAG: 16 genes on
    resnet18_cifar (out-degree 4, in-degree 3), once as one
    ``evaluate_population`` call whose rows are read (``rows()``, every
    :data:`~repro.core.batch_eval.BATCH_FIELDS` field, so the record's
    deferred latency and power pass runs too) and once as 16 scalar
    ``explorer.score`` calls, which compute all of them, the path an
    interpreter without numpy runs. The 256-gene row above times the
    stage pass alone, all an EA generation pays for. Microseconds per
    16-gene call land as ``resnet18_pop16_numpy_us_per_call`` and
    ``resnet18_pop16_scalar_us_per_call``, and numpy's speedup as
    ``resnet18_pop16_numpy_vs_scalar`` (CI gates it at >= 3). The two
    must agree on every field (the cheap end-to-end cross-check; the
    differential suite is the real gate)."""
    explorer, genes = _mutation_walk(zoo.vgg13(), 120.0, 4096, 256)
    evaluator = explorer.batch_evaluator
    evaluator.evaluate_population(genes)  # warm the context
    benchmark(evaluator.evaluate_population, genes)
    numpy_s = benchmark.stats.stats.min
    benchmark.extra_info["population_size"] = len(genes)
    benchmark.extra_info["numpy_seconds"] = round(numpy_s, 6)
    benchmark.extra_info["numpy_genes_per_sec"] = round(
        len(genes) / numpy_s, 1
    )

    # The EA's real call: the last 16 genes of a walk, so sharing
    # pairs are in; all of them are feasible at this budget.
    explorer, walk = _mutation_walk(zoo.resnet18_cifar(), 60.0, 8192, 64)
    dag_genes = walk[-16:]
    evaluator = explorer.batch_evaluator
    batch = evaluator.evaluate_population(dag_genes)
    assert all(batch.feasible)
    for k, gene in enumerate(dag_genes):
        for name, want in explorer.score_fields(gene).items():
            assert getattr(batch, name)[k] == want, (k, name)

    def per_call_us(call):
        passes = []
        for _ in range(3):
            started = time.perf_counter()
            for _ in range(10):
                call()
            passes.append((time.perf_counter() - started) / 10)
        return 1e6 * min(passes)

    us_per_call = {
        "numpy": per_call_us(
            lambda: evaluator.evaluate_population(dag_genes).rows()
        ),
        "scalar": per_call_us(
            lambda: [explorer.score(gene) for gene in dag_genes]
        ),
    }
    for name, spent in us_per_call.items():
        key = f"resnet18_pop16_{name}_us_per_call"
        benchmark.extra_info[key] = round(spent, 1)
    dag_speedup = us_per_call["scalar"] / us_per_call["numpy"]
    benchmark.extra_info["resnet18_pop16_numpy_vs_scalar"] = round(
        dag_speedup, 2
    )
    print()
    print(format_table(
        ["path", "us/call"],
        [
            ("numpy VGG13 x 256 genes", f"{1e6 * numpy_s:,.0f}"),
            ("numpy resnet18_cifar x 16", f"{us_per_call['numpy']:,.0f}"),
            ("scalar resnet18_cifar x 16",
             f"{us_per_call['scalar']:,.0f}"),
        ],
        title=f"EA population scoring (resnet18_cifar numpy vs scalar: "
              f"{dag_speedup:.1f}x)",
    ))
    assert numpy_s > 0


def test_grid_walk_vs_per_task_speedup(benchmark, without_numpy):
    """Cold synthesis: tensorized task grid vs the per-task walk.

    Baseline arm = the per-task walk: numpy blocked, so the executor
    walks tasks one at a time (as do the SA filter and the EA, on their
    scalar oracles), and spec construction re-materializes every
    crossbar tile (``map_layer_weights``, which the O(1) tiling summary
    replaced) — the two costs the grid walk removes. Both arms run the
    same queue-heavy VGG16-CIFAR configuration (full fast outer grids,
    trimmed SA/EA effort so the *outer walk* dominates the wall clock
    rather than search costs) and must return byte-identical solutions
    with identical pruning telemetry.

    The measured speedup lands in ``extra_info`` for the CI bench
    artifact, which gates on the >= 5x acceptance line; the in-test
    floor is looser so a loaded box cannot flake (typically ~6x).
    """
    import repro.ir.builder as builder
    from repro.hardware.crossbar import map_layer_weights

    model = zoo.by_name("vgg16_cifar")
    grid = dict(
        total_power=50.0, seed=7,
        ratio_rram_choices=(0.1, 0.2, 0.3, 0.4),
        xb_size_choices=(128, 256, 512),
        res_dac_choices=(1, 2, 4),
        sa_steps_per_temp=8,
        ea_population_size=6, ea_offspring_per_gen=6,
        ea_max_generations=3, ea_patience=2,
    )

    def run(**overrides):
        synthesizer = Pimsyn(
            model, SynthesisConfig.fast(**grid, **overrides)
        )
        return synthesizer.synthesize(), synthesizer.report

    original_summary = builder.crossbar_tiling_summary
    builder.crossbar_tiling_summary = map_layer_weights
    try:
        with without_numpy():
            started = time.perf_counter()
            baseline, baseline_report = run()
            baseline_s = time.perf_counter() - started
    finally:
        builder.crossbar_tiling_summary = original_summary

    solution, report = benchmark.pedantic(run, rounds=1, iterations=1)
    grid_s = benchmark.stats.stats.min
    speedup = baseline_s / grid_s

    assert solution.to_json() == baseline.to_json()
    assert report.pruned_tasks == baseline_report.pruned_tasks
    assert report.ea_runs == baseline_report.ea_runs
    assert report.pruned_tasks > 0

    benchmark.extra_info["model"] = model.name
    benchmark.extra_info["tasks_pruned"] = report.pruned_tasks
    benchmark.extra_info["ea_runs"] = report.ea_runs
    benchmark.extra_info["per_task_seconds"] = round(baseline_s, 4)
    benchmark.extra_info["grid_walk_seconds"] = round(grid_s, 4)
    benchmark.extra_info["grid_walk_speedup"] = round(speedup, 2)
    print()
    print(format_table(
        ["mode", "EA runs", "pruned", "seconds", "speedup"],
        [
            ("per-task walk (no numpy)", baseline_report.ea_runs,
             baseline_report.pruned_tasks, round(baseline_s, 3),
             "1.0x"),
            ("tensorized grid walk", report.ea_runs,
             report.pruned_tasks, round(grid_s, 3),
             f"{speedup:.1f}x"),
        ],
        title=f"outer-walk tensorization ({model.name}; identical "
              "best solution)",
    ))
    # Generous floor so a loaded CI box cannot flake; typically >= 5x
    # (the CI artifact check enforces the 5x acceptance line).
    assert speedup >= 3.0


def test_synthesis_runtime_vgg16(benchmark, models):
    """One-shot timing of the reduced-space VGG16 synthesis."""
    model = models["vgg16"]
    power = pimsyn_power_for(model, margin=2.0)
    solution = benchmark.pedantic(
        lambda: synthesize_cached(model, power),
        rounds=1, iterations=1,
    )
    print()
    print(f"VGG16 @ {power:.0f} W -> "
          f"{solution.evaluation.throughput:.0f} img/s, "
          f"{solution.evaluation.tops_per_watt:.3f} TOPS/W")
    assert solution.evaluation.throughput > 0
