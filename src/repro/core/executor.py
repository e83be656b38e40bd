"""Parallel, cached execution engine for the Alg. 1 design-space walk.

The multi-loop DSE of :mod:`repro.core.synthesizer` is embarrassingly
parallel once flattened: every ``(outer point, WtDup, ResDAC)`` triple is
an independent EA launch whose outcome depends only on the model, the
config, and the master seed (all RNGs are label-derived, never shared).
This module turns the nested loops into that flat work queue and runs it
through a pluggable executor:

- :class:`SerialExecutor` evaluates tasks in-process (``jobs=1``) on
  the engine's own :class:`_TaskRunner`;
- :class:`ProcessExecutor` fans them out over a ``multiprocessing`` pool
  (``jobs>1``), each worker holding its own :class:`_TaskRunner`.

Seven properties make the engine safe to parallelize and to accelerate:

1. **Determinism** — task RNGs are spawned from the master seed by a
   content label, so a task's outcome is identical no matter which
   worker runs it or in which order. The winner is selected by
   ``(max fitness, min task index)``, an order-free rule.
2. **Sound pruning** — before a task's EA launches, its analytical
   throughput upper bound (:func:`repro.core.evaluator.
   throughput_upper_bound`) is compared against the incumbent; tasks
   that provably cannot win are skipped. Tasks are evaluated in
   descending-bound order so a strong incumbent appears early. The
   check runs when a wave is assembled (property 7), against the
   incumbent of the waves before it, so even at ``jobs=1`` a wave may
   launch a task that a one-at-a-time walk would prune. A pruned task
   still cannot win, so the winner does not depend on the wave size.
3. **Content-keyed memoization** — each :class:`_TaskRunner` keeps one
   dict of EA fitness values (and NSGA-II vectors) under ``(model,
   hardware params, design point, gene)`` fingerprints, which the
   engines consult before scoring. An interrupted synthesis hands the
   in-process memo to its caller (:class:`repro.errors.
   SynthesisInterrupted`), and a run pre-filled with it (``warm_memo``)
   replays the finished tasks without re-running component allocation.
4. **Batched population scoring** — EA and NSGA-II launches score
   whole generations through one scorer
   (:class:`repro.core.macro_partition.PopulationScorer`): the batched
   engine of :mod:`repro.core.batch_eval` over their chunk's stacked
   context (property 5) when numpy imports, one gene at a time
   through the scalar oracle without it. The two are bit-identical,
   so whether numpy imports never enters a content key; serial and
   multiprocessing paths both benefit because the batching happens
   inside the worker-side runner.
5. **One task grid** — when numpy imports, each runner keeps one
   :class:`~repro.core.grid_eval.GridBoundEvaluator`. The local
   runner's grid computes the pruning bounds of property 2 for the *whole*
   queue in one ``(tasks, layers)`` pass; without numpy they come
   through one spec per task. The two are bit-identical, so the
   pruning walk — one dispatch-time check per task against the
   incumbent — makes the same decisions on either. Each chunk's
   launches get their stacked population context and rule-c caps from
   one more pass over the chunk's grid (:meth:`_TaskRunner.launches`),
   so a launch builds no spec and no scalar evaluator.
6. **Lock-stepped stage 1** — one loop steps the SA filter chains of
   many outer points as moves off their round's entry states, with one
   Eq. 4 ``batch_energy`` call per round for all of them
   (:func:`repro.core.weight_duplication.lockstep_candidates`). The
   points are cut into at most ``jobs`` contiguous chunks, one
   :meth:`_TaskRunner.filter_candidates` call each, through the
   executor's one ``imap``, which property 7's waves go through too.
   Every chain keeps its ``sa:{point}`` RNG and its own walk, the one
   the reference :class:`repro.optim.annealing.SimulatedAnnealer`
   takes over the filter's ``energy`` and ``neighbor``, so candidate
   lists do not depend on the chunking.
7. **Lock-stepped EA waves** — the queue goes out in waves of ``jobs
   * WAVE_TASKS_PER_JOB`` (16) non-dominated tasks, cut into at most
   ``jobs`` contiguous chunks, one :meth:`_TaskRunner.run_tasks` call
   each. A chunk's launches run in lock-step
   (:func:`repro.core.macro_partition.explore_together`): one scoring
   call per generation for all of them, over the chunk's one context
   when numpy imports, and one more for all their winners, whose
   metrics the outcomes carry. Every launch keeps its ``ea:{...}``
   RNG, memo keys and counts, so its outcome does not depend on the
   chunking. Pareto mode's NSGA-II phase sends its tasks the same way,
   in chunks of ``WAVE_TASKS_PER_JOB`` consecutive tasks, one
   :meth:`_TaskRunner.run_pareto_tasks` call each. Only what ships is
   re-scored through the scalar oracle
   (:meth:`ExplorationEngine._materialize_gene`), and with numpy only
   it builds a :class:`~repro.ir.builder.DataflowSpec`: the winning
   design, or every point of the merged front, and each metric must
   match what its worker reported.

Every future scaling direction (sharding the queue across hosts, async
backends, multi-accelerator evaluation) plugs in behind the same
executor protocol.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, fields
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.archive import DesignArchive
    from repro.core.synthesizer import SynthesisReport

from repro.core.backend import numpy_available
from repro.core.batch_eval import BatchPerformanceEvaluator
from repro.core.config import SynthesisConfig, objective_vector
from repro.core.dataflow import make_spec
from repro.core.design_space import DesignPoint, DesignSpace
from repro.core.evaluator import throughput_upper_bound
from repro.core.grid_eval import GridBoundEvaluator
from repro.core.macro_partition import (
    MacroPartition,
    MacroPartitionExplorer,
    PopulationScorer,
    explore_together,
)
from repro.core.pareto import ParetoPoint, ParetoSolutionSet, merge_fronts
from repro.core.solution import SynthesisSolution
from repro.core.weight_duplication import (
    WeightDuplicationFilter,
    lockstep_candidates,
)
from repro.errors import InfeasibleError, SynthesisInterrupted
from repro.hardware.params import HardwareParams
from repro.hardware.tech import DEFAULT_TECHNOLOGY
from repro.hardware.power import PowerBudget
from repro.ir.builder import DataflowSpec
from repro.nn.model import CNNModel
from repro.optim.evolution import evolve_together
from repro.utils.rng import SeedSequence

ProgressCallback = Callable[[str], None]
CandidatesOfPoint = Callable[[DesignPoint], Sequence[Tuple[int, ...]]]


# ----------------------------------------------------------------------
# Content fingerprints (cache keys must survive process boundaries)
# ----------------------------------------------------------------------
def model_fingerprint(model: CNNModel) -> str:
    """Stable digest of everything that affects an evaluation's result."""
    text = "|".join((
        model.name,
        repr(model.input_shape),
        str(model.act_precision),
        str(model.weight_precision),
        repr(model.layers),
    ))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def params_fingerprint(params: HardwareParams) -> str:
    """Stable digest of the hardware setup parameters.

    The ``technology`` provenance stamp is skipped when it names the
    default profile: every pre-profile artifact (eval memos, serve
    store entries) was keyed without it, and the default profile is
    byte-identical to the historical constants — so ``reram`` keys
    stay valid. Any *other* technology name is digested, which keeps
    two same-constants profiles (e.g. a registered copy of ``reram``
    under a new name) from ever sharing cache entries.
    """
    text = "|".join(
        f"{f.name}={getattr(params, f.name)!r}"
        for f in fields(params)
        if not (f.name == "technology"
                and getattr(params, f.name) == DEFAULT_TECHNOLOGY)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: Config fields that steer *how* the DSE runs, never *what* it returns
#: (serial and parallel runs are identical by contract and pruning is
#: sound). They are excluded from content keys so a request replayed
#: with different execution knobs still maps to the same stored result.
#: The array engine of the batched DSE paths and the cycle simulator's
#: event wheel are not fields at all: what imports picks them, and
#: ``SynthesisConfig.backend`` / ``SynthesisConfig.sim_engine`` only
#: report them. Nor is the evaluation memo: every task runner keeps
#: one.
#: ``sa_proposal_batch`` is deliberately *not* here: rounds larger than
#: one change the SA walk (see :class:`repro.optim.annealing.
#: SimulatedAnnealer`), so it is result content.
EXECUTION_ONLY_FIELDS = frozenset({"jobs", "prune_dominated"})


def config_fingerprint(config: SynthesisConfig) -> str:
    """Stable digest of every config field that can change the result.

    Hardware parameters are excluded here — combine with
    :func:`params_fingerprint` (the serve layer's job keys do exactly
    that), keeping the keying scheme identical to the executor memo's.
    """
    text = "|".join(
        f"{f.name}={getattr(config, f.name)!r}"
        for f in fields(config)
        if f.name not in EXECUTION_ONLY_FIELDS and f.name != "params"
        # The default technology is skipped for key stability (it is
        # byte-identical to the pre-profile constants; see
        # params_fingerprint) — any other profile name is result
        # content and is digested.
        and not (f.name == "tech"
                 and getattr(config, f.name) == DEFAULT_TECHNOLOGY)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Memo persistence (cache entries must survive a JSON round trip)
# ----------------------------------------------------------------------
def _encode_term(value):
    """Tuple-of-scalars -> JSON-safe nested lists (recursively)."""
    if isinstance(value, tuple):
        return [_encode_term(v) for v in value]
    return value


def _decode_term(value):
    """Inverse of :func:`_encode_term` — lists back to hashable tuples."""
    if isinstance(value, list):
        return tuple(_decode_term(v) for v in value)
    return value


def encode_memo_entries(
    entries: Iterable[Tuple[Hashable, float]]
) -> List[List]:
    """Serialize memo ``(key, value)`` pairs for JSON storage.

    Values are scalar fitness floats (the EA memo) or objective-vector
    tuples (the pareto memo); both survive the JSON round trip.
    """
    return [
        [_encode_term(key), _encode_term(value)]
        for key, value in entries
    ]


def decode_memo_entries(
    payload: Iterable[Sequence],
) -> List[Tuple[Hashable, float]]:
    """Parse entries written by :func:`encode_memo_entries`."""
    entries = []
    for raw_key, raw_value in payload:
        value = _decode_term(raw_value)
        if isinstance(value, tuple):
            value = tuple(float(v) for v in value)
        else:
            value = float(value)
        entries.append((_decode_term(raw_key), value))
    return entries


# ----------------------------------------------------------------------
# The flat work queue
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvaluationTask:
    """One EA launch: an outer design point x WtDup vector x ResDAC.

    ``index`` is the task's position in Alg. 1's original loop
    enumeration; it is the deterministic tie-breaker for equal-fitness
    winners and keys every aggregation, so evaluation order is free.
    """

    index: int
    point: DesignPoint
    wt_dup: Tuple[int, ...]
    res_dac: int

    @property
    def seed_label(self) -> str:
        """RNG label — identical to the serial driver's historic label."""
        return f"ea:{self.point.describe()}:{self.wt_dup}:{self.res_dac}"

    @property
    def pareto_seed_label(self) -> str:
        """RNG label of this task's NSGA-II launch (pareto mode) —
        disjoint from the EA's so both searches stay independent and
        order-free."""
        return (
            f"nsga:{self.point.describe()}:{self.wt_dup}:{self.res_dac}"
        )

    def context_key(self, model_key: str, params_key: str) -> Hashable:
        """Cache context identifying this task's evaluation function."""
        return (
            model_key, params_key,
            self.point.ratio_rram, self.point.res_rram,
            self.point.xb_size, self.point.num_crossbars,
            self.wt_dup, self.res_dac,
        )


@dataclass(frozen=True)
class ParetoTaskItem:
    """One NSGA-II launch: a task and an optional warm-start gene (the
    task's scalar-EA winner, when phase 1 found one) injected into the
    initial population so the front always contains a point at least
    as good in the first objective as the single-objective result."""

    task: EvaluationTask
    inject: Optional[Tuple[int, ...]] = None


@dataclass
class ParetoTaskOutcome:
    """A worker's report for one NSGA-II launch (IPC-small scalars)."""

    index: int
    points: List[ParetoPoint] = dc_field(default_factory=list)
    evaluations: int = 0
    cache_hits: int = 0


@dataclass
class TaskOutcome:
    """What a worker reports back for one task (kept IPC-small).

    The metrics are the winning gene's fields as the search's engine
    scored them. The incumbent's gene is re-scored in the parent to
    materialize the full :class:`SynthesisSolution`, and that scalar
    re-score must give the same metrics; losers only ever ship these
    scalars.
    """

    index: int
    feasible: bool = False
    fitness: float = 0.0
    gene: Optional[Tuple[int, ...]] = None
    throughput: float = 0.0
    power: float = 0.0
    tops_per_watt: float = 0.0
    latency: float = 0.0
    num_macros: int = 0
    ea_evaluations: int = 0  # memo misses: fitness calls actually run
    cache_hits: int = 0


#: The winner fields a :class:`TaskOutcome` carries.
OUTCOME_METRICS = (
    "fitness", "throughput", "power", "tops_per_watt", "latency",
    "num_macros",
)

#: Tasks per worker in one wave of the EA queue (module docstring,
#: properties 2 and 7). A chunk's launches share each generation's
#: scoring call, most of whose cost is fixed, so a wider chunk makes
#: fewer calls; but a wider wave also launches tasks that an earlier
#: wave's incumbent would have pruned.
WAVE_TASKS_PER_JOB = 16


def _dominated(bound: float, index: int, incumbent: TaskOutcome) -> bool:
    """The dispatch-time pruning rule: a task whose analytical ``bound``
    falls short of the incumbent's fitness, or ties it from a larger
    task ``index`` (ties resolve to the smaller index), cannot win."""
    return bound < incumbent.fitness or (
        bound == incumbent.fitness and index > incumbent.index
    )


# ----------------------------------------------------------------------
# Task evaluation (runs in the parent or in pool workers)
# ----------------------------------------------------------------------
class _TaskRunner:
    """Evaluates stage 1 and EA tasks for one (model, config) pair.

    Each worker process owns one runner, and so does the exploration
    engine (serial runs and winner re-scoring). Stage 1 takes a list of
    outer points and lock-steps their SA chains
    (:meth:`filter_candidates`). Its ``cache`` dict is
    the evaluation memo of every task it handles, pre-filled from
    ``warm_memo`` when a synthesis resumes, and its one task grid
    (:attr:`grid_evaluator`) builds the contexts its EA and NSGA-II
    chunks score through.
    """

    def __init__(
        self,
        model: CNNModel,
        config: SynthesisConfig,
        warm_memo: Optional[
            Sequence[Tuple[Hashable, float]]
        ] = None,
    ) -> None:
        self.model = model
        self.config = config
        self.seeds = SeedSequence(config.seed)
        self.cache: Dict[Hashable, object] = dict(warm_memo or ())
        self._model_key = model_fingerprint(model)
        self._params_key = params_fingerprint(config.params)
        self._grid: Optional[GridBoundEvaluator] = None

    @property
    def grid_evaluator(self) -> GridBoundEvaluator:
        """The runner's one task grid, built on first use (it needs
        numpy): the engine's pruning bounds and every chunk's
        population context come from it."""
        if self._grid is None:
            self._grid = GridBoundEvaluator(self.model, self.config)
        return self._grid

    def filter_candidates(
        self, points: Sequence[DesignPoint]
    ) -> List[Optional[List[Tuple[int, ...]]]]:
        """Stage 1 (Alg. 1 line 6) for ``points``, in point order: each
        point's WtDup candidates, or None when it is infeasible. The
        feasible points' SA chains run in lock-step
        (:func:`repro.core.weight_duplication.lockstep_candidates`),
        each under its own ``sa:{point}`` RNG, so a point's list does
        not depend on which other points share the call."""
        lists: List[Optional[List[Tuple[int, ...]]]] = [None] * len(points)
        chains, positions = [], []
        for position, point in enumerate(points):
            try:
                filter_ = WeightDuplicationFilter(
                    model=self.model,
                    xb_size=point.xb_size,
                    res_rram=point.res_rram,
                    num_crossbars=point.num_crossbars,
                    config=self.config,
                )
            except InfeasibleError:
                continue
            chains.append(
                (filter_, self.seeds.spawn(f"sa:{point.describe()}"))
            )
            positions.append(position)
        for position, found in zip(positions, lockstep_candidates(chains)):
            lists[position] = found
        return lists

    def spec_of(self, task: EvaluationTask) -> DataflowSpec:
        """The stage-2 spec a task evaluates under."""
        return make_spec(
            self.model, task.wt_dup,
            xb_size=task.point.xb_size,
            res_rram=task.point.res_rram,
            res_dac=task.res_dac,
            params=self.config.params,
            max_blocks_per_layer=self.config.max_blocks_per_layer,
        )

    def budget_of(self, task: EvaluationTask) -> PowerBudget:
        """The Eq. 3 budget a task evaluates under."""
        return PowerBudget(
            total_power=self.config.total_power,
            ratio_rram=task.point.ratio_rram,
            xb_size=task.point.xb_size,
            res_rram=task.point.res_rram,
            num_crossbars=task.point.num_crossbars,
        )

    def make_explorer(
        self, task: EvaluationTask, caps: Optional[Sequence[int]] = None
    ) -> MacroPartitionExplorer:
        """Build the stage-3 explorer for a task (shared by run/score).

        Its spec is built the first time the scalar oracle needs it,
        and right away when ``caps``, the task's rule-c caps, are not
        given (:meth:`launches` gives them).
        """
        return MacroPartitionExplorer(
            spec=partial(self.spec_of, task), budget=self.budget_of(task),
            res_dac=task.res_dac, config=self.config,
            rng=self.seeds.spawn(task.seed_label),
            cache=self.cache,
            cache_context=task.context_key(
                self._model_key, self._params_key
            ),
            caps=caps,
        )

    def launches(
        self, tasks: Sequence[EvaluationTask]
    ) -> Tuple[
        List[MacroPartitionExplorer], Optional[BatchPerformanceEvaluator]
    ]:
        """The explorers of a chunk's lock-stepped launches, in task
        order, and the batched evaluator that scores them, whose
        context row ``k`` is ``tasks[k]``'s.

        When numpy imports, one pass over the chunk's task grid
        (:meth:`~repro.core.grid_eval.GridBoundEvaluator.
        population_context`) gives the stacked context and every
        launch's rule-c caps, so no launch builds a spec or a scalar
        evaluator. Without numpy each explorer builds its spec, and
        the evaluator is None: the launches score through the scalar
        oracle.
        """
        if not numpy_available():
            return [self.make_explorer(task) for task in tasks], None
        grid = self.grid_evaluator.build_grid(tasks)
        explorers = [
            self.make_explorer(task, caps=caps)
            for task, caps in zip(tasks, grid.group_cap.tolist())
        ]
        return explorers, BatchPerformanceEvaluator.over(
            self.grid_evaluator.population_context(grid)
        )

    def run_pareto_tasks(
        self, items: Sequence[ParetoTaskItem]
    ) -> List[ParetoTaskOutcome]:
        """Run the NSGA-II launches of ``items`` in lock-step under one
        :func:`repro.optim.evolution.evolve_together`; each launch's
        local front, in order.

        Each launch keeps its ``nsga:{...}`` RNG, its warm-start gene,
        initial population and report, and its keys in the runner's
        evaluation memo (pareto-specific: the objective set joins the
        context, so scalar fitness floats and vector tuples never
        collide), so its outcome does not depend on which items share
        the call. Each round scores every launch's memo misses with
        one :class:`~repro.core.macro_partition.PopulationScorer` call,
        and one more call gives every front point its metrics.
        """
        from repro.optim.nsga import NSGA2Engine

        objectives = tuple(self.config.objectives)
        explorers, evaluator = self.launches([item.task for item in items])
        engines, populations = [], []
        for item, explorer in zip(items, explorers):
            context = item.task.context_key(
                self._model_key, self._params_key
            )
            engines.append(NSGA2Engine(
                score=None,
                mutations=[explorer.mutate_num, explorer.mutate_share],
                gene_key=lambda gene: gene,
                rng=self.seeds.spawn(item.task.pareto_seed_label),
                population_size=self.config.ea_population_size,
                offspring_per_gen=self.config.ea_offspring_per_gen,
                max_generations=self.config.ea_max_generations,
                cache=self.cache,
                cache_key=lambda gene, context=context: (
                    "pareto", objectives, context, gene
                ),
            ))
            population = explorer.initial_population(
                self.config.ea_population_size
            )
            if item.inject is not None:
                population = [tuple(item.inject)] + population
            populations.append(population)
        scorer = PopulationScorer(explorers, evaluator)
        fronts = evolve_together(
            engines, populations,
            lambda genes, lanes: [
                objective_vector(row, objectives)
                for row in scorer.rows(genes, lanes)
            ],
        )

        outcomes = [
            ParetoTaskOutcome(
                index=item.task.index,
                evaluations=engine.report.evaluations,
                cache_hits=engine.report.cache_hits,
            )
            for item, engine in zip(items, engines)
        ]
        # Finite vectors only: the all -inf sentinel is infeasible.
        picks = [
            (lane, gene)
            for lane, front in enumerate(fronts)
            for gene, vector in front
            if not any(math.isinf(value) for value in vector)
        ]
        if picks:
            rows = scorer.rows(
                [gene for _, gene in picks], [lane for lane, _ in picks]
            )
            for (lane, gene), row in zip(picks, rows):
                task = items[lane].task
                outcomes[lane].points.append(ParetoPoint(
                    ratio_rram=task.point.ratio_rram,
                    res_rram=task.point.res_rram,
                    xb_size=task.point.xb_size,
                    res_dac=task.res_dac,
                    num_crossbars=task.point.num_crossbars,
                    wt_dup=task.wt_dup,
                    gene=tuple(gene),
                    throughput=row["throughput"],
                    power=row["power"],
                    tops_per_watt=row["tops_per_watt"],
                    latency=row["latency"],
                    energy_per_image=row["energy_per_image"],
                    num_macros=row["num_macros"],
                    task_index=task.index,
                ))
        return outcomes

    def throughput_bound(self, task: EvaluationTask) -> float:
        """Analytical upper bound used for dominated-task pruning."""
        return throughput_upper_bound(
            self.spec_of(task), self.budget_of(task),
            enable_macro_sharing=self.config.enable_macro_sharing,
        )

    def run_tasks(
        self, tasks: Sequence[EvaluationTask]
    ) -> List[TaskOutcome]:
        """Run the EA launches of ``tasks`` in lock-step
        (:func:`repro.core.macro_partition.explore_together`); one
        outcome per task, in order. Never raises for infeasibility.

        Each launch keeps its ``ea:{...}`` RNG, memo keys and counts,
        so its outcome does not depend on which tasks share the call.
        Its metrics are its winner's fields from the chunk's one
        winner-scoring call.
        """
        explorers, evaluator = self.launches(tasks)
        outcomes = []
        for task, explorer, found in zip(
            tasks, explorers, explore_together(explorers, evaluator)
        ):
            outcome = TaskOutcome(
                index=task.index,
                ea_evaluations=explorer.last_report.evaluations,
                cache_hits=explorer.last_report.cache_hits,
            )
            if found is not None:
                gene, row = found
                outcome.feasible = True
                outcome.gene = gene
                for name in OUTCOME_METRICS:
                    setattr(outcome, name, row[name])
            outcomes.append(outcome)
        return outcomes


def _chunks(items: Sequence, count: int) -> List[Sequence]:
    """``items`` cut into at most ``count`` contiguous, non-empty
    chunks whose sizes differ by at most one, in order."""
    size, extra = divmod(len(items), count)
    chunks, start = [], 0
    for chunk in range(count):
        stop = start + size + (chunk < extra)
        if stop > start:
            chunks.append(items[start:stop])
        start = stop
    return chunks


# ----------------------------------------------------------------------
# Pluggable executors
# ----------------------------------------------------------------------
class SerialExecutor:
    """In-process task evaluation (``jobs=1``) on one runner."""

    jobs = 1

    def __init__(self, runner: _TaskRunner) -> None:
        self.runner = runner

    def imap(self, method: str, items: Iterable) -> Iterator:
        """The runner's ``method`` applied to each item, in order."""
        return map(getattr(self.runner, method), items)

    def terminate(self) -> None:
        pass

    def close(self) -> None:
        pass


_WORKER_RUNNER: Optional[_TaskRunner] = None


def _worker_init(
    model: CNNModel,
    config: SynthesisConfig,
    warm_memo: Optional[Sequence[Tuple[Hashable, float]]] = None,
) -> None:
    # Ctrl-C is the parent's business: it terminates the pool and
    # persists the partial memo. Workers ignoring SIGINT is what keeps
    # an interrupt from spraying one KeyboardInterrupt traceback per
    # worker over the clean shutdown message. SIGTERM, which that
    # terminate() sends, must kill a worker quietly, so a handler
    # inherited from the parent (the CLI raises KeyboardInterrupt on
    # it) is reset too.
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    global _WORKER_RUNNER
    _WORKER_RUNNER = _TaskRunner(model, config, warm_memo=warm_memo)


def _worker_call(method: str, item):
    """A pool worker's one entry point: its runner's ``method`` on
    ``item``."""
    return getattr(_WORKER_RUNNER, method)(item)


class ProcessExecutor:
    """``multiprocessing.Pool`` fan-out (``jobs>1``).

    Workers are primed once with (model, config) through the pool
    initializer; tasks cross the process boundary as small frozen
    dataclasses and come back as :class:`TaskOutcome` scalars, so IPC
    stays negligible next to an EA launch. Results are consumed with
    ``imap`` in submission order, preserving deterministic aggregation.
    """

    def __init__(
        self,
        model: CNNModel,
        config: SynthesisConfig,
        jobs: int,
        warm_memo: Optional[
            Sequence[Tuple[Hashable, float]]
        ] = None,
    ) -> None:
        import multiprocessing

        self.jobs = jobs
        self._terminated = False
        self._pool = multiprocessing.Pool(
            processes=jobs,
            initializer=_worker_init,
            initargs=(model, config, warm_memo),
        )

    def imap(self, method: str, items: Iterable) -> Iterator:
        """The workers' runner ``method`` applied to each item, results
        in submission order."""
        return self._pool.imap(partial(_worker_call, method), items)

    def terminate(self) -> None:
        """Stop workers immediately (Ctrl-C path) — no zombie processes."""
        if not self._terminated:
            self._terminated = True
            self._pool.terminate()
            self._pool.join()

    def close(self) -> None:
        if not self._terminated:
            self._pool.close()
            self._pool.join()


@contextmanager
def _signals_ignored() -> Iterator[None]:
    """Ignore SIGINT and SIGTERM for the block, then restore the
    previous handlers. Pool teardown runs under it: ``timeout -s INT``
    sends a second SIGINT, which must not interrupt ``terminate()``
    half way. Handlers can only be set on the main thread, so other
    threads run the block unchanged."""
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        yield
        return
    names = (signal.SIGINT, signal.SIGTERM)
    previous = [signal.signal(name, signal.SIG_IGN) for name in names]
    try:
        yield
    finally:
        for name, handler in zip(names, previous):
            if handler is not None:  # None: not set from Python
                signal.signal(name, handler)


# ----------------------------------------------------------------------
# The exploration engine (Alg. 1, flattened)
# ----------------------------------------------------------------------
class ExplorationEngine:
    """Drives the flat task queue: enumerate, bound, prune, evaluate.

    Owns everything between :class:`DesignSpace` enumeration and the
    winning :class:`SynthesisSolution`; :class:`repro.core.synthesizer.
    Pimsyn` is a thin façade over it. Telemetry lands in the caller's
    :class:`SynthesisReport`.
    """

    def __init__(
        self,
        model: CNNModel,
        config: SynthesisConfig,
        report: "SynthesisReport",
        progress: Optional[ProgressCallback] = None,
        archive: Optional["DesignArchive"] = None,
        warm_memo: Optional[
            Sequence[Tuple[Hashable, float]]
        ] = None,
    ) -> None:
        self.model = model
        self.config = config
        self.report = report
        self.progress = progress
        self.archive = archive
        self._warm_memo = list(warm_memo) if warm_memo else None
        self._local_runner = _TaskRunner(
            model, config, warm_memo=self._warm_memo
        )

    def _log(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def _make_executor(self):
        jobs = self.config.resolved_jobs
        self.report.jobs = jobs
        if jobs <= 1:
            return SerialExecutor(self._local_runner)
        return ProcessExecutor(
            self.model, self.config, jobs, warm_memo=self._warm_memo
        )

    @contextmanager
    def _executor(self, pareto: bool = False) -> Iterator:
        """The executor of one run, closed when the run ends.

        On Ctrl-C / SIGTERM it tears the pool down cleanly (no orphaned
        workers, no multiprocessing traceback storm) and hands the
        partial memo to the caller so it can be persisted — a
        resubmitted job then resumes the landscape, not restarts.
        """
        executor = self._make_executor()
        try:
            yield executor
        except KeyboardInterrupt:
            with _signals_ignored():
                executor.terminate()
            self.report.interrupted = True
            runs = f"{self.report.ea_runs} EA"
            if pareto:
                runs += f" and {self.report.nsga_runs} NSGA-II"
            raise SynthesisInterrupted(
                f"{'pareto ' if pareto else ''}synthesis of "
                f"{self.model.name} interrupted after {runs} runs; "
                "worker pool shut down cleanly",
                partial_memo=self.memo_snapshot(),
            ) from None
        finally:
            executor.close()

    def memo_snapshot(self) -> List[Tuple[Hashable, float]]:
        """Every memo entry this engine holds in-process: the warm memo
        plus what a ``jobs=1`` run scored. Pool workers keep private
        memos that die with the pool."""
        return list(self._local_runner.cache.items())

    # ------------------------------------------------------------------
    # Queue construction
    # ------------------------------------------------------------------
    def _build_tasks(
        self,
        executor,
        points: Sequence[DesignPoint],
        candidates_of_point: Optional[CandidatesOfPoint],
    ) -> List[EvaluationTask]:
        if candidates_of_point is not None:
            candidate_lists: List[Optional[List[Tuple[int, ...]]]] = [
                [tuple(int(d) for d in c) for c in candidates_of_point(p)]
                for p in points
            ]
        else:
            # Stage 1 over at most ``jobs`` contiguous chunks of the
            # points, one lock-stepped runner call each, in point order.
            candidate_lists = [
                candidates
                for chunk in executor.imap(
                    "filter_candidates", _chunks(points, executor.jobs)
                )
                for candidates in chunk
            ]

        tasks: List[EvaluationTask] = []
        for point, candidates in zip(points, candidate_lists):
            self.report.outer_points += 1
            self._log(f"exploring {point.describe()}")
            if candidates is None:
                self.report.infeasible_points += 1
                continue
            for wt_dup in candidates:
                self.report.candidates_tried += 1
                for res_dac in self.config.res_dac_choices:
                    tasks.append(EvaluationTask(
                        index=len(tasks), point=point,
                        wt_dup=tuple(wt_dup), res_dac=res_dac,
                    ))
        return tasks

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        candidates_of_point: Optional[CandidatesOfPoint] = None,
    ) -> Optional[SynthesisSolution]:
        """Explore the space; return the best solution or None.

        ``candidates_of_point`` overrides stage 1 with a fixed
        duplication policy (the Fig. 7 ablation hook); by default the
        SA filter supplies each point's WtDup candidates.
        """
        space = DesignSpace(self.model, self.config)
        points = list(space.outer_points())
        if not points:
            return None

        with self._executor() as executor:
            tasks = self._build_tasks(
                executor, points, candidates_of_point
            )
            if not tasks:
                return None
            incumbent = self._evaluate_queue(executor, tasks)
        if incumbent is None:
            return None
        return self._materialize_gene(
            tasks[incumbent.index], incumbent.gene, incumbent.fitness,
            searched={
                name: getattr(incumbent, name) for name in OUTCOME_METRICS
            },
        )

    def run_pareto(self) -> Optional[ParetoSolutionSet]:
        """Multi-objective exploration: one global Pareto front over
        ``config.objectives``.

        Two phases over the same flat task queue:

        1. the scalar EA of :meth:`run`, un-pruned so every task's
           winner gene is known deterministically (pruning cannot
           change the *best* solution, but it can change which losers
           get evaluated — and pareto mode needs them all);
        2. one NSGA-II launch per task (same executor fan-out, RNG
           labels disjoint from the EA's), warm-started with the
           task's phase-1 winner, producing a local front that the
           parent merges under the shared strict dominance into the
           global front.

        Returns None when no task produced a feasible point. Every
        point of the merged front is re-scored in-process through the
        scalar oracle, which must reproduce its metrics; the returned
        set's ``solution`` is the front's best point in the first
        objective, materialized so.
        """
        objectives = tuple(self.config.objectives)
        space = DesignSpace(self.model, self.config)
        points = list(space.outer_points())
        if not points:
            return None

        with self._executor(pareto=True) as executor:
            tasks = self._build_tasks(executor, points, None)
            if not tasks:
                return None
            winners: Dict[int, Tuple[int, ...]] = {}
            self._evaluate_queue(
                executor, tasks, prune=False, winners=winners
            )
            front_points = self._evaluate_pareto_queue(
                executor, tasks, winners
            )
        if not front_points:
            return None

        # Canonical order: first objective descending.
        merged = merge_fronts(front_points, objectives)
        solutions = [
            self._materialize_gene(
                tasks[point.task_index], point.gene, point.throughput,
                searched=point.metrics(),
            )
            for point in merged
        ]
        return ParetoSolutionSet(
            model_name=self.model.name,
            total_power=self.config.total_power,
            objectives=objectives,
            points=merged,
            solution=solutions[0],
        )

    def _evaluate_pareto_queue(
        self,
        executor,
        tasks: List[EvaluationTask],
        winners: Dict[int, Tuple[int, ...]],
    ) -> List[ParetoPoint]:
        """Phase 2: NSGA-II over every task; collect the local fronts.

        No pruning — a task dominated on throughput can still own the
        energy- or macro-frugal end of the global front. The tasks go
        out in chunks of ``WAVE_TASKS_PER_JOB`` consecutive tasks, one
        lock-stepped runner call each, and outcomes are consumed in
        submission order, so the collected point list (and everything
        downstream) is independent of the worker count.
        """
        items = [
            ParetoTaskItem(task=task, inject=winners.get(task.index))
            for task in tasks
        ]
        chunks = [
            items[start:start + WAVE_TASKS_PER_JOB]
            for start in range(0, len(items), WAVE_TASKS_PER_JOB)
        ]
        collected: List[ParetoPoint] = []
        for outcomes in executor.imap("run_pareto_tasks", chunks):
            for outcome in outcomes:
                self.report.nsga_runs += 1
                self.report.cache_hits += outcome.cache_hits
                self.report.ea_evaluations += outcome.evaluations
                collected.extend(outcome.points)
                if self.archive is not None:
                    for point in outcome.points:
                        self.archive.record(point.to_archive_entry())
        return collected

    def _materialize_gene(
        self,
        task: EvaluationTask,
        gene: Tuple[int, ...],
        fitness: float,
        searched: Optional[Mapping[str, object]] = None,
    ) -> SynthesisSolution:
        """Re-score one (task, gene) in-process, through the scalar
        oracle, into a full solution; ``fitness`` is the gene's score in
        the search, and ``searched`` more of its fields as the
        (possibly remote) worker scored them. The re-score must
        reproduce every one of them, or a :class:`~repro.errors.
        PimsynError` names the field (:meth:`~repro.core.
        macro_partition.MacroPartitionExplorer.score_winner`): this is
        the runtime check of the batched kernel against the oracle, on
        what ships."""
        explorer = self._local_runner.make_explorer(task)
        allocation, result = explorer.score_winner(
            gene, {"fitness": fitness, **(searched or {})}
        )
        return SynthesisSolution(
            model_name=self.model.name,
            total_power=self.config.total_power,
            ratio_rram=task.point.ratio_rram,
            res_rram=task.point.res_rram,
            xb_size=task.point.xb_size,
            res_dac=task.res_dac,
            wt_dup=task.wt_dup,
            partition=MacroPartition.from_gene(gene),
            allocation=allocation,
            evaluation=result,
            spec=explorer.spec,
            budget=explorer.budget,
            specialized_macros=self.config.specialized_macros,
        )

    def _task_bounds(self, tasks: List[EvaluationTask]) -> List[float]:
        """Pruning bounds for a whole queue, aligned with ``tasks``.

        One pass through the local runner's task grid
        (:mod:`repro.core.grid_eval`) when numpy imports; otherwise the
        per-task scalar walk. Grid and scalar bounds are bit-identical
        (the differential suite's pinned claim), so both order and
        prune the queue identically.
        """
        if not numpy_available():
            return [self._local_runner.throughput_bound(t) for t in tasks]
        return self._local_runner.grid_evaluator.bounds(tasks)

    def _evaluate_queue(
        self,
        executor,
        tasks: List[EvaluationTask],
        prune: Optional[bool] = None,
        winners: Optional[Dict[int, Tuple[int, ...]]] = None,
    ) -> Optional[TaskOutcome]:
        """Evaluate tasks (descending analytical bound), track the best.

        Pruning is decided lazily, as each wave is assembled, against
        the current incumbent; because the bound is a true upper bound
        and ties resolve to the smaller task index, a pruned task can
        never be the winner — so serial and parallel runs (whose
        pruning sets differ with the wave size) still select identical
        solutions.
        Pruning is disabled when an archive is attached (the archive's
        purpose is recording the explored landscape, not just the
        winner) and in pareto mode, which passes ``prune=False`` so the
        set of per-task winner genes (collected into ``winners``) is
        identical whatever the worker count — the NSGA-II warm starts
        must not depend on the wave size.
        """
        if prune is None:
            prune = self.config.prune_dominated and self.archive is None
        if prune:
            bounds = self._task_bounds(tasks)
            order = sorted(
                range(len(tasks)), key=lambda i: (-bounds[i], i)
            )
        else:
            bounds = []
            order = list(range(len(tasks)))

        incumbent: Optional[TaskOutcome] = None
        jobs = max(1, executor.jobs)
        wave_size = jobs * WAVE_TASKS_PER_JOB
        cursor = 0
        while cursor < len(order):
            # Assemble the next wave of non-dominated tasks. Waves hold
            # a few tasks per worker, enough to lock-step, so pruning
            # decisions still see the results of the previous wave —
            # with one big dispatch, every EA would launch before the
            # first incumbent could rule any of them out.
            wave: List[EvaluationTask] = []
            while cursor < len(order) and len(wave) < wave_size:
                position = order[cursor]
                cursor += 1
                task = tasks[position]
                if prune and incumbent is not None and _dominated(
                    bounds[position], task.index, incumbent
                ):
                    self.report.pruned_tasks += 1
                    continue
                self.report.ea_runs += 1
                wave.append(task)
            # Each chunk's launches run in lock-step in one worker call.
            for outcomes in executor.imap(
                "run_tasks", _chunks(wave, jobs)
            ):
                for outcome in outcomes:
                    incumbent = self._absorb(outcome, tasks, incumbent)
                    if (
                        winners is not None
                        and outcome.feasible
                        and outcome.gene is not None
                    ):
                        winners[outcome.index] = outcome.gene
        return incumbent

    def _absorb(
        self,
        outcome: TaskOutcome,
        tasks: List[EvaluationTask],
        incumbent: Optional[TaskOutcome],
    ) -> Optional[TaskOutcome]:
        """Fold one task outcome into the report/archive/incumbent."""
        self.report.cache_hits += outcome.cache_hits
        self.report.ea_evaluations += outcome.ea_evaluations
        if not outcome.feasible:
            return incumbent
        self.report.best_history.append(outcome.fitness)
        task = tasks[outcome.index]
        if self.archive is not None:
            from repro.core.archive import ArchiveEntry

            self.archive.record(ArchiveEntry(
                ratio_rram=task.point.ratio_rram,
                res_rram=task.point.res_rram,
                xb_size=task.point.xb_size,
                res_dac=task.res_dac,
                wt_dup=task.wt_dup,
                throughput=outcome.throughput,
                power=outcome.power,
                tops_per_watt=outcome.tops_per_watt,
                latency=outcome.latency,
                num_macros=outcome.num_macros,
            ))
        if incumbent is None or outcome.fitness > incumbent.fitness or (
            outcome.fitness == incumbent.fitness
            and outcome.index < incumbent.index
        ):
            incumbent = outcome
            self._log(
                f"  new best: {outcome.throughput:.1f} img/s "
                f"({outcome.tops_per_watt:.3f} TOPS/W) at "
                f"ResDAC={task.res_dac} "
                f"WtDup={list(task.wt_dup)[:4]}..."
            )
        return incumbent
