"""Alg. 1 — the design-space-exploration driver and PIMSYN façade.

The multi-loop flow::

    for RatioRram in [0.1, 0.4]:                 # outer PIM space
      for ResRram in {1, 2, 4}:
        for XbSize in {128, 256, 512}:
          WtDupCandi <- top-30 of the SA filter  # stage 1
          for WtDup in WtDupCandi:
            for ResDAC in {1, 2, 4}:
              dataflow spec / IR DAG             # stage 2
              MacAlloc, CompAlloc <- EA          # stages 3+4
              evaluate, keep the best

``Pimsyn.synthesize()`` runs the whole thing and returns the best
:class:`SynthesisSolution`. ``synthesize_with_wtdup`` pins stage 1 to a
caller-supplied duplication strategy — the hook the Fig. 7 ablation
(SA vs WOHO-heuristic vs no duplication) uses.

Since the executor refactor, the nested loops are flattened into a work
queue of ``(point, WtDup, ResDAC)`` tasks and driven by
:class:`repro.core.executor.ExplorationEngine`, which adds parallel
evaluation (``SynthesisConfig.jobs``), content-keyed memoization of EA
fitness evaluations, and sound dominated-task pruning — all while
returning the same best solution as the serial walk for a fixed seed.
``Pimsyn(warm_memo=...)`` pre-fills that memo with the entries an
interrupted run hands back (:class:`repro.errors.SynthesisInterrupted`),
so a resumed synthesis replays the finished tasks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.archive import DesignArchive
    from repro.core.pareto import ParetoSolutionSet

from repro.core.config import SynthesisConfig
from repro.core.design_space import DesignPoint
from repro.core.executor import ExplorationEngine
from repro.core.solution import SynthesisSolution
from repro.errors import InfeasibleError
from repro.nn.model import CNNModel

ProgressCallback = Callable[[str], None]


@dataclass
class SynthesisReport:
    """Telemetry of one DSE run.

    ``ea_runs`` counts EA launches actually executed; ``pruned_tasks``
    counts launches skipped because their analytical throughput bound
    could not beat the incumbent. ``cache_hits`` is the evaluation-memo
    total aggregated over all EA runs (and worker processes);
    ``ea_evaluations`` is the number of full component-allocation
    evaluations actually performed — equivalently, the memo misses.
    """

    outer_points: int = 0
    candidates_tried: int = 0
    ea_runs: int = 0
    nsga_runs: int = 0
    pruned_tasks: int = 0
    infeasible_points: int = 0
    ea_evaluations: int = 0
    cache_hits: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    interrupted: bool = False
    best_history: List[float] = field(default_factory=list)

    @property
    def cache_misses(self) -> int:
        """Memo misses — every miss runs one full evaluation."""
        return self.ea_evaluations


class Pimsyn:
    """The synthesis framework: CNN + power constraint -> accelerator."""

    def __init__(
        self,
        model: CNNModel,
        config: Optional[SynthesisConfig] = None,
        progress: Optional[ProgressCallback] = None,
        archive: Optional["DesignArchive"] = None,
        warm_memo=None,
    ) -> None:
        self.model = model
        self.config = config if config is not None else SynthesisConfig()
        self.progress = progress
        self.archive = archive
        self.warm_memo = warm_memo
        self.report = SynthesisReport()

    # ------------------------------------------------------------------
    # Alg. 1
    # ------------------------------------------------------------------
    def synthesize(self) -> SynthesisSolution:
        """Run the full DSE; return the best design found.

        Raises :class:`InfeasibleError` when no design point in the
        configured space can hold the model under the power constraint.
        """
        started = time.perf_counter()
        best = self._engine().run()
        self.report.wall_seconds = time.perf_counter() - started
        if best is None:
            raise InfeasibleError(
                f"no feasible design for {self.model.name} at "
                f"{self.config.total_power} W in the configured space"
            )
        return best

    def synthesize_pareto(self) -> "ParetoSolutionSet":
        """Multi-objective DSE: the global Pareto front over
        ``config.objectives`` instead of a single best design.

        Runs the same flat task queue as :meth:`synthesize` (un-pruned),
        then one NSGA-II launch per task through the same memoized
        population scoring, merging the local fronts under the shared
        strict dominance. The returned set's ``solution`` is the
        front's best point in the first objective materialized as a
        full :class:`SynthesisSolution`; with the default objectives
        its metrics match :meth:`synthesize`'s winner exactly.

        Raises :class:`InfeasibleError` when no design point in the
        configured space can hold the model under the power constraint.
        """
        started = time.perf_counter()
        front = self._engine().run_pareto()
        self.report.wall_seconds = time.perf_counter() - started
        if front is None:
            raise InfeasibleError(
                f"no feasible design for {self.model.name} at "
                f"{self.config.total_power} W in the configured space"
            )
        return front

    def synthesize_with_wtdup(
        self,
        wtdup_of_point: Callable[[DesignPoint], Sequence[int]],
    ) -> SynthesisSolution:
        """Alg. 1 with stage 1 replaced by a fixed duplication policy.

        ``wtdup_of_point`` maps each outer design point to a WtDup
        vector (it needs the point because feasible duplication depends
        on the crossbar budget). Used by the Fig. 7 comparison.
        """
        started = time.perf_counter()
        best = self._engine().run(
            candidates_of_point=lambda point: [
                tuple(int(d) for d in wtdup_of_point(point))
            ]
        )
        self.report.wall_seconds = time.perf_counter() - started
        if best is None:
            raise InfeasibleError(
                f"no feasible design for {self.model.name} with the "
                "supplied weight-duplication policy"
            )
        return best

    def _engine(self) -> ExplorationEngine:
        return ExplorationEngine(
            model=self.model,
            config=self.config,
            report=self.report,
            progress=self.progress,
            archive=self.archive,
            warm_memo=self.warm_memo,
        )
