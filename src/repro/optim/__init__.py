"""Generic metaheuristic engines.

PIMSYN embeds two searchers in its DSE flow (Fig. 3): a simulated-
annealing filter for weight duplication (§IV-A2) and an evolutionary
algorithm for macro partitioning (§IV-C2). Both are implemented here as
problem-agnostic engines; the problem encodings live in
:mod:`repro.core`. The multi-objective layer adds NSGA-II
(:mod:`.nsga`) on top of shared Pareto-dominance primitives
(:mod:`.dominance`), which the archive and the DSE executor's front
merge reuse. The EA and NSGA-II share one (mu + lambda) loop, an
ask/tell stepper, and :func:`.evolution.evolve_together` steps it for
one engine or for many in lock-step. The stage-1 filter
steps its lock-stepped SA chains in a move loop of its own
(:func:`repro.core.weight_duplication.lockstep_candidates`), held by
its tests to :class:`.annealing.SimulatedAnnealer`, the plain
one-chain reference.
"""

from repro.optim.annealing import AnnealingSchedule, SimulatedAnnealer
from repro.optim.dominance import (
    crowding_distances,
    dominates,
    fast_non_dominated_sort,
    hypervolume,
    non_dominated_indices,
)
from repro.optim.evolution import EvolutionEngine, EvolutionReport
from repro.optim.nsga import NSGA2Engine, NSGAReport

__all__ = [
    "AnnealingSchedule",
    "SimulatedAnnealer",
    "EvolutionEngine",
    "EvolutionReport",
    "NSGA2Engine",
    "NSGAReport",
    "crowding_distances",
    "dominates",
    "fast_non_dominated_sort",
    "hypervolume",
    "non_dominated_indices",
]
