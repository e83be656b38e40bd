"""PIMSYN's primary contribution: the four-stage synthesis flow + DSE.

Stage 1 — :mod:`repro.core.weight_duplication` (SA filter, Eq. 2/4)
Stage 2 — :mod:`repro.core.dataflow` (IR-based DAG compilation)
Stage 3 — :mod:`repro.core.macro_partition` (EA explorer, Alg. 2)
Stage 4 — :mod:`repro.core.component_alloc` (closed form, Eq. 5/6)

:mod:`repro.core.synthesizer` drives the Alg. 1 multi-loop DSE across
:mod:`repro.core.design_space` (Table I), flattening it into a work
queue that :mod:`repro.core.executor` evaluates serially or across a
process pool (with memoization and dominated-task pruning), scoring
candidates with the analytical model in :mod:`repro.core.evaluator` and
packaging winners as :class:`repro.core.solution.SynthesisSolution`.
"""

from repro.core.backend import TaskGrid, backend_status, get_backend
from repro.core.batch_eval import (
    BATCH_FIELDS,
    BatchEvaluation,
    BatchPerformanceEvaluator,
)
from repro.core.config import SynthesisConfig
from repro.core.design_space import DesignPoint, DesignSpace
from repro.core.evaluator import (
    EvaluationResult,
    PerformanceEvaluator,
    throughput_upper_bound,
)
from repro.core.executor import (
    EvaluationTask,
    ExplorationEngine,
    TaskOutcome,
)
from repro.core.component_alloc import ComponentAllocation, allocate_components
from repro.core.macro_partition import (
    MacroPartition,
    MacroPartitionExplorer,
    decode_gene,
    encode_gene,
)
from repro.core.pareto import ParetoPoint, ParetoSolutionSet, merge_fronts
from repro.core.weight_duplication import WeightDuplicationFilter
from repro.core.dataflow import compile_dataflow
from repro.core.persistence import (
    load_solution,
    save_solution,
    solution_from_payload,
)
from repro.core.grid_eval import GridBoundEvaluator
from repro.core.solution import SynthesisSolution
from repro.core.synthesizer import Pimsyn

__all__ = [
    "TaskGrid",
    "backend_status",
    "get_backend",
    "GridBoundEvaluator",
    "BATCH_FIELDS",
    "BatchEvaluation",
    "BatchPerformanceEvaluator",
    "SynthesisConfig",
    "DesignPoint",
    "DesignSpace",
    "EvaluationResult",
    "EvaluationTask",
    "ExplorationEngine",
    "PerformanceEvaluator",
    "TaskOutcome",
    "throughput_upper_bound",
    "ComponentAllocation",
    "allocate_components",
    "MacroPartition",
    "MacroPartitionExplorer",
    "decode_gene",
    "encode_gene",
    "ParetoPoint",
    "ParetoSolutionSet",
    "merge_fronts",
    "WeightDuplicationFilter",
    "compile_dataflow",
    "load_solution",
    "save_solution",
    "solution_from_payload",
    "SynthesisSolution",
    "Pimsyn",
]
