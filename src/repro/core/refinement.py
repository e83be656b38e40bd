"""Post-DSE local refinement of a synthesized solution.

Alg. 1 traverses WtDup candidates that the SA *surrogate* (Eq. 4)
ranked highly; the true objective is only evaluated downstream. A
cheap, high-yield extension is therefore a hill-climb around the DSE
winner under the *real* objective: perturb the duplication vector one
step at a time (grow / shrink / shift, the same moves as the SA
neighborhood), re-run stages 2-4, and keep strict improvements. The
paper's future-work direction of tightening the surrogate/objective gap
is realized here as machinery instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import SynthesisConfig
from repro.core.dataflow import make_spec
from repro.core.macro_partition import MacroPartitionExplorer
from repro.core.solution import SynthesisSolution
from repro.core.weight_duplication import WeightDuplicationFilter
from repro.errors import InfeasibleError
from repro.nn.model import CNNModel


@dataclass
class RefinementReport:
    """Telemetry of one refinement run."""

    moves_tried: int = 0
    moves_accepted: int = 0
    initial_throughput: float = 0.0
    final_throughput: float = 0.0

    @property
    def improvement(self) -> float:
        if self.initial_throughput <= 0:
            return 0.0
        return self.final_throughput / self.initial_throughput


def refine_solution(
    solution: SynthesisSolution,
    model: CNNModel,
    config: SynthesisConfig,
    max_moves: int = 20,
    seed: int = 0,
) -> Tuple[SynthesisSolution, RefinementReport]:
    """Hill-climb the WtDup vector around a DSE winner.

    Each move perturbs one layer's duplication (respecting Eq. 2's
    crossbar budget), re-runs the EA + allocation at the solution's
    design point, and accepts strict throughput improvements. Returns
    the refined solution (possibly the original) and a report.
    """
    rng = random.Random(seed)
    report = RefinementReport(
        initial_throughput=solution.evaluation.throughput,
        final_throughput=solution.evaluation.throughput,
    )

    filt = WeightDuplicationFilter(
        model=model,
        xb_size=solution.xb_size,
        res_rram=solution.res_rram,
        num_crossbars=solution.budget.num_crossbars,
        config=config,
    )

    best = solution
    current = tuple(solution.wt_dup)
    for _ in range(max_moves):
        candidate = filt.neighbor(current, rng)
        if candidate == current:
            continue
        report.moves_tried += 1
        refined = _rebuild(best, model, config, candidate, rng)
        if refined is None:
            continue
        if refined.evaluation.throughput > best.evaluation.throughput:
            best = refined
            current = candidate
            report.moves_accepted += 1
            report.final_throughput = refined.evaluation.throughput
    return best, report


def _rebuild(
    reference: SynthesisSolution,
    model: CNNModel,
    config: SynthesisConfig,
    wt_dup: Tuple[int, ...],
    rng: random.Random,
) -> Optional[SynthesisSolution]:
    """Run stages 2-4 for a new WtDup at the reference design point."""
    spec = make_spec(
        model, wt_dup,
        xb_size=reference.xb_size,
        res_rram=reference.res_rram,
        res_dac=reference.res_dac,
        params=config.params,
        max_blocks_per_layer=config.max_blocks_per_layer,
    )
    explorer = MacroPartitionExplorer(
        spec=spec, budget=reference.budget,
        res_dac=reference.res_dac, config=config,
        rng=random.Random(rng.randrange(2 ** 32)),
    )
    try:
        partition, allocation, result = explorer.explore()
    except InfeasibleError:
        return None
    return SynthesisSolution(
        model_name=reference.model_name,
        total_power=reference.total_power,
        ratio_rram=reference.ratio_rram,
        res_rram=reference.res_rram,
        xb_size=reference.xb_size,
        res_dac=reference.res_dac,
        wt_dup=tuple(wt_dup),
        partition=partition,
        allocation=allocation,
        evaluation=result,
        spec=spec,
        budget=reference.budget,
        specialized_macros=config.specialized_macros,
    )
