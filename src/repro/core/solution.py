"""Synthesis solution objects: the finished accelerator + its dataflow.

A :class:`SynthesisSolution` bundles everything Alg. 1's winner needs to
be used downstream: the design-point variables, the weight-duplication
vector, the macro partition, the component allocation, the evaluation
metrics, and constructors for the concrete :class:`Accelerator` and the
full IR DAG. It serializes to JSON so synthesized designs can be saved
and reloaded without re-running the DSE.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.component_alloc import ComponentAllocation
from repro.core.evaluator import EvaluationResult, PerformanceEvaluator
from repro.core.macro_partition import MacroPartition
from repro.hardware.chip import Accelerator
from repro.hardware.macro import MacroConfig, PEConfig
from repro.hardware.params import HardwareParams
from repro.hardware.power import PowerBudget
from repro.ir.builder import DataflowSpec
from repro.ir.dag import IRDag
from repro.nn.model import CNNModel
from repro.utils.mathutils import ceil_div


@dataclass
class SynthesisSolution:
    """One complete synthesized accelerator design.

    ``specialized_macros`` is the allocation mode the design was priced
    under (:class:`repro.core.config.SynthesisConfig`'s field of that
    name): False provisions identical macros chip-wide (§V-C2).
    """

    model_name: str
    total_power: float
    ratio_rram: float
    res_rram: int
    xb_size: int
    res_dac: int
    wt_dup: Tuple[int, ...]
    partition: MacroPartition
    allocation: ComponentAllocation
    evaluation: EvaluationResult
    spec: DataflowSpec = field(repr=False)
    budget: PowerBudget = field(repr=False)
    specialized_macros: bool = True

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def build_accelerator(self) -> Accelerator:
        """Construct the concrete chip: macros with integer components."""
        spec = self.spec
        groups = self.partition.macro_groups
        counts = self.allocation.per_macro_counts(groups)

        # Gather per-macro facts (a macro may host two layers via sharing).
        layers_of_macro: Dict[int, List[int]] = {}
        pes_of_macro: Dict[int, int] = {}
        adcs_of_macro: Dict[int, int] = {}
        alus_of_macro: Dict[int, int] = {}
        res_of_macro: Dict[int, int] = {}
        for geo, group, (adcs, alus) in zip(
            spec.geometries, groups, counts
        ):
            per_macro_pes = ceil_div(geo.crossbars, len(group))
            layer_alloc = self.allocation.layers[geo.index]
            for mid in group:
                layers_of_macro.setdefault(mid, []).append(geo.index)
                pes_of_macro[mid] = pes_of_macro.get(mid, 0) + per_macro_pes
                # Shared macros carry one bank sized for the larger user.
                adcs_of_macro[mid] = max(
                    adcs_of_macro.get(mid, 0), adcs
                )
                alus_of_macro[mid] = max(
                    alus_of_macro.get(mid, 0), alus
                )
                res_of_macro[mid] = max(
                    res_of_macro.get(mid, 0), layer_alloc.adc_resolution
                )

        pe = PEConfig(
            xb_size=self.xb_size, res_rram=self.res_rram,
            res_dac=self.res_dac,
        )
        macros = [
            MacroConfig(
                macro_id=mid,
                pe=pe,
                num_pes=pes_of_macro[mid],
                num_adcs=adcs_of_macro[mid],
                adc_resolution=res_of_macro[mid],
                num_alus=alus_of_macro[mid],
                layer_indices=tuple(sorted(set(layers_of_macro[mid]))),
            )
            for mid in range(self.partition.num_macros)
        ]
        layer_macros = {
            geo.index: list(groups[geo.index]) for geo in spec.geometries
        }
        return Accelerator(
            macros=macros, params=spec.params, layer_macros=layer_macros
        )

    def build_dag(self) -> IRDag:
        """Compile the solution's full IR DAG (with communication IRs)."""
        from repro.core.dataflow import compile_dataflow

        macro_alloc = {
            geo.index: list(self.partition.macro_groups[geo.index])
            for geo in self.spec.geometries
        }
        return compile_dataflow(self.spec, macro_alloc=macro_alloc)

    def peak_metrics(self) -> Tuple[float, float]:
        """(peak TOPS, peak TOPS/W) of this design (Table IV metric)."""
        evaluator = PerformanceEvaluator(self.spec, self.budget)
        return evaluator.peak_metrics(self.allocation)

    # ------------------------------------------------------------------
    # Simulation replay hooks (lazy imports keep sim/ out of the DSE
    # hot path)
    # ------------------------------------------------------------------
    def simulation_engine(self):
        """The windowed behavior-level list scheduler for this design."""
        from repro.sim.engine import SimulationEngine

        return SimulationEngine(
            spec=self.spec,
            allocation=self.allocation,
            macro_groups=self.partition.macro_groups,
        )

    def cycle_simulator(self, **kwargs):
        """The integer-cycle pipelined simulator for this design.

        Keyword arguments (``fault_rate``, ``fault_seed``,
        ``cycle_time``, ``resolution``, ``engine``) forward to
        :class:`repro.sim.cycle.CycleSimulator`. Simulators of the
        same solution share one lowering cache, so fault sweeps and
        engine comparisons lower once and replay many.
        """
        from repro.sim.cycle import CycleSimulator

        return CycleSimulator.for_solution(self, **kwargs)

    def cross_validate(self, tol: Optional[float] = None, **kwargs):
        """Replay this design cycle-accurately and compare both models.

        Returns a :class:`repro.sim.cycle.CrossValidationReport`; call
        ``.ensure()`` on it to raise when the deviation exceeds ``tol``.
        """
        from repro.sim.cycle import DEFAULT_TOLERANCE, cross_validate

        return cross_validate(
            self,
            tol=DEFAULT_TOLERANCE if tol is None else tol,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Reporting / serialization
    # ------------------------------------------------------------------
    def summary(self) -> str:
        ev = self.evaluation
        lines = [
            f"solution for {self.model_name} @ {self.total_power:.1f} W",
            f"  design point: RatioRram={self.ratio_rram} "
            f"ResRram={self.res_rram} XbSize={self.xb_size} "
            f"ResDAC={self.res_dac}",
            f"  WtDup: {list(self.wt_dup)}",
            f"  macros: {self.partition.num_macros} "
            f"(sharing pairs: {list(self.partition.sharing_pairs)})",
            f"  throughput: {ev.throughput:.1f} img/s  "
            f"({ev.tops:.2f} TOPS)",
            f"  power: {ev.power:.2f} W  efficiency: "
            f"{ev.tops_per_watt:.3f} TOPS/W",
            f"  latency: {ev.latency * 1e3:.3f} ms  energy/img: "
            f"{ev.energy_per_image * 1e3:.3f} mJ",
        ]
        return "\n".join(lines)

    def to_payload(self) -> Dict:
        """The JSON-ready artifact dict (decisions + metrics, no model).

        This is the unit of currency of :mod:`repro.core.persistence`
        and the serve-layer result store; :meth:`to_json` is its
        serialized form.
        """
        ev = self.evaluation
        payload = {
            "model": self.model_name,
            "total_power": self.total_power,
            "design_point": {
                "ratio_rram": self.ratio_rram,
                "res_rram": self.res_rram,
                "xb_size": self.xb_size,
                "res_dac": self.res_dac,
            },
            "wt_dup": list(self.wt_dup),
            "gene": list(self.partition.gene),
            "num_macros": self.partition.num_macros,
            "sharing_pairs": [
                list(p) for p in self.partition.sharing_pairs
            ],
            "metrics": {
                "throughput_img_s": ev.throughput,
                "tops": ev.tops,
                "power_w": ev.power,
                "tops_per_watt": ev.tops_per_watt,
                "latency_s": ev.latency,
                "energy_per_image_j": ev.energy_per_image,
                "edp_js": ev.edp,
            },
        }
        # Only the non-default mode is recorded, so every artifact of a
        # default synthesis keeps its bytes.
        if not self.specialized_macros:
            payload["specialized_macros"] = False
        return payload

    def to_json(self, indent: int = 2) -> str:
        """Serialize the decision variables and metrics (not the model)."""
        return json.dumps(self.to_payload(), indent=indent)
