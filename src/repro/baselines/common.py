"""Shared machinery for re-modeling manually-designed accelerators.

A :class:`ManualDesign` freezes the choices a human architect made —
crossbar size, device/DAC resolutions, ADC provisioning per crossbar,
macro granularity, weight-duplication policy — and
:func:`build_manual_solution` evaluates that fixed design with the same
spec/evaluator pipeline PIMSYN's winners go through, returning a regular
:class:`SynthesisSolution`. No SA, no EA, no Eq. 6 balancing: components
are provisioned by the design's own fixed rules, which is precisely why
manual designs lose to synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.backend import ENCODING_BASE
from repro.core.component_alloc import (
    ComponentAllocation,
    LayerAllocation,
    fixed_overhead_power,
    layer_workloads,
)
from repro.core.dataflow import make_spec
from repro.core.evaluator import PerformanceEvaluator
from repro.core.macro_partition import MacroPartition, encode_gene
from repro.core.solution import SynthesisSolution
from repro.errors import InfeasibleError
from repro.hardware.crossbar import required_adc_resolution
from repro.hardware.params import HardwareParams
from repro.hardware.power import PowerBudget
from repro.hardware.tech import DEFAULT_TECHNOLOGY
from repro.nn.model import CNNModel
from repro.utils.mathutils import ceil_div

# The paper's base-1000 gene packing caps a layer's #macros.
_MAX_MACROS_PER_LAYER = ENCODING_BASE - 1


@dataclass(frozen=True)
class ManualDesign:
    """A fixed, human-authored PIM accelerator recipe.

    Manual designs scale by *replicating a fixed crossbar bundle*: each
    crossbar arrives with its DACs, sample-holds, its share of the ADC
    bank, and its amortized slice of the macro (eDRAM/NoC/registers/
    ALUs). The chip a manual design affords at a power constraint is
    therefore ``total_power / bundle_power`` crossbars — no Eq. 6
    rebalancing, which is exactly the rigidity PIMSYN exploits.
    """

    name: str
    xb_size: int
    res_rram: int
    res_dac: int
    adcs_per_crossbar: float  # ADC provisioning rule
    crossbars_per_macro: int  # macro granularity
    alus_per_macro: int
    ratio_rram: float = 0.0  # derived when 0 (crossbar share of bundle)
    adc_resolution: Optional[int] = None  # None -> lossless minimum
    wtdup_policy: str = "woho"  # "woho" | "none"
    # Per-step slowdown from scheme-specific overheads (e.g. AtomLayer's
    # row-by-row rotation, PipeLayer's spike integration).
    step_overhead: float = 1.0

    def effective_adc_resolution(self, params: HardwareParams) -> int:
        """The design's fixed ADC resolution (or the lossless minimum)."""
        if self.adc_resolution is not None:
            return self.adc_resolution
        lo, hi = params.adc_resolution_range
        return required_adc_resolution(
            self.xb_size, self.res_rram, self.res_dac,
            min_resolution=lo, max_resolution=hi,
        )

    def bundle_power(self, params: HardwareParams) -> float:
        """Watts one crossbar costs with all its attached peripherals."""
        per_macro = (
            params.edram_power + params.noc_power
            + params.register_power_per_macro
            + self.alus_per_macro * params.alu_power
        )
        return (
            params.crossbar_power_of(self.xb_size)
            + self.xb_size * (
                params.dac_power_of(self.res_dac)
                + params.sample_hold_power
            )
            + self.adcs_per_crossbar
            * params.adc_power_of(self.effective_adc_resolution(params))
            + per_macro / self.crossbars_per_macro
        )

    def derived_ratio_rram(self, params: HardwareParams) -> float:
        """Crossbar share of the bundle (ISAAC's is <0.1: >80% peripheral)."""
        if self.ratio_rram > 0:
            return self.ratio_rram
        return (
            params.crossbar_power_of(self.xb_size)
            / self.bundle_power(params)
        )

    def peak_point(self, params: HardwareParams):
        """The design's architecture-level peak (Table IV metric)."""
        from repro.hardware.peak import fixed_peak_point

        macro_overhead = (
            params.edram_power + params.noc_power
            + params.register_power_per_macro
            + self.alus_per_macro * params.alu_power
        ) / self.crossbars_per_macro
        return fixed_peak_point(
            xb_size=self.xb_size,
            res_rram=self.res_rram,
            res_dac=self.res_dac,
            adcs_per_crossbar=self.adcs_per_crossbar,
            adc_resolution=self.effective_adc_resolution(params),
            macro_overhead_per_crossbar=macro_overhead,
            params=params,
            conversion_overhead=self.step_overhead,
        )

    def minimum_power(
        self, model: CNNModel, params: HardwareParams
    ) -> float:
        """Power needed to hold one weight copy of every layer."""
        from repro.hardware.crossbar import crossbar_set_size

        min_crossbars = sum(
            crossbar_set_size(
                layer, self.xb_size, self.res_rram,
                model.weight_precision,
            )
            for layer in model.weighted_layers
        )
        return min_crossbars * self.bundle_power(params)


def manual_allocation(
    design: ManualDesign,
    spec,
    budget: PowerBudget,
    model: CNNModel,
) -> ComponentAllocation:
    """Provision components by the design's fixed rules (no balancing)."""
    params: HardwareParams = spec.params
    bits = params.act_bit_iterations(design.res_dac)
    adc_wl, alu_wl = layer_workloads(spec.geometries, model, bits)

    macro_groups = manual_macro_groups(design, spec)
    fixed = fixed_overhead_power(
        spec.geometries, macro_groups, params, design.xb_size,
        design.res_dac,
    )

    layers: List[LayerAllocation] = []
    adc_alu_power = 0.0
    for geo, wl_adc, wl_alu in zip(spec.geometries, adc_wl, alu_wl):
        resolution = design.adc_resolution
        if resolution is None:
            lo, hi = params.adc_resolution_range
            resolution = required_adc_resolution(
                min(design.xb_size, geo.rows), design.res_rram,
                design.res_dac,
                min_resolution=lo, max_resolution=hi,
            )
        n_adc = max(1.0, geo.crossbars * design.adcs_per_crossbar)
        n_macros = len(macro_groups[geo.index])
        n_alu = max(1.0, float(n_macros * design.alus_per_macro))
        adc_delay = (
            wl_adc / (params.adc_sample_rate * n_adc)
            * design.step_overhead
        )
        alu_delay = wl_alu / (params.alu_frequency * n_alu)
        layers.append(
            LayerAllocation(
                adc=n_adc,
                alu=n_alu,
                adc_resolution=resolution,
                adc_delay=adc_delay,
                alu_delay=alu_delay,
            )
        )
        adc_alu_power += (
            params.adc_power_of(resolution) * n_adc
            + params.alu_power * n_alu
        )

    return ComponentAllocation(
        layers=layers,
        fixed_power=fixed,
        adc_alu_power=adc_alu_power,
        balanced_delay=max(
            max(l.adc_delay for l in layers),
            max(l.alu_delay for l in layers),
        ),
        sharing_savings=0.0,
    )


def manual_macro_groups(design: ManualDesign, spec) -> List[List[int]]:
    """Tile each layer's crossbars into fixed-size macros."""
    groups: List[List[int]] = []
    next_id = 0
    for geo in spec.geometries:
        count = min(
            _MAX_MACROS_PER_LAYER,
            max(1, ceil_div(geo.crossbars, design.crossbars_per_macro)),
        )
        groups.append(list(range(next_id, next_id + count)))
        next_id += count
    return groups


def manual_wtdup(
    design: ManualDesign, model: CNNModel, num_crossbars: int
) -> List[int]:
    """Apply the design's duplication policy."""
    from repro.baselines.heuristics import (
        no_duplication_wtdup,
        woho_proportional_wtdup,
    )

    if design.wtdup_policy == "none":
        return no_duplication_wtdup(model)
    if design.wtdup_policy == "woho":
        return woho_proportional_wtdup(
            model, design.xb_size, design.res_rram, num_crossbars
        )
    raise InfeasibleError(
        f"{design.name}: unknown wtdup policy {design.wtdup_policy!r}"
    )


def build_manual_solution(
    design: ManualDesign,
    model: CNNModel,
    total_power: float,
    params: Optional[HardwareParams] = None,
    max_blocks_per_layer: int = 8,
    tech: str = DEFAULT_TECHNOLOGY,
) -> SynthesisSolution:
    """Evaluate a manual design on ``model`` at ``total_power``.

    Raises :class:`InfeasibleError` when the bundle-cost crossbar count
    cannot hold one weight copy of every layer (use
    :meth:`ManualDesign.minimum_power` to size the budget). The device
    constants come from ``params`` or the ``tech`` profile — baseline
    designs re-priced under another technology stay comparable to a
    PIMSYN run under the same profile.
    """
    hw = (
        params if params is not None
        else HardwareParams.from_technology(tech)
    )
    ratio = design.derived_ratio_rram(hw)
    budget = PowerBudget.from_constraint(
        total_power, ratio, design.xb_size, design.res_rram, hw,
    )
    wt_dup = manual_wtdup(design, model, budget.num_crossbars)
    spec = make_spec(
        model, wt_dup,
        xb_size=design.xb_size,
        res_rram=design.res_rram,
        res_dac=design.res_dac,
        params=hw,
        max_blocks_per_layer=max_blocks_per_layer,
    )
    macro_groups = manual_macro_groups(design, spec)
    allocation = manual_allocation(design, spec, budget, model)
    evaluator = PerformanceEvaluator(spec, budget)
    result = evaluator.evaluate(macro_groups, allocation)

    gene = encode_gene(
        range(spec.num_layers), [len(g) for g in macro_groups]
    )
    return SynthesisSolution(
        model_name=f"{model.name}@{design.name}",
        total_power=total_power,
        ratio_rram=ratio,
        res_rram=design.res_rram,
        xb_size=design.xb_size,
        res_dac=design.res_dac,
        wt_dup=tuple(wt_dup),
        partition=MacroPartition.from_gene(gene),
        allocation=allocation,
        evaluation=result,
        spec=spec,
        budget=budget,
    )
