"""Stage 4 — components allocation (§IV-D, Eq. 5/6).

Peripherals (ADC bank, ALU units) consume most of a PIM accelerator's
power; this stage distributes the peripheral power budget
``(1 - RatioRram) * TotalPower`` across layers and component types so
that the slowest pipeline step is minimized. Eq. 6's closed form makes
every (layer, component) delay equal::

    CompAlloc_l_p = AvailPower * (Wl_l_p / Freq_p)
                    / sum_ic (P_c * Wl_i_c / Freq_c)

so each layer's per-image component time collapses to the single
*balanced delay* ``D = sum_ic(P_c * Wl_i_c / Freq_c) / AvailPower``.

Structural peripherals (per-macro eDRAM/NoC/registers, per-PE DACs and
sample-holds) are charged off the top as *fixed overhead* before the
ADC/ALU split — they scale with the macro partition, which is how the EA
feels the cost of fragmenting a layer across many macros.

Inter-layer macro sharing (rule b) is applied as a post-pass: a shared
pair's two ADC banks become one bank of the larger size (power saving),
the freed power is redistributed over all allocations, and each shared
layer sees the bigger bank — throttled by an overlap penalty when the
layers are close in the pipeline (Fig. 5a's distance effect).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InfeasibleError
from repro.hardware.crossbar import required_adc_resolution
from repro.hardware.params import HardwareParams
from repro.hardware.power import PowerBudget
from repro.ir.builder import LayerGeometry
from repro.nn.model import CNNModel
from repro.utils.mathutils import ordered_sum


@dataclass
class LayerAllocation:
    """Per-layer slice of the peripheral allocation."""

    adc: float  # effective ADC instances serving this layer
    alu: float  # effective ALU instances serving this layer
    adc_resolution: int
    adc_delay: float  # seconds per image spent on conversions
    alu_delay: float  # seconds per image spent on vector ops
    shared_with: Optional[int] = None  # partner layer index, if sharing


@dataclass
class ComponentAllocation:
    """Stage-4 output: allocations, delays, and the power account."""

    layers: List[LayerAllocation]
    fixed_power: float  # eDRAM/NoC/registers/DACs/S&H
    adc_alu_power: float  # power spent on ADC banks + ALU lanes
    balanced_delay: float  # Eq. 6's equalized per-image delay D
    sharing_savings: float  # watts recovered by inter-layer ADC reuse

    @property
    def total_peripheral_power(self) -> float:
        return self.fixed_power + self.adc_alu_power

    def per_macro_counts(
        self, macro_groups: Sequence[Sequence[int]]
    ) -> List[Tuple[int, int]]:
        """Integer (ADCs, ALUs) per macro for each layer's macros."""
        counts = []
        for allocation, group in zip(self.layers, macro_groups):
            n_macros = max(1, len(group))
            adcs = max(1, round(allocation.adc / n_macros))
            alus = max(1, round(allocation.alu / n_macros))
            counts.append((adcs, alus))
        return counts


def layer_workloads(
    geometries: Sequence[LayerGeometry],
    model: CNNModel,
    bits: int,
) -> Tuple[List[float], List[float]]:
    """Per-image ADC conversions and ALU element-ops per layer (Eq. 5 Wl)."""
    adc_wl: List[float] = []
    alu_wl: List[float] = []
    vector_ops = model.vector_op_workloads()
    for geo in geometries:
        conversions = (
            geo.total_blocks * bits * geo.conversions_per_block_bit
        )
        adc_wl.append(float(conversions))
        alu_wl.append(float(conversions) + float(vector_ops[geo.index]))
    return adc_wl, alu_wl


def fixed_overhead_power(
    geometries: Sequence[LayerGeometry],
    macro_groups: Sequence[Sequence[int]],
    params: HardwareParams,
    xb_size: int,
    res_dac: int,
) -> float:
    """Power of the structure-bound peripherals."""
    total_macros = len(
        {mid for group in macro_groups for mid in group}
    )
    total_crossbars = sum(geo.crossbars for geo in geometries)
    per_macro = (
        params.edram_power + params.noc_power
        + params.register_power_per_macro
    )
    per_crossbar = xb_size * (
        params.dac_power_of(res_dac) + params.sample_hold_power
    )
    return total_macros * per_macro + total_crossbars * per_crossbar


def allocate_components(
    geometries: Sequence[LayerGeometry],
    macro_groups: Sequence[Sequence[int]],
    budget: PowerBudget,
    params: HardwareParams,
    res_dac: int,
    model: CNNModel,
    sharing_pairs: Sequence[Tuple[int, int]] = (),
    identical_macros: bool = False,
    overlap_window: int = 4,
) -> ComponentAllocation:
    """Solve Eq. 5 via the Eq. 6 closed form (plus sharing post-pass).

    Parameters
    ----------
    geometries:
        Stage-2 layer geometries (carry WtDup, set sizes, block counts).
    macro_groups:
        Stage-3 partition: macro ids per layer.
    sharing_pairs:
        ``(j, i)`` with ``j < i``: layer pairs reusing one macro set.
    identical_macros:
        Provision every macro with the chip-wide maximum per-macro bank
        (the §V-C2 "identical" design); costs power, never performance.
    overlap_window:
        Layers closer than this contend for the shared ADC bank
        (Fig. 5a); the penalty decays linearly with distance.

    Raises
    ------
    InfeasibleError
        When fixed overhead alone exceeds the peripheral budget.
    """
    bits = params.act_bit_iterations(res_dac)
    adc_wl, alu_wl = layer_workloads(geometries, model, bits)

    xb_size = budget.xb_size
    adc_lo, adc_hi = params.adc_resolution_range
    adc_resolutions = [
        required_adc_resolution(
            min(xb_size, geo.rows), budget.res_rram, res_dac,
            min_resolution=adc_lo, max_resolution=adc_hi,
        )
        for geo in geometries
    ]

    fixed = fixed_overhead_power(
        geometries, macro_groups, params, xb_size, res_dac
    )
    available = budget.peripheral_power - fixed
    if available <= 0:
        raise InfeasibleError(
            f"fixed peripheral overhead {fixed:.3f}W exceeds the "
            f"peripheral budget {budget.peripheral_power:.3f}W"
        )

    adc_rate = params.adc_sample_rate
    alu_rate = params.alu_frequency
    adc_powers = [params.adc_power_of(r) for r in adc_resolutions]

    if identical_macros:
        return _allocate_identical(
            geometries, macro_groups, adc_wl, alu_wl, adc_resolutions,
            params, fixed, available,
        )

    # Eq. 6 denominator: sum over layers and components of P*Wl/F.
    denom = ordered_sum(
        p * wl / adc_rate for p, wl in zip(adc_powers, adc_wl)
    ) + ordered_sum(params.alu_power * wl / alu_rate for wl in alu_wl)
    if denom <= 0:
        raise InfeasibleError("no peripheral workload to allocate for")

    balanced_delay = denom / available
    adc_alloc = [
        wl / (adc_rate * balanced_delay) for wl in adc_wl
    ]
    alu_alloc = [
        wl / (alu_rate * balanced_delay) for wl in alu_wl
    ]

    # ------------------------------------------------------------------
    # Sharing post-pass: merge paired ADC banks, redistribute the savings.
    # A merged bank runs at the pair's max resolution, so merging a large
    # cheap-resolution bank with a tiny expensive one can *cost* power —
    # such pairs are skipped (the hardware simply would not share them).
    # ------------------------------------------------------------------
    savings = 0.0
    shared_of: Dict[int, int] = {}
    for j, i in sharing_pairs:
        bank = max(adc_alloc[j], adc_alloc[i])
        bank_power_unit = max(adc_powers[j], adc_powers[i])
        separate = adc_powers[j] * adc_alloc[j] + adc_powers[i] * adc_alloc[i]
        merged = bank_power_unit * bank
        if merged >= separate:
            continue
        savings += separate - merged
        shared_of[j] = i
        shared_of[i] = j

    scale = 1.0
    if savings > 0 and savings < available:
        scale = available / (available - savings)

    layers: List[LayerAllocation] = []
    for idx, geo in enumerate(geometries):
        partner = shared_of.get(idx)
        if partner is not None:
            bank = max(adc_alloc[idx], adc_alloc[partner]) * scale
            distance = abs(idx - partner)
            overlap = max(0.0, 1.0 - distance / max(1, overlap_window))
            effective_adc = bank / (1.0 + overlap)
        else:
            effective_adc = adc_alloc[idx] * scale
        effective_alu = alu_alloc[idx] * scale
        layers.append(
            LayerAllocation(
                adc=effective_adc,
                alu=effective_alu,
                adc_resolution=adc_resolutions[idx],
                adc_delay=adc_wl[idx] / (adc_rate * effective_adc),
                alu_delay=alu_wl[idx] / (alu_rate * effective_alu),
                shared_with=partner,
            )
        )

    # Power actually drawn by ADC banks (shared pairs counted once) + ALUs.
    adc_power_used = 0.0
    counted = set()
    for idx in range(len(geometries)):
        partner = shared_of.get(idx)
        if partner is not None:
            key = (min(idx, partner), max(idx, partner))
            if key in counted:
                continue
            counted.add(key)
            bank = max(adc_alloc[idx], adc_alloc[partner]) * scale
            adc_power_used += max(adc_powers[idx], adc_powers[partner]) * bank
        else:
            adc_power_used += adc_powers[idx] * adc_alloc[idx] * scale
    alu_power_used = ordered_sum(
        params.alu_power * a * scale for a in alu_alloc
    )

    return ComponentAllocation(
        layers=layers,
        fixed_power=fixed,
        adc_alu_power=adc_power_used + alu_power_used,
        balanced_delay=balanced_delay / scale,
        sharing_savings=savings,
    )


def _allocate_identical(
    geometries: Sequence[LayerGeometry],
    macro_groups: Sequence[Sequence[int]],
    adc_wl: List[float],
    alu_wl: List[float],
    adc_resolutions: List[int],
    params: HardwareParams,
    fixed: float,
    available: float,
) -> ComponentAllocation:
    """Identical-macro variant (§V-C2 baseline).

    Every macro carries the same ADC bank and ALU count, sized so the
    *bottleneck* layer (largest per-macro workload) meets the power
    budget; other layers' banks are overprovisioned copies, so power is
    wasted relative to the specialized design, which is exactly the
    effect Fig. 8 measures.
    """
    total_macros = len({m for group in macro_groups for m in group})
    macro_count = [max(1, len(g)) for g in macro_groups]

    # Identical macros must carry the worst-case ADC resolution.
    max_resolution = max(adc_resolutions)
    adc_power_unit = params.adc_power_of(max_resolution)
    adc_rate = params.adc_sample_rate
    alu_rate = params.alu_frequency

    # The per-macro demand rates that size the uniform banks.
    max_adc_rate_demand = max(
        wl / m for wl, m in zip(adc_wl, macro_count)
    )
    max_alu_rate_demand = max(
        wl / m for wl, m in zip(alu_wl, macro_count)
    )

    adc_share_weight = adc_power_unit * max_adc_rate_demand / adc_rate
    alu_share_weight = params.alu_power * max_alu_rate_demand / alu_rate
    weight_sum = adc_share_weight + alu_share_weight
    if weight_sum <= 0:
        raise InfeasibleError("no peripheral workload to allocate for")

    adc_power_total = available * adc_share_weight / weight_sum
    alu_power_total = available * alu_share_weight / weight_sum
    per_macro_adc = adc_power_total / (total_macros * adc_power_unit)
    per_macro_alu = alu_power_total / (total_macros * params.alu_power)
    if per_macro_adc <= 0 or per_macro_alu <= 0:
        raise InfeasibleError("identical-macro budget collapsed to zero")

    layers = []
    for idx, _geo in enumerate(geometries):
        bank = per_macro_adc * macro_count[idx]
        lanes = per_macro_alu * macro_count[idx]
        layers.append(
            LayerAllocation(
                adc=bank,
                alu=lanes,
                adc_resolution=max_resolution,
                adc_delay=adc_wl[idx] / (adc_rate * bank),
                alu_delay=alu_wl[idx] / (alu_rate * lanes),
                shared_with=None,
            )
        )
    return ComponentAllocation(
        layers=layers,
        fixed_power=fixed,
        adc_alu_power=adc_power_total + alu_power_total,
        balanced_delay=max(
            max(l.adc_delay for l in layers),
            max(l.alu_delay for l in layers),
        ),
        sharing_savings=0.0,
    )
