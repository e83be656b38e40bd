"""Analytical performance model used inside the DSE loops.

§IV-B: "the performance of synthesized accelerators can be estimated by
the depth of the IR-based DAG and the IRs' latencies". At DSE scale we
exploit the DAG's regularity instead of walking it: within a layer, the
per-block IRs pipeline, so a layer's per-image time is the maximum of its
per-stage times (MVM / ADC / ALU / load / store / merge+transfer); across
layers, the inter-layer pipeline makes the steady-state image period the
maximum over layers. The windowed discrete-event simulator in
:mod:`repro.sim` validates this estimate on final solutions.

Metrics follow §V:

- throughput (images/s and TOPS),
- power efficiency (TOPS/W) at the *actual* drawn power,
- single-image latency (pipeline fill + slowest layer),
- energy per image and EDP (Table V's metrics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.component_alloc import ComponentAllocation
from repro.hardware.noc import MeshNoC
from repro.hardware.params import HardwareParams
from repro.hardware.power import PowerBudget
from repro.ir.builder import DataflowSpec, DataflowBuilder, LayerGeometry
from repro.nn.workload import model_macs
from repro.utils.mathutils import ordered_sum


@dataclass
class LayerTiming:
    """Per-image stage times of one layer (seconds)."""

    mvm: float
    adc: float
    alu: float
    load: float
    store: float
    comm: float

    @property
    def total(self) -> float:
        """The layer's per-image time: its slowest pipelined stage."""
        return max(self.mvm, self.adc, self.alu, self.load, self.store,
                   self.comm)

    @property
    def bottleneck(self) -> str:
        stages = {
            "mvm": self.mvm, "adc": self.adc, "alu": self.alu,
            "load": self.load, "store": self.store, "comm": self.comm,
        }
        return max(stages, key=lambda k: stages[k])


@dataclass
class EvaluationResult:
    """Scalar metrics plus per-layer diagnostics for one design."""

    period: float  # steady-state seconds per image
    latency: float  # single-image latency (fill + steady)
    throughput: float  # images per second
    tops: float  # tera-ops (2*MACs) per second
    power: float  # watts actually drawn
    tops_per_watt: float
    energy_per_image: float  # joules
    edp: float  # energy * latency (ms * mJ scale handled by caller)
    layer_timings: List[LayerTiming] = field(default_factory=list)
    bottleneck_layer: int = -1

    @property
    def fitness(self) -> float:
        """EA fitness (§IV-C2): accelerator performance = images/s."""
        return self.throughput


def throughput_upper_bound(
    spec: DataflowSpec,
    budget: PowerBudget,
    enable_macro_sharing: bool = True,
) -> float:
    """Sound best-case throughput (img/s) of a stage-2 spec (pruning bound).

    Used by the DSE executor to discard dominated (WtDup, ResDAC) tasks
    before their EA launches: no macro partition / component allocation
    can push a design past this bound, so a task whose bound cannot beat
    the incumbent cannot change Alg. 1's outcome. Two floors are
    combined through the :class:`LayerTiming` pipeline model:

    - **structural floor** — per-layer best-case stage times that no
      allocation can improve: the exact crossbar-bound MVM time, and
      eDRAM load/store through the largest macro group rule c permits
      (ADC/ALU/comm taken as zero);
    - **power floor** — Eq. 6 says holding every (layer, component)
      delay at ``D`` costs ``sum(P * Wl / Freq) / D`` watts, which must
      fit in the peripheral budget minus a lower bound on the fixed
      structural overhead (``ceil(L/2)`` macros when rule-b sharing may
      halve the macro count, ``L`` otherwise; DAC/S&H scale with the
      spec's exact crossbar count). Pair sharing can at best serve two
      ADC banks for the price of one, so the ADC term is halved when
      sharing is enabled.

    Returns 0.0 when even the overhead floor exceeds the peripheral
    budget (every partition of this spec is infeasible).

    The floors are computed through the *real* model's own functions
    (``PerformanceEvaluator`` stage times, ``fixed_overhead_power``,
    ``layer_workloads``) evaluated at best-case arguments, so a change
    to the power/timing model propagates into the bound instead of
    silently unsoundening the pruning.
    """
    from repro.core.component_alloc import (
        fixed_overhead_power,
        layer_workloads,
    )
    from repro.hardware.crossbar import required_adc_resolution

    params = spec.params
    geometries = spec.geometries
    evaluator = PerformanceEvaluator(spec, budget)
    # Rule c caps the macros a layer can spread over; the largest cap
    # bounds every group's eDRAM port count, hence load/store times.
    max_group = max(
        min(geo.wt_dup * geo.row_tiles, geo.crossbars)
        for geo in geometries
    )
    structural = []
    for geo in geometries:
        load, store = evaluator._memory_times(geo, max_group)
        structural.append(LayerTiming(
            mvm=evaluator._mvm_time(geo),
            adc=0.0, alu=0.0, load=load, store=store, comm=0.0,
        ))
    period_floor = max(timing.total for timing in structural)

    # Fewest macros any partition can use: rule b shares pairs only,
    # so ceil(L/2) with sharing, one per layer without.
    n_layers = len(geometries)
    min_groups = (
        [[index // 2] for index in range(n_layers)]
        if enable_macro_sharing
        else [[index] for index in range(n_layers)]
    )
    fixed_floor = fixed_overhead_power(
        geometries, min_groups, params, budget.xb_size, spec.res_dac
    )
    available = budget.peripheral_power - fixed_floor
    if available <= 0:
        return 0.0

    adc_wl, alu_wl = layer_workloads(spec.geometries, spec.model, spec.bits)
    adc_lo, adc_hi = params.adc_resolution_range
    adc_denom = ordered_sum(
        params.adc_power_of(
            required_adc_resolution(
                min(budget.xb_size, geo.rows), budget.res_rram,
                spec.res_dac,
                min_resolution=adc_lo, max_resolution=adc_hi,
            )
        ) * wl / params.adc_sample_rate
        for geo, wl in zip(geometries, adc_wl)
    )
    alu_denom = ordered_sum(
        params.alu_power * wl / params.alu_frequency for wl in alu_wl
    )
    if enable_macro_sharing:
        adc_denom /= 2.0
    period_floor = max(period_floor, (adc_denom + alu_denom) / available)
    if period_floor <= 0:
        return math.inf
    return 1.0 / period_floor


class PerformanceEvaluator:
    """Evaluates (MacAlloc, CompAlloc) points for one dataflow spec."""

    def __init__(
        self,
        spec: DataflowSpec,
        budget: PowerBudget,
    ) -> None:
        self.spec = spec
        self.budget = budget
        self.params: HardwareParams = spec.params
        self._macs = model_macs(spec.model)
        self._builder = DataflowBuilder(spec)

    # ------------------------------------------------------------------
    # Stage times
    # ------------------------------------------------------------------
    def _bytes_per_activation(self) -> float:
        return self.spec.model.act_precision / 8.0

    def _mvm_time(self, geo: LayerGeometry) -> float:
        """Crossbar-bound time: every block runs ``bits`` analog reads."""
        return (
            geo.total_blocks * self.spec.bits * self.params.crossbar_latency
        )

    def _memory_times(
        self, geo: LayerGeometry, n_macros: int
    ) -> Tuple[float, float]:
        """(load, store) per-image times through the macro scratchpads."""
        act_bytes = self._bytes_per_activation()
        bandwidth = self.params.edram_bandwidth * max(1, n_macros)
        load = geo.total_blocks * geo.inputs_per_block * act_bytes / bandwidth
        store = (
            geo.total_blocks * geo.outputs_per_block * act_bytes / bandwidth
        )
        return load, store

    def _comm_time(
        self,
        geo: LayerGeometry,
        macro_groups: Sequence[Sequence[int]],
        noc: MeshNoC,
        consumers: Dict[int, List[int]],
    ) -> float:
        """Merge + transfer per-image time attributed to this layer."""
        act_bytes = self._bytes_per_activation()
        group = list(macro_groups[geo.index])
        time = 0.0

        # Partial-sum merge when the layer's row tiles span macros.
        # A block's outputs need ``row_tiles`` partials summed; the
        # reduction tree has ceil(log2(row_tiles)) rounds, and in each
        # round every participating macro ships its slice of the operand
        # through its own NoC port concurrently (neighbors are adjacent
        # mesh nodes since groups are contiguous id ranges).
        if len(group) > 1 and geo.row_tiles > 1:
            rounds = math.ceil(math.log2(geo.row_tiles))
            per_round_bytes = (
                geo.outputs_per_block * act_bytes / len(group)
            )
            neighbor_hops = noc.hops(group[0], group[1])
            per_block = rounds * (
                per_round_bytes / self.params.noc_port_bandwidth
                + max(1, neighbor_hops) * self.params.noc_hop_latency
            )
            time += geo.total_blocks * per_block

        # Activation transfers to each consumer's macros: all source
        # ports stream in parallel, bounded by the receiver's ports.
        # Representative range-end hops stand in for the min over pairs.
        out_bytes = geo.out_positions * geo.cols * act_bytes
        for consumer_idx in consumers.get(geo.index, []):
            dst_group = macro_groups[consumer_idx]
            if set(group) == set(dst_group):
                continue  # same macros: intra-macro store/load covers it
            hops = min(
                noc.hops(group[0], dst_group[0]),
                noc.hops(group[-1], dst_group[0]),
                noc.hops(group[0], dst_group[-1]),
                noc.hops(group[-1], dst_group[-1]),
            )
            ports = min(len(group), len(dst_group))
            serialization = out_bytes / (
                self.params.noc_port_bandwidth * ports
            )
            head = geo.total_blocks * hops * self.params.noc_hop_latency
            time += serialization + head
        return time

    # ------------------------------------------------------------------
    # Full evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        macro_groups: Sequence[Sequence[int]],
        allocation: ComponentAllocation,
    ) -> EvaluationResult:
        """Score one complete design (partition + allocation)."""
        spec = self.spec
        total_macros = len({m for g in macro_groups for m in g})
        noc = MeshNoC(num_macros=max(1, total_macros), params=self.params)

        consumers: Dict[int, List[int]] = {}
        for producer, consumer in spec.model.interlayer_edges():
            consumers.setdefault(producer, []).append(consumer)

        timings: List[LayerTiming] = []
        for geo, layer_alloc in zip(spec.geometries, allocation.layers):
            n_macros = max(1, len(macro_groups[geo.index]))
            load, store = self._memory_times(geo, n_macros)
            timings.append(
                LayerTiming(
                    mvm=self._mvm_time(geo),
                    adc=layer_alloc.adc_delay,
                    alu=layer_alloc.alu_delay,
                    load=load,
                    store=store,
                    comm=self._comm_time(
                        geo, macro_groups, noc, consumers
                    ),
                )
            )

        period = max(t.total for t in timings)
        bottleneck = max(
            range(len(timings)), key=lambda i: timings[i].total
        )
        latency = self._single_image_latency(timings)

        power = self._actual_power(allocation)
        tops = 2.0 * self._macs / period / 1e12
        energy = power * latency
        return EvaluationResult(
            period=period,
            latency=latency,
            throughput=1.0 / period,
            tops=tops,
            power=power,
            tops_per_watt=tops / power if power > 0 else 0.0,
            energy_per_image=energy,
            edp=energy * latency,
            layer_timings=timings,
            bottleneck_layer=bottleneck,
        )

    def _single_image_latency(self, timings: List[LayerTiming]) -> float:
        """Fine-grained pipeline latency of one image (§IV-B).

        Layer ``c`` starts once each producer has produced the first
        consumer block's inputs — the fraction pinned by
        :meth:`DataflowBuilder.producer_block_for` at ``cnt=0``. The
        image completes when the last layer drains.
        """
        spec = self.spec
        starts = [0.0] * len(timings)
        ends = [0.0] * len(timings)
        producer_of: Dict[int, List[int]] = {}
        for producer, consumer in spec.model.interlayer_edges():
            producer_of.setdefault(consumer, []).append(producer)

        for idx, timing in enumerate(timings):
            start = 0.0
            for producer in producer_of.get(idx, []):
                geo_p = spec.geometries[producer]
                first_needed = self._builder.producer_block_for(
                    geo_p, spec.geometries[idx], 0
                )
                fraction = (first_needed + 1) / geo_p.total_blocks
                start = max(
                    start, starts[producer] + timings[producer].total
                    * fraction
                )
            starts[idx] = start
            ends[idx] = start + timing.total
        return max(ends) if ends else 0.0

    def _actual_power(self, allocation: ComponentAllocation) -> float:
        """Power the realized chip draws (<= the constraint)."""
        used_crossbars = sum(g.crossbars for g in self.spec.geometries)
        rram = used_crossbars * self.params.crossbar_power_of(
            self.budget.xb_size
        )
        return rram + allocation.total_peripheral_power

    # ------------------------------------------------------------------
    # Peak metrics (Table IV)
    # ------------------------------------------------------------------
    def peak_metrics(
        self, allocation: ComponentAllocation
    ) -> Tuple[float, float]:
        """(peak TOPS, peak TOPS/W) with every resource saturated.

        Peak throughput multiplies every crossbar's dense MVM rate —
        ``2 * XbSize^2`` MACs per full-precision MVM, which takes
        ``bit_slices * bits`` analog reads — capped by what the chip's
        total ADC capability can drain.
        """
        params = self.params
        xb = self.budget.xb_size
        slices = -(-self.spec.model.weight_precision // self.budget.res_rram)
        bits = self.spec.bits
        used_crossbars = sum(g.crossbars for g in self.spec.geometries)

        reads_per_mvm = slices * bits
        crossbar_ops_rate = (
            used_crossbars * 2.0 * xb * xb
            / (reads_per_mvm * params.crossbar_latency)
        )
        # Each analog read of a crossbar needs XbSize conversions; ops
        # carried per conversion = 2*XbSize / (slices*bits).
        total_adcs = sum(l.adc for l in allocation.layers)
        ops_per_conversion = 2.0 * xb / reads_per_mvm
        adc_ops_rate = total_adcs * params.adc_sample_rate * ops_per_conversion

        peak_rate = min(crossbar_ops_rate, adc_ops_rate)
        power = self._actual_power(allocation)
        peak_tops = peak_rate / 1e12
        return peak_tops, (peak_tops / power if power > 0 else 0.0)
