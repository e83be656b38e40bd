"""Per-IR latency model.

Each IR corresponds to one hardware intrinsic (§IV-B); its latency is
the intrinsic's workload over its allocated resources — the same rates
the analytical evaluator uses, so simulator and evaluator agree on a
contention-free DAG by construction. The simulator then adds what the
analytical model cannot see: bank serialization and schedule-order
effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.component_alloc import ComponentAllocation
from repro.errors import SimulationError
from repro.hardware.noc import MeshNoC
from repro.hardware.params import HardwareParams
from repro.ir.builder import DataflowSpec
from repro.ir.nodes import IRNode, IROp


@dataclass
class IRLatencyModel:
    """Maps IR nodes to service times for one synthesized design."""

    spec: DataflowSpec
    allocation: ComponentAllocation
    macro_groups: Sequence[Sequence[int]]
    noc: MeshNoC

    def __post_init__(self) -> None:
        if len(self.allocation.layers) != self.spec.num_layers:
            raise SimulationError(
                "allocation and spec disagree on layer count"
            )
        self._act_bytes = self.spec.model.act_precision / 8.0

    @property
    def params(self) -> HardwareParams:
        return self.spec.params

    def latency(self, node: IRNode) -> float:
        """Service time of one IR node in seconds."""
        layer_alloc = self.allocation.layers[node.layer]
        params = self.params

        if node.op == IROp.MVM:
            # One analog read; DAC + crossbar + S&H are indivisible.
            return params.crossbar_latency

        if node.op == IROp.ADC:
            return node.vec_width / (
                params.adc_sample_rate * max(layer_alloc.adc, 1e-9)
            )

        if node.op == IROp.ALU:
            return node.vec_width / (
                params.alu_frequency * max(layer_alloc.alu, 1e-9)
            )

        if node.op in (IROp.LOAD, IROp.STORE):
            n_macros = max(1, len(self.macro_groups[node.layer]))
            bandwidth = params.edram_bandwidth * n_macros
            return node.vec_width * self._act_bytes / bandwidth

        if node.op == IROp.MERGE:
            group = list(self.macro_groups[node.layer])
            row_tiles = self.spec.geometries[node.layer].row_tiles
            if len(group) <= 1 or row_tiles <= 1:
                return 0.0
            import math

            rounds = math.ceil(math.log2(row_tiles))
            per_round_bytes = (
                node.vec_width * self._act_bytes / len(group)
            )
            neighbor_hops = max(1, self.noc.hops(group[0], group[1]))
            return rounds * (
                per_round_bytes / params.noc_port_bandwidth
                + neighbor_hops * params.noc_hop_latency
            )

        if node.op == IROp.TRANSFER:
            # Source ports stream in parallel but the receiver drains
            # them: effective width is min(src, dst) ports, matching
            # the analytical evaluator's serialization term.
            ports = max(1, len(self.macro_groups[node.layer]))
            if node.dst_layer >= 0:
                ports = min(
                    ports,
                    max(1, len(self.macro_groups[node.dst_layer])),
                )
            hops = self.noc.hops(node.src, node.dst)
            return (
                node.vec_width * self._act_bytes
                / (params.noc_port_bandwidth * ports)
                + hops * params.noc_hop_latency
            )

        raise SimulationError(f"no latency rule for {node.op}")
