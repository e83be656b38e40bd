"""Hardware resource pools for the simulator.

Each Table II IR opcode executes on one class of physical resource
from the Fig. 2 macro inventory (crossbar PEs, the ADC bank, ALUs, the
eDRAM ports, NoC links); within a
layer, that resource is a *bank* whose internal parallelism is already
folded into the IR's service time (an ADC IR converting ``vec_width``
samples on an ``n``-ADC bank takes ``vec_width / (rate * n)``). The bank
itself processes IRs serially, which is what the pool enforces: each
(kind, layer) pair carries an availability time, and scheduling a node
pushes it forward. ``capacity > 1`` pools model multi-ported resources.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import SimulationError
from repro.ir.nodes import IRNode, IROp


class ResourceKind(enum.Enum):
    """Physical resource classes IRs contend for."""

    CROSSBAR_SET = "crossbar_set"  # the layer's PE arrays (MVM)
    ADC_BANK = "adc_bank"
    ALU_BANK = "alu_bank"
    MEMORY_PORT = "memory_port"  # scratchpad read+write ports
    NOC_PORT = "noc_port"  # inter-macro links


_OP_TO_KIND = {
    IROp.MVM: ResourceKind.CROSSBAR_SET,
    IROp.ADC: ResourceKind.ADC_BANK,
    IROp.ALU: ResourceKind.ALU_BANK,
    IROp.LOAD: ResourceKind.MEMORY_PORT,
    IROp.STORE: ResourceKind.MEMORY_PORT,
    IROp.MERGE: ResourceKind.NOC_PORT,
    IROp.TRANSFER: ResourceKind.NOC_PORT,
}


def resource_of(node: IRNode) -> ResourceKind:
    """The resource class a node occupies while executing."""
    return _OP_TO_KIND[node.op]


@dataclass
class ResourcePool:
    """Availability bookkeeping for every (kind, layer) bank.

    ``shared_banks`` maps a layer to its macro-sharing partner so both
    layers contend for one physical ADC bank (§IV-C1 rule b): lookups
    canonicalize the layer index to the pair's owner.
    """

    capacities: Dict[Tuple[ResourceKind, int], int] = field(
        default_factory=dict
    )
    shared_banks: Dict[int, int] = field(default_factory=dict)
    _free_at: Dict[Tuple[ResourceKind, int], List[float]] = field(
        default_factory=dict, repr=False
    )

    def _key(self, kind: ResourceKind, layer: int) -> Tuple[ResourceKind, int]:
        if kind is ResourceKind.ADC_BANK and layer in self.shared_banks:
            layer = min(layer, self.shared_banks[layer])
        return (kind, layer)

    def _slots(self, key: Tuple[ResourceKind, int]) -> List[float]:
        if key not in self._free_at:
            capacity = self.capacities.get(key, 1)
            if capacity < 1:
                raise SimulationError(f"resource {key} has capacity < 1")
            self._free_at[key] = [0.0] * capacity
        return self._free_at[key]

    def earliest_start(
        self, node: IRNode, ready: float
    ) -> float:
        """When could ``node`` start, given readiness and availability?"""
        slots = self._slots(self._key(resource_of(node), node.layer))
        return max(ready, min(slots))

    def occupy(self, node: IRNode, start: float, finish: float) -> None:
        """Commit ``node`` to its resource for [start, finish)."""
        if finish < start:
            raise SimulationError(
                f"negative duration for {node.describe()}"
            )
        slots = self._slots(self._key(resource_of(node), node.layer))
        best = min(range(len(slots)), key=lambda i: slots[i])
        if slots[best] > start + 1e-18:
            raise SimulationError(
                f"resource conflict scheduling {node.describe()}: "
                f"slot free at {slots[best]}, start {start}"
            )
        slots[best] = finish
