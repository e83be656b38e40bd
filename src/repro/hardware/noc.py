"""2-D mesh network-on-chip model.

Macros are interconnected through a NoC (Fig. 2a). The model here is the
standard analytic mesh: macros placed on a near-square grid in row-major
layer order, XY dimension-ordered routing, per-hop router latency plus
serialization time at the flit width. This supplies the latencies of the
``transfer`` and ``merge`` inter-macro IRs (Table II).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.hardware.params import HardwareParams
from repro.utils.mathutils import ceil_div


@dataclass(frozen=True)
class MeshNoC:
    """An ``rows x cols`` mesh of routers, one macro per router."""

    num_macros: int
    params: HardwareParams

    def __post_init__(self) -> None:
        if self.num_macros <= 0:
            raise ConfigurationError("NoC needs at least one macro")

    @property
    def cols(self) -> int:
        return max(1, math.ceil(math.sqrt(self.num_macros)))

    @property
    def rows(self) -> int:
        return ceil_div(self.num_macros, self.cols)

    def position(self, macro_id: int) -> Tuple[int, int]:
        """Row-major (row, col) placement of a macro index."""
        if not 0 <= macro_id < self.num_macros:
            raise ConfigurationError(
                f"macro id {macro_id} out of range [0, {self.num_macros})"
            )
        return divmod(macro_id, self.cols)

    def hops(self, src: int, dst: int) -> int:
        """Manhattan hop count under XY routing."""
        (r1, c1), (r2, c2) = self.position(src), self.position(dst)
        return abs(r1 - r2) + abs(c1 - c2)

    def xy_route(self, src: int, dst: int) -> Tuple[Tuple[int, int], ...]:
        """Directed router-to-router links of the XY route ``src -> dst``.

        Dimension-ordered: the packet first corrects its column (X),
        then its row (Y). Each element is a ``(from_node, to_node)``
        pair where nodes are identified by their row-major grid index
        (``row * cols + col``) — for off-grid filler positions this can
        exceed ``num_macros - 1``, which is fine for occupancy keys.
        The cycle simulator claims these links for the duration of a
        transfer; ``len(route) == self.hops(src, dst)``.
        """
        (r1, c1), (r2, c2) = self.position(src), self.position(dst)
        links: List[Tuple[int, int]] = []
        row, col = r1, c1
        step = 1 if c2 > col else -1
        while col != c2:
            here = row * self.cols + col
            col += step
            links.append((here, row * self.cols + col))
        step = 1 if r2 > row else -1
        while row != r2:
            here = row * self.cols + col
            row += step
            links.append((here, row * self.cols + col))
        return tuple(links)

    def transfer_latency(self, src: int, dst: int, num_bytes: int) -> float:
        """Latency of moving ``num_bytes`` from ``src`` to ``dst``.

        Head latency (hops x per-hop) plus serialization of the payload
        at one port's bandwidth; wormhole routing overlaps the two, so
        the payload term is not multiplied by hop count.
        """
        if num_bytes < 0:
            raise ConfigurationError("transfer size must be non-negative")
        if src == dst or num_bytes == 0:
            return 0.0
        head = self.hops(src, dst) * self.params.noc_hop_latency
        serialization = num_bytes / self.params.noc_port_bandwidth
        return head + serialization

    def merge_latency(self, macro_ids: List[int], num_bytes: int) -> float:
        """Latency of an all-to-one partial-sum merge (the ``merge`` IR).

        Modeled as a binary reduction tree over the participating macros:
        ``ceil(log2(n))`` rounds, each a worst-case-distance transfer of
        the full operand.
        """
        if len(macro_ids) <= 1 or num_bytes == 0:
            return 0.0
        rounds = math.ceil(math.log2(len(macro_ids)))
        worst = max(
            self.transfer_latency(a, b, num_bytes)
            for a in macro_ids
            for b in macro_ids
            if a != b
        )
        return rounds * worst

    def total_power(self) -> float:
        """Aggregate router power (one router per macro)."""
        return self.num_macros * self.params.noc_power

    def average_hops(self) -> float:
        """Mean hop distance over all ordered macro pairs (reporting)."""
        if self.num_macros == 1:
            return 0.0
        total = 0
        count = 0
        for a in range(self.num_macros):
            for b in range(self.num_macros):
                if a != b:
                    total += self.hops(a, b)
                    count += 1
        return total / count


def neighbor_distance_hops(
    macro_of_layer: Dict[int, List[int]], producer: int, consumer: int,
    noc: MeshNoC,
) -> int:
    """Minimum hop distance between any macro of two layers' macro groups.

    Used to price inter-layer activation ``transfer`` IRs when layers own
    multiple macros each: the dataflow sends each activation from the
    producing macro to the nearest consuming macro.
    """
    src_macros = macro_of_layer.get(producer, [])
    dst_macros = macro_of_layer.get(consumer, [])
    if not src_macros or not dst_macros:
        return 0
    return min(noc.hops(s, d) for s in src_macros for d in dst_macros)
