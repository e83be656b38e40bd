"""Execution traces: what ran where, when.

One :class:`TraceEvent` per scheduled IR records the node, its opcode,
layer, resource bank, and start/end times — the ground truth behind
§IV-B's claim that DAG depth and IR latencies estimate performance.
The trace is both a debugging artifact and the substrate for the
simulator's invariant tests (dependencies respected, no resource bank
runs two IRs at once) and for the Gantt rendering in
:mod:`repro.analysis.gantt`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.errors import SimulationError
from repro.ir.nodes import IRNode, IROp
from repro.sim.resources import ResourceKind, resource_of


@dataclass(frozen=True)
class ScheduledNode:
    """One IR execution interval."""

    node: IRNode
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start

    def to_record(self) -> Dict[str, object]:
        """JSON-safe dict: the node's Table II parameters + interval."""
        node = self.node
        return {
            "op": node.op.value,
            "layer": node.layer,
            "cnt": node.cnt,
            "bit": node.bit,
            "xb_num": node.xb_num,
            "vec_width": node.vec_width,
            "aluop": node.aluop,
            "macro_num": node.macro_num,
            "src": node.src,
            "dst": node.dst,
            "dst_layer": node.dst_layer,
            "node_id": node.node_id,
            "start": self.start,
            "finish": self.finish,
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "ScheduledNode":
        try:
            node = IRNode(
                op=IROp(record["op"]),
                layer=int(record["layer"]),
                cnt=int(record["cnt"]),
                bit=int(record["bit"]),
                xb_num=int(record["xb_num"]),
                vec_width=int(record["vec_width"]),
                aluop=record["aluop"],
                macro_num=int(record["macro_num"]),
                src=int(record["src"]),
                dst=int(record["dst"]),
                dst_layer=int(record.get("dst_layer", -1)),
                node_id=int(record["node_id"]),
            )
            return cls(
                node=node,
                start=float(record["start"]),
                finish=float(record["finish"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise SimulationError(
                f"malformed trace record: {record!r} ({exc})"
            ) from exc


@dataclass
class SimTrace:
    """Append-only record of a simulation run.

    Per-layer queries (store times, first starts, makespan) are served
    from a lazily built one-pass index instead of one linear scan per
    layer — :func:`repro.sim.metrics.extrapolate` asks for every
    layer, which used to cost ``O(layers x entries)``. The index is
    invalidated on :meth:`record`, and the answers are float-identical
    to the scans they replace (same values, same sort).
    """

    entries: List[ScheduledNode] = field(default_factory=list)
    _index: object = field(default=None, repr=False, compare=False)

    def record(self, node: IRNode, start: float, finish: float) -> None:
        self.entries.append(ScheduledNode(node, start, finish))
        self._index = None

    def _layer_index(self):
        if self._index is None:
            stores: Dict[int, List[float]] = {}
            starts: Dict[int, float] = {}
            makespan = 0.0
            for e in self.entries:
                layer = e.node.layer
                if e.finish > makespan:
                    makespan = e.finish
                held = starts.get(layer)
                if held is None or e.start < held:
                    starts[layer] = e.start
                if e.node.op.value == "store":
                    stores.setdefault(layer, []).append(e.finish)
            self._index = (stores, starts, makespan)
        return self._index

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ScheduledNode]:
        return iter(self.entries)

    @property
    def makespan(self) -> float:
        """Completion time of the last IR."""
        return self._layer_index()[2]

    def by_resource(
        self,
    ) -> Dict[Tuple[ResourceKind, int], List[ScheduledNode]]:
        """Group intervals by (resource kind, layer) bank."""
        groups: Dict[Tuple[ResourceKind, int], List[ScheduledNode]] = {}
        for entry in self.entries:
            key = (resource_of(entry.node), entry.node.layer)
            groups.setdefault(key, []).append(entry)
        for intervals in groups.values():
            intervals.sort(key=lambda e: e.start)
        return groups

    def store_times_of_layer(self, layer: int) -> List[float]:
        """Sorted store-IR finish times of one layer (period extraction)."""
        return sorted(self._layer_index()[0].get(layer, ()))

    def first_start_of_layer(self, layer: int) -> float:
        """Earliest start time among one layer's IRs."""
        starts = self._layer_index()[1]
        if layer not in starts:
            raise KeyError(f"layer {layer} not in trace")
        return starts[layer]

    def to_records(self) -> List[Dict[str, object]]:
        """The whole trace as JSON-safe dicts, in schedule order."""
        return [entry.to_record() for entry in self.entries]

    def to_jsonl(self) -> str:
        """One JSON object per line per scheduled IR (``--trace-out``).

        The encoding is lossless: :meth:`from_jsonl` rebuilds an
        equal trace (same nodes, same intervals, same order), which the
        test suite pins as a round-trip invariant for both engines.
        """
        return "\n".join(
            json.dumps(record, sort_keys=True)
            for record in self.to_records()
        )

    @classmethod
    def from_records(
        cls, records: List[Dict[str, object]]
    ) -> "SimTrace":
        trace = cls()
        for record in records:
            trace.entries.append(ScheduledNode.from_record(record))
        return trace

    @classmethod
    def from_jsonl(cls, text: str) -> "SimTrace":
        """Inverse of :meth:`to_jsonl` (blank lines are skipped)."""
        records = []
        for line in text.splitlines():
            line = line.strip()
            if line:
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise SimulationError(
                        f"malformed trace line: {line[:80]!r} ({exc})"
                    ) from exc
        return cls.from_records(records)
