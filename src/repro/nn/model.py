"""The :class:`CNNModel` container.

A model is a named DAG of layers plus the quantification precisions the
paper treats as fixed inputs (16-bit activations and weights in all
experiments). The container validates the graph, topologically sorts it,
runs shape inference, and exposes the *weighted-layer* view that all four
synthesis stages operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.nn.layers import Layer, LayerKind
from repro.nn.shapes import Shape, infer_shapes


@dataclass
class CNNModel:
    """A validated, shape-inferred CNN description.

    Parameters
    ----------
    name:
        Model identifier (e.g. ``"vgg16"``).
    layers:
        Layers in any order; construction topologically sorts them.
    input_shape:
        ``(channels, height, width)`` of the network input.
    act_precision / weight_precision:
        Quantification bit-widths; the paper's experiments use 16/16.
    """

    name: str
    layers: Sequence[Layer]
    input_shape: Shape
    act_precision: int = 16
    weight_precision: int = 16
    _by_name: Dict[str, Layer] = field(init=False, repr=False)
    _order: List[Layer] = field(init=False, repr=False)
    _edges: List[Tuple[int, int]] = field(init=False, repr=False)
    _vector_ops: Optional[Tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if self.act_precision <= 0 or self.weight_precision <= 0:
            raise ModelError("precisions must be positive")
        self._by_name = {}
        for layer in self.layers:
            layer.validate()
            if layer.name == "input":
                raise ModelError('"input" is reserved for the network input')
            if layer.name in self._by_name:
                raise ModelError(f"duplicate layer name {layer.name!r}")
            self._by_name[layer.name] = layer
        self._order = self._toposort()
        infer_shapes(self._order, self.input_shape)
        # The graph is fixed from here on; the edge walk runs once.
        self._edges = self._interlayer_edges()

    def _toposort(self) -> List[Layer]:
        """Kahn's algorithm; raises on cycles and dangling references."""
        indegree: Dict[str, int] = {}
        consumers: Dict[str, List[str]] = {}
        for layer in self._by_name.values():
            count = 0
            for src in layer.inputs:
                if src == "input":
                    continue
                if src not in self._by_name:
                    raise ModelError(
                        f"layer {layer.name!r} references unknown input {src!r}"
                    )
                consumers.setdefault(src, []).append(layer.name)
                count += 1
            indegree[layer.name] = count

        ready = sorted(name for name, deg in indegree.items() if deg == 0)
        order: List[Layer] = []
        while ready:
            name = ready.pop(0)
            order.append(self._by_name[name])
            for consumer in consumers.get(name, []):
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    # Insertion keeps a deterministic order without a heap;
                    # model graphs are small (tens of layers).
                    ready.append(consumer)
                    ready.sort()
        if len(order) != len(self._by_name):
            stuck = sorted(n for n, d in indegree.items() if d > 0)
            raise ModelError(f"layer graph has a cycle involving {stuck}")
        return order

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Layer]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def layer(self, name: str) -> Layer:
        """Look a layer up by name."""
        if name not in self._by_name:
            raise ModelError(f"no layer named {name!r} in {self.name!r}")
        return self._by_name[name]

    @property
    def topo_order(self) -> List[Layer]:
        """Layers in topological (producer-first) order."""
        return list(self._order)

    @property
    def weighted_layers(self) -> List[Layer]:
        """Conv + FC layers, in topological order.

        This is the ``L``-element vector view the paper indexes with ``i``
        in ``WtDup_i``, ``MacAlloc_i`` and ``CompAlloc_i``.
        """
        return [l for l in self._order if l.is_weighted]

    @property
    def num_weighted_layers(self) -> int:
        return len(self.weighted_layers)

    def weighted_index(self, name: str) -> int:
        """Position of a weighted layer in the ``weighted_layers`` vector."""
        for i, layer in enumerate(self.weighted_layers):
            if layer.name == name:
                return i
        raise ModelError(f"{name!r} is not a weighted layer of {self.name!r}")

    def producer_weighted_index(self, layer_name: str) -> Optional[int]:
        """Index of the nearest weighted ancestor feeding ``layer_name``.

        Walks backwards through non-weighted layers (pool/relu/flatten) to
        find which weighted layer's outputs this layer actually consumes.
        Returns ``None`` when the chain reaches the network input. For
        multi-input layers the *latest* weighted producer is returned,
        matching the pipeline-dependency structure (a join can only fire
        once its slowest producer has data).
        """
        best: Optional[int] = None
        stack = list(self.layer(layer_name).inputs)
        seen = set()
        while stack:
            src = stack.pop()
            if src == "input" or src in seen:
                continue
            seen.add(src)
            producer = self._by_name[src]
            if producer.is_weighted:
                idx = self.weighted_index(src)
                best = idx if best is None else max(best, idx)
            else:
                stack.extend(producer.inputs)
        return best

    def interlayer_edges(self) -> List[Tuple[int, int]]:
        """Weighted-layer dependency edges ``(producer_idx, consumer_idx)``.

        Non-weighted layers are transparent: ``conv1 -> relu -> pool ->
        conv2`` yields the single edge ``(0, 1)``. These edges drive the
        inter-layer pipeline dependencies in dataflow compilation and the
        inter-macro ``transfer`` IRs. Returns a fresh list each call.
        """
        return list(self._edges)

    def _interlayer_edges(self) -> List[Tuple[int, int]]:
        edges = set()
        for idx, layer in enumerate(self.weighted_layers):
            producers = self._weighted_producers(layer.name)
            for p in producers:
                edges.add((p, idx))
        return sorted(edges)

    def _weighted_producers(self, layer_name: str) -> List[int]:
        """All distinct weighted ancestors reachable through vector ops."""
        found = set()
        stack = list(self.layer(layer_name).inputs)
        seen = set()
        while stack:
            src = stack.pop()
            if src == "input" or src in seen:
                continue
            seen.add(src)
            producer = self._by_name[src]
            if producer.is_weighted:
                found.add(self.weighted_index(src))
            else:
                stack.extend(producer.inputs)
        return sorted(found)

    def vector_ops_after(self, weighted_name: str) -> List[Layer]:
        """Non-weighted layers on the path out of a weighted layer.

        Used by components allocation to charge pooling/ReLU/add workload
        to the producing layer's ALU budget (those ops run on the macro
        that computed the activations).
        """
        out: List[Layer] = []
        frontier = [weighted_name]
        seen = set()
        while frontier:
            src = frontier.pop()
            for layer in self._order:
                if src in layer.inputs and layer.name not in seen:
                    if layer.is_weighted:
                        continue
                    seen.add(layer.name)
                    out.append(layer)
                    frontier.append(layer.name)
        return out

    def vector_op_workloads(self) -> Tuple[int, ...]:
        """Per weighted layer, in order, the vector-op elements charged
        to its ALUs (:func:`repro.nn.workload.vector_op_workload`).

        The graph and shapes are fixed once the model is built, so the
        :meth:`vector_ops_after` walks run on the first call only.
        """
        if self._vector_ops is None:
            from repro.nn.workload import vector_op_workload

            self._vector_ops = tuple(
                vector_op_workload(self, layer.name)
                for layer in self.weighted_layers
            )
        return self._vector_ops

    def summary(self) -> str:
        """Human-readable per-layer table (name, kind, shape, weights)."""
        lines = [f"model {self.name}  input={self.input_shape} "
                 f"act={self.act_precision}b wt={self.weight_precision}b"]
        for layer in self._order:
            shape = layer.output_shape
            tag = layer.kind.value
            weights = getattr(layer, "weight_count", 0)
            lines.append(
                f"  {layer.name:<14} {tag:<8} out={shape} weights={weights}"
            )
        return "\n".join(lines)
