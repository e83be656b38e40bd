"""ONNX-like JSON interchange for CNN structures.

The paper's entry point is "a CNN model structure described in the ONNX
format" (§III). The ``onnx`` package is not available offline, so we
provide a lightweight JSON document with the same information content: a
graph of nodes with op types and attributes plus the input tensor shape.
The schema intentionally mirrors ONNX naming (``Conv``, ``MaxPool``,
``Gemm``, ``Relu``, ``Add``, ``Concat``, ``Flatten``) so that converting a
real ONNX graph to this format is a mechanical transformation.

Example document::

    {
      "name": "lenet5",
      "input_shape": [1, 32, 32],
      "act_precision": 16,
      "weight_precision": 16,
      "nodes": [
        {"op": "Conv", "name": "conv1", "inputs": ["input"],
         "attrs": {"kernel": 5, "out_channels": 6, "stride": 1,
                   "padding": 0}},
        ...
      ]
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ModelError
from repro.nn.layers import (
    AddLayer,
    ConcatLayer,
    ConvLayer,
    FCLayer,
    FlattenLayer,
    Layer,
    LayerKind,
    PoolLayer,
    ReluLayer,
)
from repro.nn.model import CNNModel

_OP_TO_KIND = {
    "Conv": LayerKind.CONV,
    "Gemm": LayerKind.FC,
    "MaxPool": LayerKind.POOL,
    "AveragePool": LayerKind.POOL,
    "Relu": LayerKind.RELU,
    "Add": LayerKind.ADD,
    "Concat": LayerKind.CONCAT,
    "Flatten": LayerKind.FLATTEN,
}

_KIND_TO_OP = {
    LayerKind.CONV: "Conv",
    LayerKind.FC: "Gemm",
    LayerKind.RELU: "Relu",
    LayerKind.ADD: "Add",
    LayerKind.CONCAT: "Concat",
    LayerKind.FLATTEN: "Flatten",
}


def _integer(value: Any, where: str) -> int:
    """``value`` as an int: a JSON number with no fractional part. Any
    other value (null, a string, a bool, ``8.5``) raises
    :class:`ModelError` naming ``where``; nothing is truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ModelError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _attr(attrs: Dict[str, Any], name: str, node: str,
          default: Optional[int] = None) -> int:
    """Integer attribute ``name`` of node ``node``; a missing one takes
    ``default``, or raises :class:`ModelError` when there is none."""
    if name in attrs:
        return _integer(attrs[name], f"node {node!r}: attribute {name!r}")
    if default is None:
        raise ModelError(f"node {node!r}: missing attribute {name!r}")
    return default


def _node_to_layer(node: Any, in_channels_hint: int) -> Layer:
    """Decode one JSON node; ``in_channels_hint`` resolves Conv CI lazily.

    Every malformed field raises :class:`ModelError` naming the node
    and the field."""
    if not isinstance(node, dict):
        raise ModelError(f"malformed node {node!r}: not an object")
    for key in ("op", "name"):
        if key not in node:
            raise ModelError(f"malformed node {node!r}: missing {key!r}")
    op, name = node["op"], node["name"]
    if not isinstance(name, str):
        raise ModelError(f"malformed node {node!r}: name must be a string")
    if not isinstance(op, str) or op not in _OP_TO_KIND:
        raise ModelError(f"node {name!r}: unsupported op {op!r}")
    inputs = node.get("inputs", ["input"])
    if not isinstance(inputs, (list, tuple)) or not all(
        isinstance(source, str) for source in inputs
    ):
        raise ModelError(
            f"node {name!r}: 'inputs' must be a list of layer names, "
            f"got {inputs!r}"
        )
    inputs = tuple(inputs)
    attrs = node.get("attrs", {})
    if not isinstance(attrs, dict):
        raise ModelError(
            f"node {name!r}: 'attrs' must be an object, got {attrs!r}"
        )

    if op == "Conv":
        return ConvLayer(
            name=name, inputs=inputs,
            kernel=_attr(attrs, "kernel", name),
            in_channels=_attr(attrs, "in_channels", name, in_channels_hint),
            out_channels=_attr(attrs, "out_channels", name),
            stride=_attr(attrs, "stride", name, 1),
            padding=_attr(attrs, "padding", name, 0),
        )
    if op == "Gemm":
        return FCLayer(
            name=name, inputs=inputs,
            in_features=_attr(attrs, "in_features", name),
            out_features=_attr(attrs, "out_features", name),
        )
    if op in ("MaxPool", "AveragePool"):
        kernel = _attr(attrs, "kernel", name)
        return PoolLayer(
            name=name, inputs=inputs,
            kernel=kernel,
            stride=_attr(attrs, "stride", name, kernel),
            padding=_attr(attrs, "padding", name, 0),
            mode="max" if op == "MaxPool" else "avg",
        )
    if op == "Relu":
        return ReluLayer(name=name, inputs=inputs)
    if op == "Add":
        return AddLayer(name=name, inputs=inputs)
    if op == "Concat":
        return ConcatLayer(name=name, inputs=inputs)
    return FlattenLayer(name=name, inputs=inputs)


def model_from_json(document: Union[str, Dict[str, Any]]) -> CNNModel:
    """Parse a JSON document (string or dict) into a :class:`CNNModel`.

    A malformed document raises :class:`ModelError` naming the node and
    the field, and so does one without a Conv or Gemm node: such a
    model has no weights to map onto crossbars.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ModelError("model document must be a JSON object")

    for key in ("name", "input_shape", "nodes"):
        if key not in document:
            raise ModelError(f"model document missing {key!r}")

    shape = document["input_shape"]
    if not isinstance(shape, (list, tuple)) or len(shape) != 3:
        raise ModelError(
            f"input_shape must be a list of 3 dims, got {shape!r}"
        )
    input_shape = tuple(_integer(d, "input_shape") for d in shape)
    nodes = document["nodes"]
    if not isinstance(nodes, (list, tuple)):
        raise ModelError(f"nodes must be a list, got {nodes!r}")

    layers: List[Layer] = []
    channels = input_shape[0]
    for node in nodes:
        layer = _node_to_layer(node, channels)
        if isinstance(layer, ConvLayer):
            channels = layer.out_channels
        layers.append(layer)
    name = str(document["name"])
    if not any(isinstance(layer, (ConvLayer, FCLayer)) for layer in layers):
        raise ModelError(
            f"model {name!r} has no Conv or Gemm node: nothing to "
            "synthesize"
        )

    return CNNModel(
        name=name,
        layers=layers,
        input_shape=input_shape,  # type: ignore[arg-type]
        act_precision=_integer(
            document.get("act_precision", 16), "act_precision"
        ),
        weight_precision=_integer(
            document.get("weight_precision", 16), "weight_precision"
        ),
    )


def _layer_to_node(layer: Layer) -> Dict[str, Any]:
    """Encode one layer as a JSON node."""
    node: Dict[str, Any] = {"name": layer.name, "inputs": list(layer.inputs)}
    if isinstance(layer, ConvLayer):
        node["op"] = "Conv"
        node["attrs"] = {
            "kernel": layer.kernel,
            "in_channels": layer.in_channels,
            "out_channels": layer.out_channels,
            "stride": layer.stride,
            "padding": layer.padding,
        }
    elif isinstance(layer, FCLayer):
        node["op"] = "Gemm"
        node["attrs"] = {
            "in_features": layer.in_features,
            "out_features": layer.out_features,
        }
    elif isinstance(layer, PoolLayer):
        node["op"] = "MaxPool" if layer.mode == "max" else "AveragePool"
        node["attrs"] = {
            "kernel": layer.kernel,
            "stride": layer.stride,
            "padding": layer.padding,
        }
    else:
        node["op"] = _KIND_TO_OP[layer.kind]
        node["attrs"] = {}
    return node


def model_to_json(model: CNNModel, indent: int = 2) -> str:
    """Serialize a model to the JSON interchange format."""
    document = {
        "name": model.name,
        "input_shape": list(model.input_shape),
        "act_precision": model.act_precision,
        "weight_precision": model.weight_precision,
        "nodes": [_layer_to_node(l) for l in model.topo_order],
    }
    return json.dumps(document, indent=indent)


def load_model(path: Union[str, Path]) -> CNNModel:
    """Read a model document from a file path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ModelError(
            f"cannot read model document {path}: {exc.strerror}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ModelError(
            f"cannot read model document {path}: not UTF-8 text"
        ) from exc
    return model_from_json(text)


def save_model(model: CNNModel, path: Union[str, Path]) -> None:
    """Write a model document to a file path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(model_to_json(model))
