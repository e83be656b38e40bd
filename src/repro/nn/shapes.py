"""Shape inference over a layer graph.

Fills in every layer's ``output_shape`` (``(channels, height, width)``)
from the network input shape. PIMSYN needs ``WO``/``HO`` of every weighted
layer for Eq. 2 (steps per layer) and Eq. 4 (the SA energy), so inference
runs once at model-construction time and the results are cached on the
layers themselves.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.errors import ModelError
from repro.nn.layers import (
    AddLayer,
    ConcatLayer,
    ConvLayer,
    FCLayer,
    FlattenLayer,
    Layer,
    PoolLayer,
    ReluLayer,
)

Shape = Tuple[int, int, int]


def conv_output_hw(size: int, kernel: int, stride: int, padding: int) -> int:
    """Standard convolution/pooling output-size formula."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ModelError(
            f"non-positive output size: in={size} k={kernel} "
            f"s={stride} p={padding}"
        )
    return out


def infer_shapes(layers: Iterable[Layer], input_shape: Shape) -> Dict[str, Shape]:
    """Infer output shapes for ``layers`` given ``input_shape``.

    ``layers`` must be in topological order (producers before consumers),
    which :class:`repro.nn.model.CNNModel` guarantees. Returns the mapping
    name -> shape and also writes each shape onto the layer object.
    """
    if len(input_shape) != 3 or any(d <= 0 for d in input_shape):
        raise ModelError(f"bad input shape {input_shape!r}")

    shapes: Dict[str, Shape] = {"input": input_shape}
    for layer in layers:
        in_shapes = []
        for src in layer.inputs:
            if src not in shapes:
                raise ModelError(
                    f"layer {layer.name!r} consumes {src!r} before it is "
                    "produced (graph is not topologically ordered?)"
                )
            in_shapes.append(shapes[src])
        shape = _infer_one(layer, in_shapes)
        layer.output_shape = shape
        shapes[layer.name] = shape
    return shapes


def _window_hw(layer: Layer, h: int, w: int) -> Tuple[int, int]:
    """Output height and width of a Conv or pool ``layer`` over an
    ``h`` x ``w`` input; a non-positive size names the layer."""
    try:
        return (
            conv_output_hw(h, layer.kernel, layer.stride, layer.padding),
            conv_output_hw(w, layer.kernel, layer.stride, layer.padding),
        )
    except ModelError as exc:
        raise ModelError(f"{layer.name}: {exc}") from None


def _infer_one(layer: Layer, in_shapes: list) -> Shape:
    """Shape rule for a single layer."""
    if isinstance(layer, ConvLayer):
        c, h, w = in_shapes[0]
        if c != layer.in_channels:
            raise ModelError(
                f"{layer.name}: expects {layer.in_channels} input channels, "
                f"producer supplies {c}"
            )
        return (layer.out_channels, *_window_hw(layer, h, w))

    if isinstance(layer, FCLayer):
        c, h, w = in_shapes[0]
        if c * h * w != layer.in_features:
            raise ModelError(
                f"{layer.name}: expects {layer.in_features} input features, "
                f"producer supplies {c * h * w}"
            )
        return (layer.out_features, 1, 1)

    if isinstance(layer, PoolLayer):
        c, h, w = in_shapes[0]
        return (c, *_window_hw(layer, h, w))

    if isinstance(layer, ReluLayer):
        return in_shapes[0]

    if isinstance(layer, AddLayer):
        a, b = in_shapes
        if a != b:
            raise ModelError(f"{layer.name}: add operands differ: {a} vs {b}")
        return a

    if isinstance(layer, ConcatLayer):
        base = in_shapes[0]
        channels = 0
        for s in in_shapes:
            if s[1:] != base[1:]:
                raise ModelError(
                    f"{layer.name}: concat spatial dims differ: {s} vs {base}"
                )
            channels += s[0]
        return (channels, base[1], base[2])

    if isinstance(layer, FlattenLayer):
        c, h, w = in_shapes[0]
        return (c * h * w, 1, 1)

    raise ModelError(f"no shape rule for layer type {type(layer).__name__}")
