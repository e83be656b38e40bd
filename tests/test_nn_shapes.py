"""Unit tests for repro.nn.shapes."""

import pytest

from repro.errors import ModelError
from repro.nn.layers import (
    AddLayer,
    ConcatLayer,
    ConvLayer,
    FCLayer,
    FlattenLayer,
    PoolLayer,
    ReluLayer,
)
from repro.nn.shapes import conv_output_hw, infer_shapes


class TestConvOutputHW:
    def test_same_padding(self):
        assert conv_output_hw(224, 3, 1, 1) == 224

    def test_stride_two(self):
        assert conv_output_hw(224, 7, 2, 3) == 112

    def test_valid_conv(self):
        assert conv_output_hw(32, 5, 1, 0) == 28

    def test_pooling(self):
        assert conv_output_hw(224, 2, 2, 0) == 112

    def test_alexnet_stem(self):
        assert conv_output_hw(227, 11, 4, 0) == 55

    def test_rejects_collapse(self):
        with pytest.raises(ModelError):
            conv_output_hw(2, 5, 1, 0)


class TestInferShapes:
    def test_conv_chain(self):
        layers = [
            ConvLayer(name="c1", inputs=("input",), kernel=3,
                      in_channels=3, out_channels=8, padding=1),
            PoolLayer(name="p1", inputs=("c1",), kernel=2, stride=2),
        ]
        shapes = infer_shapes(layers, (3, 32, 32))
        assert shapes["c1"] == (8, 32, 32)
        assert shapes["p1"] == (8, 16, 16)
        assert layers[0].output_shape == (8, 32, 32)

    def test_channel_mismatch_rejected(self):
        layers = [
            ConvLayer(name="c1", inputs=("input",), kernel=3,
                      in_channels=4, out_channels=8, padding=1),
        ]
        with pytest.raises(ModelError):
            infer_shapes(layers, (3, 32, 32))

    @pytest.mark.parametrize("layer", [
        ConvLayer(name="c1", inputs=("input",), kernel=30,
                  in_channels=3, out_channels=8),
        PoolLayer(name="p1", inputs=("input",), kernel=9),
    ], ids=("conv", "pool"))
    def test_collapsing_window_names_the_layer(self, layer):
        with pytest.raises(
            ModelError,
            match=rf"^{layer.name}: non-positive output size: in=8 "
            rf"k={layer.kernel}",
        ):
            infer_shapes([layer], (3, 8, 8))

    def test_fc_feature_check(self):
        layers = [
            FlattenLayer(name="f", inputs=("input",)),
            FCLayer(name="fc", inputs=("f",), in_features=3 * 8 * 8,
                    out_features=10),
        ]
        shapes = infer_shapes(layers, (3, 8, 8))
        assert shapes["fc"] == (10, 1, 1)

    def test_fc_feature_mismatch_rejected(self):
        layers = [
            FlattenLayer(name="f", inputs=("input",)),
            FCLayer(name="fc", inputs=("f",), in_features=999,
                    out_features=10),
        ]
        with pytest.raises(ModelError):
            infer_shapes(layers, (3, 8, 8))

    def test_add_shape_match(self):
        layers = [
            ConvLayer(name="a", inputs=("input",), kernel=1,
                      in_channels=3, out_channels=3),
            AddLayer(name="s", inputs=("a", "input")),
        ]
        shapes = infer_shapes(layers, (3, 8, 8))
        assert shapes["s"] == (3, 8, 8)

    def test_add_mismatch_rejected(self):
        layers = [
            ConvLayer(name="a", inputs=("input",), kernel=1,
                      in_channels=3, out_channels=5),
            AddLayer(name="s", inputs=("a", "input")),
        ]
        with pytest.raises(ModelError):
            infer_shapes(layers, (3, 8, 8))

    def test_concat_sums_channels(self):
        layers = [
            ConvLayer(name="a", inputs=("input",), kernel=1,
                      in_channels=3, out_channels=4),
            ConvLayer(name="b", inputs=("input",), kernel=1,
                      in_channels=3, out_channels=6),
            ConcatLayer(name="cat", inputs=("a", "b")),
        ]
        shapes = infer_shapes(layers, (3, 8, 8))
        assert shapes["cat"] == (10, 8, 8)

    def test_relu_preserves_shape(self):
        layers = [ReluLayer(name="r", inputs=("input",))]
        shapes = infer_shapes(layers, (3, 5, 7))
        assert shapes["r"] == (3, 5, 7)

    def test_out_of_order_rejected(self):
        layers = [
            ReluLayer(name="r", inputs=("c",)),
            ConvLayer(name="c", inputs=("input",), kernel=1,
                      in_channels=3, out_channels=3),
        ]
        with pytest.raises(ModelError):
            infer_shapes(layers, (3, 8, 8))

    def test_bad_input_shape_rejected(self):
        with pytest.raises(ModelError):
            infer_shapes([], (0, 8, 8))
