"""Unit tests for repro.nn.workload."""

import pytest

from repro.errors import ModelError
from repro.nn import zoo
from repro.nn.layers import ConvLayer, PoolLayer
from repro.nn.workload import (
    layer_access_volume,
    layer_macs,
    model_macs,
    per_layer_stats,
    vector_op_workload,
)


class TestLayerMacs:
    def test_conv_macs_formula(self, tiny_model):
        c1 = tiny_model.layer("c1")
        # 3*3*1 rows x 4 filters x 16*16 positions
        assert layer_macs(c1) == 9 * 4 * 256

    def test_fc_macs(self, tiny_model):
        fc = tiny_model.layer("fc1")
        assert layer_macs(fc) == 512 * 10

    def test_model_macs_is_sum(self, tiny_model):
        total = sum(layer_macs(l) for l in tiny_model.weighted_layers)
        assert model_macs(tiny_model) == total

    def test_unweighted_layer_rejected(self, tiny_model):
        with pytest.raises(ModelError):
            layer_macs(tiny_model.layer("p1"))

    def test_uninferred_shape_rejected(self):
        conv = ConvLayer(name="c", inputs=("input",), kernel=3,
                         in_channels=2, out_channels=2)
        with pytest.raises(ModelError):
            layer_macs(conv)


class TestAccessVolume:
    def test_eq4_formula(self, tiny_model):
        c2 = tiny_model.layer("c2")
        # WtDup * (WK^2*CI + CO) = 3 * (9*4 + 8)
        assert layer_access_volume(c2, 3) == 3 * (36 + 8)

    def test_scales_linearly_with_dup(self, tiny_model):
        c1 = tiny_model.layer("c1")
        assert layer_access_volume(c1, 4) == 4 * layer_access_volume(c1, 1)

    def test_rejects_nonpositive_dup(self, tiny_model):
        with pytest.raises(ModelError):
            layer_access_volume(tiny_model.layer("c1"), 0)


class TestVectorOpWorkload:
    def test_relu_and_pool_charged_to_producer(self, tiny_model):
        # after c1: relu over 4x16x16 + 2x2 pool over 4x8x8 outputs
        workload = vector_op_workload(tiny_model, "c1")
        relu_ops = 4 * 16 * 16
        pool_ops = 4 * 8 * 8 * 4
        assert workload == relu_ops + pool_ops

    def test_fc_tail_has_no_vector_ops(self, tiny_model):
        assert vector_op_workload(tiny_model, "fc1") == 0


    @pytest.mark.parametrize("name", zoo.available_models())
    def test_the_models_cached_workloads_are_the_walk(self, name):
        """``CNNModel.vector_op_workloads`` walks ``vector_ops_after``
        once, on first use, and keeps today's per-layer values (residual
        ops included, however many layers they are charged to)."""
        model = zoo.by_name(name)
        walk = tuple(
            vector_op_workload(model, layer.name)
            for layer in model.weighted_layers
        )
        assert model.vector_op_workloads() == walk
        assert model.vector_op_workloads() is model.vector_op_workloads()
        # The cache is not model content.
        assert model == zoo.by_name(name)


class TestPerLayerStats:
    def test_stats_keys(self, tiny_model):
        stats = per_layer_stats(tiny_model)
        assert set(stats) == {"c1", "c2", "fc1"}
        for entry in stats.values():
            assert {"macs", "weights", "output_positions", "rows"} <= set(
                entry
            )

    def test_fc_has_single_output_position(self, tiny_model):
        assert per_layer_stats(tiny_model)["fc1"]["output_positions"] == 1
