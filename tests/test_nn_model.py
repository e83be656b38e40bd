"""Unit tests for repro.nn.model."""

import pytest

from repro.errors import ModelError
from repro.nn.layers import (
    AddLayer,
    ConvLayer,
    FCLayer,
    FlattenLayer,
    PoolLayer,
    ReluLayer,
)
from repro.nn.model import CNNModel


def _conv(name, src, ci, co):
    return ConvLayer(name=name, inputs=(src,), kernel=3, in_channels=ci,
                     out_channels=co, padding=1)


class TestConstruction:
    def test_toposort_reorders(self):
        layers = [
            ReluLayer(name="r", inputs=("c",)),
            _conv("c", "input", 3, 8),
        ]
        model = CNNModel(name="m", layers=layers, input_shape=(3, 8, 8))
        assert [l.name for l in model.topo_order] == ["c", "r"]

    def test_duplicate_names_rejected(self):
        layers = [_conv("c", "input", 3, 8), _conv("c", "input", 3, 8)]
        with pytest.raises(ModelError):
            CNNModel(name="m", layers=layers, input_shape=(3, 8, 8))

    def test_reserved_input_name_rejected(self):
        layers = [_conv("input", "input", 3, 8)]
        with pytest.raises(ModelError):
            CNNModel(name="m", layers=layers, input_shape=(3, 8, 8))

    def test_unknown_reference_rejected(self):
        layers = [ReluLayer(name="r", inputs=("ghost",))]
        with pytest.raises(ModelError):
            CNNModel(name="m", layers=layers, input_shape=(3, 8, 8))

    def test_cycle_rejected(self):
        layers = [
            AddLayer(name="a", inputs=("b", "input")),
            ReluLayer(name="b", inputs=("a",)),
        ]
        with pytest.raises(ModelError):
            CNNModel(name="m", layers=layers, input_shape=(3, 8, 8))

    def test_bad_precision_rejected(self):
        with pytest.raises(ModelError):
            CNNModel(name="m", layers=[_conv("c", "input", 3, 8)],
                     input_shape=(3, 8, 8), act_precision=0)


class TestViews:
    def test_weighted_layers_in_topo_order(self, tiny_model):
        names = [l.name for l in tiny_model.weighted_layers]
        assert names == ["c1", "c2", "fc1"]

    def test_weighted_index(self, tiny_model):
        assert tiny_model.weighted_index("c2") == 1
        with pytest.raises(ModelError):
            tiny_model.weighted_index("r1")

    def test_layer_lookup(self, tiny_model):
        assert tiny_model.layer("c1").name == "c1"
        with pytest.raises(ModelError):
            tiny_model.layer("nope")

    def test_len_and_iter(self, tiny_model):
        assert len(tiny_model) == 7
        assert len(list(tiny_model)) == 7

    def test_summary_mentions_every_layer(self, tiny_model):
        text = tiny_model.summary()
        for layer in tiny_model:
            assert layer.name in text


class TestInterlayerEdges:
    def test_sequential_chain(self, tiny_model):
        # c1 -> (relu, pool) -> c2 -> (relu, flatten) -> fc1
        assert tiny_model.interlayer_edges() == [(0, 1), (1, 2)]

    def test_residual_join(self):
        layers = [
            _conv("c1", "input", 3, 8),
            _conv("c2", "c1", 8, 8),
            AddLayer(name="add", inputs=("c2", "c1")),
            _conv("c3", "add", 8, 8),
        ]
        model = CNNModel(name="res", layers=layers, input_shape=(3, 8, 8))
        # c3 consumes the add, which joins c2 and c1: edges from both.
        assert (0, 2) in model.interlayer_edges()
        assert (1, 2) in model.interlayer_edges()
        assert (0, 1) in model.interlayer_edges()

    def test_each_call_returns_a_fresh_list(self, resnet_cifar):
        """The edges are walked once, at construction; a caller that
        mutates the list it got cannot change the model's edges."""
        edges = resnet_cifar.interlayer_edges()
        expected = list(edges)
        edges.append((0, 0))
        edges.reverse()
        del edges[:3]
        assert resnet_cifar.interlayer_edges() == expected
        assert resnet_cifar.interlayer_edges() is not \
            resnet_cifar.interlayer_edges()

    def test_producer_weighted_index_through_vector_ops(self, tiny_model):
        assert tiny_model.producer_weighted_index("c2") == 0
        assert tiny_model.producer_weighted_index("c1") is None

    def test_vector_ops_after(self, tiny_model):
        names = {l.name for l in tiny_model.vector_ops_after("c1")}
        assert names == {"r1", "p1"}
        names2 = {l.name for l in tiny_model.vector_ops_after("c2")}
        assert names2 == {"r2", "f1"}

    def test_producer_weighted_index_at_join_is_latest(self):
        layers = [
            _conv("c1", "input", 3, 8),
            _conv("c2", "c1", 8, 8),
            AddLayer(name="add", inputs=("c2", "c1")),
            ReluLayer(name="r", inputs=("add",)),
            _conv("c3", "r", 8, 8),
        ]
        model = CNNModel(name="res", layers=layers, input_shape=(3, 8, 8))
        # The join waits on its slower producer, c2.
        assert model.producer_weighted_index("add") == 1
        assert model.producer_weighted_index("c3") == 1
        # Both producers charge the join's vector ops; c3 is weighted
        # and stops the walk.
        for producer in ("c1", "c2"):
            names = {l.name for l in model.vector_ops_after(producer)}
            assert names == {"add", "r"}

    def test_vector_ops_after_last_layer_is_empty(self, tiny_model):
        assert tiny_model.vector_ops_after("fc1") == []


class TestZooModelsStructure:
    def test_resnet_has_join_edges(self, resnet_cifar):
        edges = resnet_cifar.interlayer_edges()
        # Some consumer must have two weighted producers (residual add).
        consumers = [c for _p, c in edges]
        assert any(consumers.count(c) >= 2 for c in set(consumers))

    def test_vgg13_weighted_count(self, vgg13_model):
        assert vgg13_model.num_weighted_layers == 13

    def test_lenet_weighted_count(self, lenet):
        assert lenet.num_weighted_layers == 5
