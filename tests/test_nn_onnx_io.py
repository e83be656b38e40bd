"""Unit tests for the ONNX-like JSON interchange."""

import json

import pytest

from repro.errors import ModelError
from repro.nn import lenet5, model_from_json, model_to_json, resnet18_cifar, vgg16
from repro.nn.onnx_io import load_model, save_model
from repro.nn.workload import model_macs


class TestRoundTrip:
    @pytest.mark.parametrize("builder", [lenet5, vgg16, resnet18_cifar])
    def test_roundtrip_preserves_structure(self, builder):
        original = builder()
        restored = model_from_json(model_to_json(original))
        assert restored.name == original.name
        assert restored.input_shape == original.input_shape
        assert len(restored) == len(original)
        assert [l.name for l in restored.topo_order] == [
            l.name for l in original.topo_order
        ]

    def test_roundtrip_preserves_macs(self):
        original = vgg16()
        restored = model_from_json(model_to_json(original))
        assert model_macs(restored) == model_macs(original)

    def test_roundtrip_preserves_precisions(self):
        original = lenet5()
        restored = model_from_json(model_to_json(original))
        assert restored.act_precision == original.act_precision
        assert restored.weight_precision == original.weight_precision

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "lenet.json"
        save_model(lenet5(), path)
        restored = load_model(path)
        assert restored.name == "lenet5"


class TestDocumentValidation:
    def test_missing_keys_rejected(self):
        with pytest.raises(ModelError):
            model_from_json({"name": "x"})

    def test_invalid_json_rejected(self):
        with pytest.raises(ModelError):
            model_from_json("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(ModelError):
            model_from_json("[1, 2]")

    def test_bad_input_shape_rejected(self):
        with pytest.raises(ModelError):
            model_from_json({
                "name": "x", "input_shape": [3, 32],
                "nodes": [],
            })

    def test_unknown_op_rejected(self):
        with pytest.raises(ModelError):
            model_from_json({
                "name": "x", "input_shape": [3, 32, 32],
                "nodes": [{"op": "Softmax", "name": "s",
                           "inputs": ["input"], "attrs": {}}],
            })

    def test_malformed_node_rejected(self):
        with pytest.raises(ModelError):
            model_from_json({
                "name": "x", "input_shape": [3, 32, 32],
                "nodes": [{"op": "Conv"}],
            })


class TestOnnxStyleDocument:
    def test_hand_written_document_parses(self):
        document = {
            "name": "micro",
            "input_shape": [1, 8, 8],
            "nodes": [
                {"op": "Conv", "name": "c1", "inputs": ["input"],
                 "attrs": {"kernel": 3, "out_channels": 4,
                           "stride": 1, "padding": 1}},
                {"op": "Relu", "name": "r1", "inputs": ["c1"]},
                {"op": "MaxPool", "name": "p1", "inputs": ["r1"],
                 "attrs": {"kernel": 2}},
                {"op": "Flatten", "name": "f1", "inputs": ["p1"]},
                {"op": "Gemm", "name": "fc1", "inputs": ["f1"],
                 "attrs": {"in_features": 64, "out_features": 10}},
            ],
        }
        model = model_from_json(json.dumps(document))
        assert model.num_weighted_layers == 2
        assert model.layer("p1").output_shape == (4, 4, 4)

    def test_in_channels_inferred_for_conv(self):
        document = {
            "name": "chain",
            "input_shape": [3, 8, 8],
            "nodes": [
                {"op": "Conv", "name": "c1", "inputs": ["input"],
                 "attrs": {"kernel": 1, "out_channels": 5}},
                {"op": "Conv", "name": "c2", "inputs": ["c1"],
                 "attrs": {"kernel": 1, "out_channels": 7}},
            ],
        }
        model = model_from_json(document)
        assert model.layer("c2").in_channels == 5

    def test_average_pool_mode(self):
        # A model needs a weighted layer (TestMalformedFields), so the
        # pool feeds one.
        document = {
            "name": "ap", "input_shape": [2, 4, 4],
            "nodes": [{"op": "AveragePool", "name": "p",
                       "inputs": ["input"], "attrs": {"kernel": 2}},
                      {"op": "Conv", "name": "c", "inputs": ["p"],
                       "attrs": {"kernel": 1, "out_channels": 2}}],
        }
        model = model_from_json(document)
        assert model.layer("p").mode == "avg"


#: Marks an attribute :func:`_conv` leaves out.
_DROP = object()


def _document(*nodes, **fields):
    """A model document over ``nodes`` (a valid one-Conv model by
    default), with top-level ``fields`` replaced."""
    document = {
        "name": "doc", "input_shape": [3, 8, 8],
        "act_precision": 16, "weight_precision": 16,
        "nodes": list(nodes) or [_conv()],
    }
    document.update(fields)
    return document


def _conv(name="c1", **attrs):
    attrs = {"kernel": 3, "out_channels": 4, **attrs}
    return {"op": "Conv", "name": name, "inputs": ["input"],
            "attrs": {k: v for k, v in attrs.items() if v is not _DROP}}



class TestMalformedFields:
    """Every malformed field of a document is a :class:`ModelError`
    naming the node and the field, raised while parsing: never a bare
    ``KeyError``/``TypeError``/``ValueError``, a silent truncation, or
    a model that fails later in a synthesis."""

    @staticmethod
    def _rejects(document, *fragments):
        with pytest.raises(ModelError) as excinfo:
            model_from_json(document)
        for fragment in fragments:
            assert fragment in str(excinfo.value)

    def test_conv_without_out_channels(self):
        self._rejects(
            _document(_conv(out_channels=_DROP)), "'c1'", "'out_channels'"
        )

    def test_conv_without_kernel(self):
        self._rejects(_document(_conv(kernel=_DROP)), "'c1'", "'kernel'")

    def test_gemm_without_in_features(self):
        self._rejects(_document(
            {"op": "Flatten", "name": "f", "inputs": ["input"]},
            {"op": "Gemm", "name": "fc", "inputs": ["f"],
             "attrs": {"out_features": 10}},
        ), "'fc'", "'in_features'")

    def test_maxpool_without_kernel(self):
        self._rejects(_document(
            _conv(),
            {"op": "MaxPool", "name": "p", "inputs": ["c1"], "attrs": {}},
        ), "'p'", "'kernel'")

    @pytest.mark.parametrize("value", [None, "abc", "3", True, [3]],
                             ids=["null", "word", "numeric-string",
                                  "bool", "list"])
    def test_non_numeric_attribute(self, value):
        self._rejects(
            _document(_conv(kernel=value)), "'c1'", "'kernel'",
            repr(value),
        )

    @pytest.mark.parametrize("field", ["act_precision",
                                       "weight_precision"])
    @pytest.mark.parametrize("value", [None, "sixteen"],
                             ids=["null", "word"])
    def test_non_numeric_precision(self, field, value):
        self._rejects(_document(**{field: value}), field, repr(value))

    @pytest.mark.parametrize("shape", [5, "abc", None],
                             ids=["int", "string", "null"])
    def test_non_list_input_shape(self, shape):
        self._rejects(_document(input_shape=shape), "input_shape")

    def test_non_numeric_input_dim(self):
        self._rejects(_document(input_shape=[3, "8", 8]), "input_shape")

    @pytest.mark.parametrize("attrs", [[3, 4], "kernel=3", 7],
                             ids=["list", "string", "int"])
    def test_attrs_not_an_object(self, attrs):
        node = {"op": "Conv", "name": "c1", "inputs": ["input"],
                "attrs": attrs}
        self._rejects(_document(node), "'c1'", "'attrs'")

    def test_inputs_not_a_list_of_names(self):
        node = dict(_conv(), inputs="input")
        self._rejects(_document(node), "'c1'", "'inputs'")

    def test_non_list_nodes(self):
        self._rejects(_document(nodes={"c1": _conv()}), "nodes")

    @pytest.mark.parametrize("field,value", [
        ("out_channels", 8.5), ("kernel", 2.5), ("stride", 1.5),
        ("padding", 0.5), ("in_channels", 3.25),
    ])
    def test_non_integral_value_is_not_truncated(self, field, value):
        self._rejects(
            _document(_conv(**{field: value})), "'c1'", repr(field),
            repr(value),
        )

    def test_non_integral_precision_is_not_truncated(self):
        self._rejects(_document(act_precision=8.5), "act_precision")

    def test_integral_floats_are_integers(self):
        model = model_from_json(_document(
            _conv(kernel=3.0, out_channels=4.0), input_shape=[3.0, 8, 8],
        ))
        layer = model.layer("c1")
        assert (layer.kernel, layer.out_channels) == (3, 4)
        assert type(layer.kernel) is int
        assert model.input_shape == (3, 8, 8)

    @pytest.mark.parametrize("nodes", [
        [],
        [{"op": "MaxPool", "name": "p", "inputs": ["input"],
          "attrs": {"kernel": 2}},
         {"op": "Relu", "name": "r", "inputs": ["p"]}],
    ], ids=["no-nodes", "no-weighted-node"])
    def test_a_model_without_a_weighted_layer(self, nodes):
        self._rejects(_document(nodes=nodes), "no Conv or Gemm")
