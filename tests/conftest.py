"""Shared fixtures: small models and fast configs keep the suite quick."""

from __future__ import annotations

import contextlib

import pytest

import repro.core.backend
from repro.core.config import SynthesisConfig
from repro.hardware.params import HardwareParams
from repro.nn import lenet5, resnet18_cifar, vgg13
from repro.nn.layers import ConvLayer, FCLayer, FlattenLayer, PoolLayer, ReluLayer
from repro.nn.model import CNNModel


@pytest.fixture(scope="session")
def params() -> HardwareParams:
    return HardwareParams()


@pytest.fixture(scope="session")
def lenet() -> CNNModel:
    return lenet5()


@pytest.fixture(scope="session")
def vgg13_model() -> CNNModel:
    return vgg13()


@pytest.fixture(scope="session")
def resnet_cifar() -> CNNModel:
    return resnet18_cifar()


@pytest.fixture()
def tiny_model() -> CNNModel:
    """A 3-weighted-layer CNN small enough for exhaustive assertions."""
    layers = [
        ConvLayer(name="c1", inputs=("input",), kernel=3,
                  in_channels=1, out_channels=4, stride=1, padding=1),
        ReluLayer(name="r1", inputs=("c1",)),
        PoolLayer(name="p1", inputs=("r1",), kernel=2, stride=2),
        ConvLayer(name="c2", inputs=("p1",), kernel=3,
                  in_channels=4, out_channels=8, stride=1, padding=1),
        ReluLayer(name="r2", inputs=("c2",)),
        FlattenLayer(name="f1", inputs=("r2",)),
        FCLayer(name="fc1", inputs=("f1",), in_features=8 * 8 * 8,
                out_features=10),
    ]
    return CNNModel(name="tiny", layers=layers, input_shape=(1, 16, 16))


@pytest.fixture()
def fast_config() -> SynthesisConfig:
    return SynthesisConfig.fast(total_power=2.0, seed=7)


@pytest.fixture(scope="session")
def without_numpy():
    """A context manager under which repro runs as it does on an
    interpreter without numpy.

    It sets ``repro.core.backend._np``, the one numpy gate, to None, so
    the task bounds, EA/NSGA-II population scoring and the SA filter all
    take their scalar oracles, and ``SynthesisConfig.backend`` reads
    ``"python"``. Forked ``jobs > 1`` workers inherit the patched gate.
    """

    @contextlib.contextmanager
    def blocked():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.core.backend, "_np", None)
            yield

    return blocked
