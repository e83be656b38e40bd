"""Shared helpers for the experiment benches.

Every bench regenerates one table or figure of the PIMSYN paper and
prints paper-vs-measured rows. Synthesis runs are cached per
(model, power, flags) so benches that share a baseline (Fig. 7/8/9 all
normalize to the same designs) do not repeat work.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Tuple

import pytest

import repro.core.backend
from repro.core import Pimsyn, SynthesisConfig
from repro.core.design_space import DesignSpace
from repro.core.solution import SynthesisSolution
from repro.nn.model import CNNModel
from repro.nn import zoo

_SEED = 2024
_solution_cache: Dict[Tuple, SynthesisSolution] = {}


def fast_config(total_power: float, **overrides) -> SynthesisConfig:
    """The bench-wide reduced DSE configuration."""
    defaults = dict(seed=_SEED)
    defaults.update(overrides)
    return SynthesisConfig.fast(total_power=total_power, **defaults)


def pimsyn_power_for(model: CNNModel, margin: float = 2.0) -> float:
    """A comfortable power constraint for a model (see DESIGN.md)."""
    space = DesignSpace(model, fast_config(1.0))
    return space.minimum_feasible_power(margin=margin)


def synthesize_cached(
    model: CNNModel,
    total_power: float,
    specialized_macros: bool = True,
    enable_macro_sharing: bool = True,
    wtdup_policy: str = "sa",
) -> SynthesisSolution:
    """Synthesize (or fetch) a design for the given knobs.

    ``wtdup_policy``: "sa" (the paper's filter), "woho" (the
    ISAAC/PipeLayer heuristic) or "none" (no duplication).
    """
    key = (
        model.name, round(total_power, 3), specialized_macros,
        enable_macro_sharing, wtdup_policy,
    )
    if key in _solution_cache:
        return _solution_cache[key]

    config = fast_config(
        total_power,
        specialized_macros=specialized_macros,
        enable_macro_sharing=enable_macro_sharing,
    )
    synthesizer = Pimsyn(model, config)
    if wtdup_policy == "sa":
        solution = synthesizer.synthesize()
    elif wtdup_policy == "woho":
        from repro.baselines.heuristics import woho_proportional_wtdup

        solution = synthesizer.synthesize_with_wtdup(
            lambda point: woho_proportional_wtdup(
                model, point.xb_size, point.res_rram,
                point.num_crossbars,
            )
        )
    elif wtdup_policy == "none":
        solution = synthesizer.synthesize_with_wtdup(
            lambda point: [1] * model.num_weighted_layers
        )
    else:
        raise ValueError(f"unknown wtdup policy {wtdup_policy!r}")
    _solution_cache[key] = solution
    return solution


@pytest.fixture(scope="session")
def models():
    """The paper's five ImageNet benchmarks (built once)."""
    return {
        name: zoo.by_name(name)
        for name in ("alexnet", "vgg13", "vgg16", "msra", "resnet18")
    }


@pytest.fixture(scope="session")
def cifar_models():
    """The Table V CIFAR-scale models."""
    return {
        "alexnet": zoo.alexnet_cifar(),
        "vgg16": zoo.vgg16_cifar(),
        "resnet18": zoo.resnet18_cifar(),
    }


@pytest.fixture(scope="session")
def without_numpy():
    """A context manager under which repro runs as it does on an
    interpreter without numpy: the one numpy gate,
    ``repro.core.backend._np``, reads None, so every batched DSE path
    takes its scalar oracle. The benches' copy of the
    ``tests/conftest.py`` fixture (a conftest's fixtures reach only its
    own directory)."""

    @contextlib.contextmanager
    def blocked():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.core.backend, "_np", None)
            yield

    return blocked
