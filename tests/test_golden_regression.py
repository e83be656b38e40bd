"""Golden-regression suite for the headline paper artifacts.

Recomputes the three snapshotted artifacts (Table IV peak efficiency,
Fig. 5 ADC reuse, Fig. 7 weight duplication — see
``tests/golden/regenerate.py``) and diffs every number against the
committed JSON within 1e-9. Any model/DSE/evaluator change that moves a
paper number fails here and must regenerate the fixtures explicitly.

The suite also asserts the paper's qualitative claims on the *golden*
data itself, so a regenerated fixture cannot quietly encode a broken
shape (e.g. a baseline beating the synthesized design).
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import math
import os

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", os.path.join(GOLDEN_DIR, "regenerate.py")
)
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

RELTOL = 1e-9


def _load(filename):
    path = os.path.join(GOLDEN_DIR, filename)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _diff(expected, actual, path="$"):
    """Recursive structural diff with 1e-9 float tolerance."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert sorted(expected) == sorted(actual), (
            f"{path}: keys {sorted(expected)} != {sorted(actual)}"
        )
        for key in expected:
            _diff(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), path
        assert len(expected) == len(actual), (
            f"{path}: length {len(expected)} != {len(actual)}"
        )
        for index, (e, a) in enumerate(zip(expected, actual)):
            _diff(e, a, f"{path}[{index}]")
    elif isinstance(expected, float) and not isinstance(expected, bool):
        assert math.isclose(
            expected, actual, rel_tol=RELTOL, abs_tol=RELTOL
        ), f"{path}: {expected!r} != {actual!r}"
    else:
        assert expected == actual, f"{path}: {expected!r} != {actual!r}"


@pytest.mark.parametrize("filename", sorted(regenerate.ARTIFACTS))
def test_artifact_matches_golden(filename):
    golden = _load(filename)
    recomputed = regenerate.ARTIFACTS[filename]()
    # Round-trip through JSON so committed and recomputed values share
    # one representation (json floats survive a round trip losslessly).
    recomputed = json.loads(json.dumps(recomputed))
    _diff(golden, recomputed, filename)


class TestGoldenShapes:
    """The paper's qualitative claims must hold on the snapshots."""

    def test_table4_pimsyn_beats_every_baseline(self):
        rows = _load("table4_peak_efficiency.json")["tops_per_watt"]
        pimsyn = rows["pimsyn"]
        for name, measured in rows.items():
            if name != "pimsyn":
                assert pimsyn > measured * 2.0, name
        baselines = {k: v for k, v in rows.items() if k != "pimsyn"}
        assert min(baselines, key=baselines.get) == "pipelayer"

    def test_fig5_penalty_decays_and_savings_positive(self):
        samples = _load("fig5_adc_reuse.json")["samples"]
        assert samples[0]["delay_penalty"] > samples[-1]["delay_penalty"]
        assert samples[-1]["delay_penalty"] <= 1.05
        assert all(s["adcs_saved"] > 0 for s in samples)

    def test_fig7_sa_beats_heuristic_and_no_duplication(self):
        policies = _load("fig7_weight_duplication.json")["policies"]
        sa, woho, none = (
            policies["sa"], policies["woho"], policies["none"]
        )
        assert sa["throughput"] >= woho["throughput"] * 0.999
        assert sa["throughput"] > none["throughput"] * 5
        assert sa["tops_per_watt"] > none["tops_per_watt"] * 5

    def test_pareto_front_is_a_real_trade_off_surface(self):
        """The snapshot must encode an actual front: multiple mutually
        non-dominated points spanning a throughput/energy trade-off,
        with the best-throughput point consistent with its own row."""
        from repro.optim.dominance import dominates

        golden = _load("pareto_front_vgg8.json")
        points = golden["points"]
        assert golden["front_size"] == len(points) >= 2
        assert golden["hypervolume"] > 0.0
        metrics = [p["metrics"] for p in points]
        assert golden["best_throughput"] == max(
            m["throughput_img_s"] for m in metrics
        )
        vectors = [
            (
                m["throughput_img_s"],
                -m["energy_per_image_j"],
                -m["num_macros"],
            )
            for m in metrics
        ]
        for a in vectors:
            for b in vectors:
                assert not dominates(a, b)
        # A real trade-off: the energy-frugal end pays throughput.
        best_thr = max(vectors, key=lambda v: v[0])
        best_energy = max(vectors, key=lambda v: v[1])
        assert best_energy[0] < best_thr[0]
        assert best_energy[1] > best_thr[1]


class TestContentKeysBackendIndependent:
    """PR 5's pinned content keys survive the tensorized task walk.

    Whether numpy imports picks the batched paths or their scalar
    oracles, and it must leave every fingerprint and serve job key
    *byte*-unchanged (the pins recorded before the grid walk existed),
    or stored results would silently split by interpreter.
    """

    PINNED_PARAMS_FP = "3dd4e2a54ef76d2a"
    PINNED_CONFIG_FP_FAST_2W = "101f9fe6705bffb0"
    PINNED_CONFIG_FP_FULL_50W = "d6018dea5177428e"
    PINNED_JOB_KEY_LENET5_FAST_2W = "0adb10f6bd13ed88e923b60108964df7"

    def test_config_fingerprints_pinned_across_backends(
        self, without_numpy
    ):
        from repro.core.config import SynthesisConfig
        from repro.core.executor import config_fingerprint

        for blocked in (False, True):
            with without_numpy() if blocked else contextlib.nullcontext():
                fast = SynthesisConfig.fast(total_power=2.0)
                full = SynthesisConfig(total_power=50.0)
                assert fast.backend == ("python" if blocked else "numpy")
                assert config_fingerprint(fast) == \
                    self.PINNED_CONFIG_FP_FAST_2W
                assert config_fingerprint(full) == \
                    self.PINNED_CONFIG_FP_FULL_50W

    def test_params_fingerprint_untouched(self):
        from repro.core.executor import params_fingerprint
        from repro.hardware.params import HardwareParams

        assert params_fingerprint(HardwareParams()) == \
            self.PINNED_PARAMS_FP

    def test_serve_job_key_pinned_across_backends(self, without_numpy):
        from repro.core.config import SynthesisConfig
        from repro.nn import lenet5
        from repro.serve.job import job_content_key

        model = lenet5()
        for blocked in (False, True):
            with without_numpy() if blocked else contextlib.nullcontext():
                assert job_content_key(
                    model, SynthesisConfig.fast(total_power=2.0)
                ) == self.PINNED_JOB_KEY_LENET5_FAST_2W

    def test_job_request_overrides_cannot_split_the_store(self):
        """A request that *explicitly* sets an execution-only knob
        (pruning off) still maps to the same stored result as one that
        says nothing."""
        from repro.serve.job import JobRequest

        base = JobRequest(model="lenet5", total_power=2.0)
        tuned = JobRequest(
            model="lenet5", total_power=2.0,
            overrides={"prune_dominated": False},
        )
        assert base.content_key() == tuned.content_key()
        assert base.content_key() == self.PINNED_JOB_KEY_LENET5_FAST_2W

    def test_backend_override_is_rejected(self):
        """``backend`` and ``sim_engine`` are no config fields (what
        imports picks the array engine and the event wheel), so a
        request naming either fails as an unknown override instead of
        being silently dropped."""
        from repro.errors import ConfigurationError
        from repro.serve.job import JobRequest

        for name, value in (("backend", "numpy"), ("sim_engine", "python")):
            with pytest.raises(
                ConfigurationError,
                match=rf"unknown config overrides \['{name}'\]",
            ):
                JobRequest(
                    model="lenet5", total_power=2.0,
                    overrides={name: value},
                )

    def test_execution_only_fields_are_config_fields(self):
        """Every execution-only name is a live SynthesisConfig field, so
        a deleted field cannot linger in the set unnoticed."""
        from dataclasses import fields

        from repro.core.config import SynthesisConfig
        from repro.core.executor import EXECUTION_ONLY_FIELDS

        names = {f.name for f in fields(SynthesisConfig)}
        assert EXECUTION_ONLY_FIELDS <= names

    def test_execution_only_fields_cover_the_new_knobs(self):
        """Worker count and pruning are execution-only; the SA proposal
        batch changes the walk, so it is result content. The array
        engine and the event wheel are no fields at all."""
        from repro.core.executor import EXECUTION_ONLY_FIELDS

        assert EXECUTION_ONLY_FIELDS == {"jobs", "prune_dominated"}
        assert "sim_engine" not in EXECUTION_ONLY_FIELDS
        assert "backend" not in EXECUTION_ONLY_FIELDS
        assert "sa_proposal_batch" not in EXECUTION_ONLY_FIELDS
