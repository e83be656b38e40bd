"""Tests for solution persistence, energy attribution and Gantt output."""

import pytest

from repro.analysis.energy import dominant_resource, layer_energy_breakdown
from repro.analysis.gantt import render_gantt
from repro.core import Pimsyn, SynthesisConfig
from repro.core.persistence import load_solution, save_solution
from repro.errors import ConfigurationError, SimulationError
from repro.nn import lenet5, vgg13, zoo
from repro.sim import SimulationEngine
from repro.sim.trace import SimTrace


@pytest.fixture(scope="module")
def solution():
    config = SynthesisConfig.fast(total_power=2.0, seed=31)
    return Pimsyn(lenet5(), config).synthesize()


class TestPersistence:
    def test_roundtrip_preserves_decisions(self, solution, tmp_path):
        path = tmp_path / "sol.json"
        save_solution(solution, path)
        restored = load_solution(path, lenet5())
        assert restored.wt_dup == solution.wt_dup
        assert restored.partition.gene == solution.partition.gene
        assert restored.evaluation.throughput == pytest.approx(
            solution.evaluation.throughput
        )

    def test_restored_solution_is_live(self, solution, tmp_path):
        path = tmp_path / "sol.json"
        save_solution(solution, path)
        restored = load_solution(path, lenet5())
        chip = restored.build_accelerator()
        assert chip.num_macros == solution.partition.num_macros

    def test_wrong_model_rejected(self, solution, tmp_path):
        path = tmp_path / "sol.json"
        save_solution(solution, path)
        with pytest.raises(ConfigurationError):
            load_solution(path, vgg13())

    def test_tampered_metrics_detected(self, solution, tmp_path):
        import json

        path = tmp_path / "sol.json"
        save_solution(solution, path)
        payload = json.loads(path.read_text())
        payload["metrics"]["throughput_img_s"] *= 10
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError):
            load_solution(path, lenet5())

    def test_gene_breaking_rule_b_rejected(self, solution):
        """A stored gene with an owner shared by two layers does not
        load: rule b allows pairs only."""
        from repro.core.persistence import solution_from_payload

        payload = solution.to_payload()
        payload["gene"] = [1, 1, 1] + list(payload["gene"][3:])
        with pytest.raises(ConfigurationError, match="pairs only"):
            solution_from_payload(payload, lenet5())

    def test_payload_round_trip_through_result_store(
        self, solution, tmp_path
    ):
        """Store artifact -> solution_from_payload reproduces the
        decisions, closing the serve-layer loop over persistence."""
        from repro.core.persistence import solution_from_payload
        from repro.serve import ResultStore

        store = ResultStore(tmp_path / "store")
        key = "a1" * 16
        store.put(key, {"schema": 1, "solution": solution.to_payload()})
        payload = store.get(key)
        assert payload["solution"] == solution.to_payload()
        restored = solution_from_payload(
            payload["solution"], lenet5()
        )
        assert restored.wt_dup == solution.wt_dup
        assert restored.partition.gene == solution.partition.gene
        assert restored.evaluation.throughput == pytest.approx(
            solution.evaluation.throughput
        )


@pytest.fixture(scope="module", params=[
    ("lenet5", 2.0), ("alexnet_cifar", 8.0),
], ids=["lenet5", "alexnet_cifar"])
def identical_macro_design(request):
    """A design synthesized with identical macros chip-wide, and its
    model."""
    name, power = request.param
    model = zoo.by_name(name)
    config = SynthesisConfig.fast(
        total_power=power, seed=1, specialized_macros=False
    )
    return Pimsyn(model, config).synthesize(), model


class TestIdenticalMacroReload:
    """A design priced with identical macros reloads under that mode,
    to the same metrics, from its payload and from its file."""

    def _assert_same(self, restored, solution):
        assert restored.evaluation == solution.evaluation
        assert restored.allocation == solution.allocation
        assert restored.to_payload() == solution.to_payload()
        assert restored.specialized_macros is False

    def test_payload_records_the_mode(self, identical_macro_design):
        solution, _model = identical_macro_design
        assert solution.to_payload()["specialized_macros"] is False

    def test_reload_from_payload(self, identical_macro_design):
        from repro.core.persistence import solution_from_payload

        solution, model = identical_macro_design
        restored = solution_from_payload(solution.to_payload(), model)
        self._assert_same(restored, solution)

    def test_reload_from_file(self, identical_macro_design, tmp_path):
        solution, model = identical_macro_design
        path = tmp_path / "sol.json"
        save_solution(solution, path)
        self._assert_same(load_solution(path, model), solution)


def test_default_payload_omits_the_mode(solution):
    assert "specialized_macros" not in solution.to_payload()
    assert solution.specialized_macros is True


def test_non_boolean_mode_rejected(solution):
    from repro.core.persistence import solution_from_payload

    payload = solution.to_payload()
    payload["specialized_macros"] = "no"
    with pytest.raises(ConfigurationError, match="specialized_macros"):
        solution_from_payload(payload, lenet5())


@pytest.mark.parametrize("name", ["lenet5", "alexnet_cifar"])
def test_baseline_artifact_is_refused(name, tmp_path):
    """A manual baseline's artifact (``<model>@<design>``) does not
    record its fixed allocation, so a reload under PIMSYN's would
    misprice it (lenet5) or fail blaming the model (alexnet_cifar). It
    is refused, naming the design."""
    from repro.baselines import build_manual_solution, isaac_design
    from repro.hardware.params import HardwareParams

    model = zoo.by_name(name)
    design = isaac_design()
    power = 2 * design.minimum_power(model, HardwareParams())
    path = tmp_path / "baseline.json"
    save_solution(build_manual_solution(design, model, power), path)
    with pytest.raises(ConfigurationError, match="'isaac'") as info:
        load_solution(path, model)
    assert "build_manual_solution" in str(info.value)


class TestEnergyBreakdown:
    def test_sums_to_sane_total(self, solution):
        breakdown = layer_energy_breakdown(solution)
        assert len(breakdown) == 5
        total = sum(e.total for e in breakdown)
        # Attribution cannot exceed power x period (everything-on bound)
        upper = solution.evaluation.power * solution.evaluation.period
        assert 0 < total <= upper * 1.01

    def test_every_component_nonnegative(self, solution):
        for entry in layer_energy_breakdown(solution):
            assert entry.crossbar >= 0
            assert entry.adc >= 0
            assert entry.alu >= 0
            assert entry.memory_and_noc >= 0

    def test_dominant_resource_valid(self, solution):
        breakdown = layer_energy_breakdown(solution)
        assert dominant_resource(breakdown) in {
            "crossbar", "adc", "alu", "memory_and_noc",
        }

    def test_empty_breakdown_rejected(self):
        with pytest.raises(ConfigurationError):
            dominant_resource([])


class TestGantt:
    def test_renders_rows_per_bank(self, solution):
        engine = SimulationEngine(
            spec=solution.spec, allocation=solution.allocation,
            macro_groups=solution.partition.macro_groups,
        )
        trace = engine.run(solution.build_dag())
        text = render_gantt(trace, width=40)
        lines = text.splitlines()
        assert lines[0].startswith("pipeline occupancy")
        # one row per (layer, kind) with activity; 5 layers x 3 kinds
        assert len(lines) - 1 == 15
        for line in lines[1:]:
            assert line.endswith("|")

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            render_gantt(SimTrace())

    def test_width_validated(self, solution):
        engine = SimulationEngine(
            spec=solution.spec, allocation=solution.allocation,
            macro_groups=solution.partition.macro_groups,
        )
        trace = engine.run(solution.build_dag())
        with pytest.raises(SimulationError):
            render_gantt(trace, width=2)
