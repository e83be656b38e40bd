"""End-to-end coverage of the macro-sharing path.

Sharing (rule b) is exercised stochastically by the EA; these tests
force a shared partition deterministically and walk it through every
downstream consumer: allocation, evaluation, chip build and
simulation.
"""

import pytest

from repro.core.component_alloc import allocate_components
from repro.core.dataflow import make_spec
from repro.core.evaluator import PerformanceEvaluator
from repro.core.macro_partition import MacroPartition, encode_gene
from repro.core.solution import SynthesisSolution
from repro.hardware.power import PowerBudget
from repro.nn import lenet5
from repro.sim import SimulationEngine


@pytest.fixture(scope="module")
def shared_solution():
    """A hand-built solution where layers 0 and 1 share macros."""
    model = lenet5()
    params = __import__(
        "repro.hardware.params", fromlist=["HardwareParams"]
    ).HardwareParams()
    budget = PowerBudget.from_constraint(2.0, 0.3, 128, 2, params)
    wt_dup = (8, 4, 1, 1, 1)
    spec = make_spec(model, wt_dup, xb_size=128, res_rram=2, res_dac=1,
                     params=params)
    # Layer 1 shares layer 0's two macros: owners [0, 0, 2, 3, 4].
    gene = encode_gene([0, 0, 2, 3, 4], [2, 2, 1, 1, 1])
    partition = MacroPartition.from_gene(gene)
    allocation = allocate_components(
        spec.geometries, partition.macro_groups, budget, params, 1,
        model, sharing_pairs=partition.sharing_pairs,
    )
    evaluation = PerformanceEvaluator(spec, budget).evaluate(
        partition.macro_groups, allocation
    )
    return SynthesisSolution(
        model_name="lenet5", total_power=2.0, ratio_rram=0.3,
        res_rram=2, xb_size=128, res_dac=1, wt_dup=wt_dup,
        partition=partition, allocation=allocation,
        evaluation=evaluation, spec=spec, budget=budget,
    )


class TestSharedPartitionStructure:
    def test_pair_decoded(self, shared_solution):
        assert shared_solution.partition.sharing_pairs == ((0, 1),)
        groups = shared_solution.partition.macro_groups
        assert groups[0] == groups[1]
        assert shared_solution.partition.num_macros == 5

    def test_allocation_marks_partners(self, shared_solution):
        layers = shared_solution.allocation.layers
        # The (0,1) pair merges only if beneficial; either way the
        # structure must be internally consistent.
        if layers[0].shared_with is not None:
            assert layers[0].shared_with == 1
            assert layers[1].shared_with == 0


class TestSharedChipBuild:
    def test_shared_macros_list_both_layers(self, shared_solution):
        chip = shared_solution.build_accelerator()
        shared_macros = [m for m in chip.macros if m.shared]
        assert len(shared_macros) == 2
        for macro in shared_macros:
            assert set(macro.layer_indices) == {0, 1}
        assert chip.has_macro_sharing

    def test_shared_macro_pes_cover_both_layers(self, shared_solution):
        chip = shared_solution.build_accelerator()
        geo0 = shared_solution.spec.geometries[0]
        geo1 = shared_solution.spec.geometries[1]
        shared_pes = sum(
            m.num_pes for m in chip.macros if m.shared
        )
        assert shared_pes >= geo0.crossbars + geo1.crossbars

    def test_unshared_layers_keep_private_macros(self, shared_solution):
        chip = shared_solution.build_accelerator()
        assert chip.macros_of_layer(0) == chip.macros_of_layer(1)
        for layer in (2, 3, 4):
            (macro,) = chip.macros_of_layer(layer)
            assert macro.layer_indices == (layer,)
            assert not macro.shared

    def test_power_report_positive(self, shared_solution):
        report = shared_solution.build_accelerator().power_report()
        assert report.total > 0


class TestSharedSimulation:
    def test_simulates_clean(self, shared_solution):
        engine = SimulationEngine(
            spec=shared_solution.spec,
            allocation=shared_solution.allocation,
            macro_groups=shared_solution.partition.macro_groups,
        )
        metrics = engine.simulate()
        assert metrics.throughput > 0

    def test_shared_bank_serializes_in_sim(self, shared_solution):
        """If the pair merged banks, their ADC IRs must never overlap
        in the trace (one physical bank)."""
        layers = shared_solution.allocation.layers
        if layers[0].shared_with is None:
            pytest.skip("allocator declined the merge for this point")
        engine = SimulationEngine(
            spec=shared_solution.spec,
            allocation=shared_solution.allocation,
            macro_groups=shared_solution.partition.macro_groups,
        )
        trace = engine.run(shared_solution.build_dag())
        adc_intervals = sorted(
            (e.start, e.finish)
            for e in trace
            if e.node.op.value == "adc" and e.node.layer in (0, 1)
        )
        for (s1, f1), (s2, _f2) in zip(adc_intervals,
                                       adc_intervals[1:]):
            assert s2 >= f1 - 1e-15

