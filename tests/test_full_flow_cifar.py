"""Medium-scale integration: the complete flow on a CIFAR network.

LeNet-5 exercises the machinery cheaply; this suite pushes a real
(paper-relevant) workload — CIFAR-scale VGG16 from Table V — through
synthesis, refinement, chip build, simulation, schedule export and
persistence in one pass, asserting cross-artifact consistency
throughout.
"""

import pytest

from repro.core import Pimsyn, SynthesisConfig
from repro.core.persistence import load_solution, save_solution
from repro.nn import vgg16_cifar
from repro.sim import SimulationEngine
from repro.sim.schedule import export_schedule


@pytest.fixture(scope="module")
def flow():
    model = vgg16_cifar()
    config = SynthesisConfig.fast(total_power=18.0, seed=61)
    solution = Pimsyn(model, config).synthesize()
    engine = SimulationEngine(
        spec=solution.spec,
        allocation=solution.allocation,
        macro_groups=solution.partition.macro_groups,
    )
    dag = solution.build_dag()
    trace = engine.run(dag)
    return model, solution, dag, trace


class TestSynthesisOutcome:
    def test_meets_power_constraint(self, flow):
        _model, solution, _dag, _trace = flow
        assert solution.evaluation.power <= 18.0 * 1.001

    def test_duplicates_early_layers_more(self, flow):
        """CIFAR VGG16's early convs dominate block counts; a balanced
        pipeline duplicates them hardest."""
        _model, solution, _dag, _trace = flow
        assert solution.wt_dup[0] > solution.wt_dup[-1]

    def test_all_layers_partitioned(self, flow):
        model, solution, _dag, _trace = flow
        assert len(solution.partition.macro_groups) == \
            model.num_weighted_layers


class TestArtifactConsistency:
    def test_chip_pes_hold_every_weight_copy(self, flow):
        _model, solution, _dag, _trace = flow
        chip = solution.build_accelerator()
        for geo in solution.spec.geometries:
            pes = sum(m.num_pes for m in chip.macros_of_layer(geo.index))
            assert pes >= geo.crossbars  # WtDup_i * set_i (Eq. 2 LHS)
        assert chip.num_crossbars >= sum(
            geo.crossbars for geo in solution.spec.geometries
        )

    def test_chip_layer_map_matches_partition(self, flow):
        _model, solution, _dag, _trace = flow
        chip = solution.build_accelerator()
        groups = solution.partition.macro_groups
        assert chip.num_macros == solution.partition.num_macros
        for layer, group in enumerate(groups):
            assert chip.layer_macros[layer] == list(group)
        for macro in chip.macros:
            users = [i for i, group in enumerate(groups)
                     if macro.macro_id in group]
            assert list(macro.layer_indices) == users

    def test_dag_matches_window_structure(self, flow):
        _model, solution, dag, _trace = flow
        spec = solution.spec
        from repro.ir.nodes import IROp

        stores = dag.nodes_of_op(IROp.STORE)
        expected = sum(
            spec.window_blocks(i) for i in range(spec.num_layers)
        )
        assert len(stores) == expected

    def test_schedule_covers_all_macros(self, flow):
        _model, solution, _dag, trace = flow
        schedule = export_schedule(
            trace, solution.partition.macro_groups
        )
        assert schedule.num_macros == solution.partition.num_macros

    def test_simulation_agrees_with_analytical(self, flow):
        _model, solution, _dag, trace = flow
        from repro.sim.metrics import extrapolate

        metrics = extrapolate(trace, solution.spec)
        ratio = solution.evaluation.throughput / metrics.throughput
        # Deep pipelines are where the windowed simulator is most
        # conservative: inter-layer dependencies beyond the window
        # clamp to the producer's last windowed block, serializing the
        # measured tail (see DataflowBuilder._wire_inter_layer). The
        # analytic estimate stays an upper bound within a small factor.
        assert 1.0 <= ratio <= 6.0

    def test_persistence_roundtrip(self, flow, tmp_path):
        model, solution, _dag, _trace = flow
        path = tmp_path / "vgg16_cifar.json"
        save_solution(solution, path)
        restored = load_solution(path, vgg16_cifar())
        assert restored.partition.gene == solution.partition.gene
