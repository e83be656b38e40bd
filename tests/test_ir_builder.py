"""Unit tests for dataflow compilation (§IV-B, Fig. 4)."""

import pytest

from repro.errors import ConfigurationError
from repro.ir.builder import DataflowBuilder, DataflowSpec, LayerGeometry
from repro.ir.lint import lint_dag
from repro.ir.nodes import IROp


def _spec(model, wt_dup=None, res_dac=1, max_blocks=6, xb=128, rram=2):
    if wt_dup is None:
        wt_dup = [1] * model.num_weighted_layers
    return DataflowSpec(
        model=model, wt_dup=wt_dup, xb_size=xb, res_rram=rram,
        res_dac=res_dac, max_blocks_per_layer=max_blocks,
    )


class TestDataflowSpec:
    def test_geometry_counts(self, tiny_model):
        spec = _spec(tiny_model, wt_dup=[2, 1, 1])
        assert spec.num_layers == 3
        geo = spec.geometries[0]
        assert geo.wt_dup == 2
        assert geo.total_blocks == 128  # 16*16 positions / 2

    def test_bits_follows_dac(self, tiny_model):
        assert _spec(tiny_model, res_dac=1).bits == 16
        assert _spec(tiny_model, res_dac=4).bits == 4

    def test_wrong_wtdup_length_rejected(self, tiny_model):
        with pytest.raises(ConfigurationError):
            _spec(tiny_model, wt_dup=[1, 1])

    def test_nonpositive_wtdup_rejected(self, tiny_model):
        with pytest.raises(ConfigurationError):
            _spec(tiny_model, wt_dup=[0, 1, 1])

    def test_window_proportional(self, tiny_model):
        spec = _spec(tiny_model, wt_dup=[1, 1, 1], max_blocks=8)
        # c1 has 256 blocks (most); fc1 has 1.
        assert spec.window_blocks(0) == 8
        assert spec.window_blocks(2) == 1
        # c2 has 64 blocks -> ceil(64 * 8/256) = 2
        assert spec.window_blocks(1) == 2

    def test_window_covers_small_models_fully(self, tiny_model):
        spec = _spec(tiny_model, wt_dup=[256, 64, 1], max_blocks=8)
        assert spec.window_blocks(0) == 1
        assert spec.window_blocks(1) == 1

    def test_geometry_derived_quantities(self, tiny_model):
        geo = _spec(tiny_model).geometries[1]  # c2: 36 rows, 8 cols
        assert geo.rows == 36
        assert geo.cols == 8
        assert geo.inputs_per_block == 36
        assert geo.outputs_per_block == 8
        assert geo.crossbars == geo.wt_dup * geo.set_size


class TestBuildStructure:
    def test_block_ir_complement(self, tiny_model):
        spec = _spec(tiny_model, max_blocks=4)
        dag = DataflowBuilder(spec).build()
        hist = dag.op_histogram()
        total_blocks = sum(
            spec.window_blocks(i) for i in range(spec.num_layers)
        )
        assert hist[IROp.LOAD] == total_blocks
        assert hist[IROp.STORE] == total_blocks
        assert hist[IROp.MVM] == total_blocks * spec.bits
        assert hist[IROp.ADC] == total_blocks * spec.bits
        assert hist[IROp.ALU] == total_blocks * spec.bits

    def test_no_comm_irs_without_macro_alloc(self, tiny_model):
        dag = DataflowBuilder(_spec(tiny_model)).build()
        hist = dag.op_histogram()
        assert IROp.TRANSFER not in hist
        assert IROp.MERGE not in hist

    def test_transfers_added_with_macro_alloc(self, tiny_model):
        spec = _spec(tiny_model)
        dag = DataflowBuilder(spec).build(
            macro_alloc={0: [0], 1: [1], 2: [2]}
        )
        assert dag.op_histogram()[IROp.TRANSFER] > 0

    def test_no_transfer_when_same_macro(self, tiny_model):
        spec = _spec(tiny_model)
        dag = DataflowBuilder(spec).build(
            macro_alloc={0: [0], 1: [0], 2: [0]}
        )
        assert IROp.TRANSFER not in dag.op_histogram()

    def test_merge_needs_multi_macro_and_row_tiles(self, tiny_model):
        spec = _spec(tiny_model)
        # fc1 (layer 2) has 512 rows -> 4 row tiles at 128.
        dag = DataflowBuilder(spec).build(
            macro_alloc={0: [0], 1: [1], 2: [2, 3]}
        )
        merges = dag.nodes_of_op(IROp.MERGE)
        assert merges and all(n.layer == 2 for n in merges)

    def test_lint_clean(self, tiny_model, lenet):
        for model in (tiny_model, lenet):
            spec = _spec(model)
            assert lint_dag(DataflowBuilder(spec).build()) == []

    def test_acyclic_with_macro_alloc(self, lenet):
        spec = _spec(lenet, max_blocks=4)
        alloc = {i: [i] for i in range(spec.num_layers)}
        dag = DataflowBuilder(spec).build(macro_alloc=alloc)
        dag.validate_acyclic()
        assert lint_dag(dag) == []

    def test_adjacency_lists_agree(self, lenet):
        spec = _spec(lenet, max_blocks=4)
        alloc = {i: [i] for i in range(spec.num_layers)}
        dag = DataflowBuilder(spec).build(macro_alloc=alloc)
        edges = {
            (node.node_id, succ.node_id)
            for node in dag for succ in dag.successors(node)
        }
        back = {
            (pred.node_id, node.node_id)
            for node in dag for pred in dag.predecessors(node)
        }
        assert edges == back
        assert len(edges) == dag.num_edges

    def test_every_layer_compiles_its_window(self, tiny_model):
        spec = _spec(tiny_model, max_blocks=4)
        dag = DataflowBuilder(spec).build(
            macro_alloc={0: [0], 1: [1], 2: [2, 3]}
        )
        for layer in range(spec.num_layers):
            nodes = dag.nodes_of_layer(layer)
            loads = [n for n in nodes if n.op == IROp.LOAD]
            assert sorted(n.cnt for n in loads) == list(
                range(spec.window_blocks(layer))
            )

    def test_critical_path_is_a_dependency_chain(self, tiny_model):
        spec = _spec(tiny_model, max_blocks=4)
        dag = DataflowBuilder(spec).build(
            macro_alloc={0: [0], 1: [1], 2: [2]}
        )
        path = dag.critical_path(lambda n: 1.0)
        assert len(path) == dag.depth()
        assert path[0] in dag.sources()
        assert path[-1] in dag.sinks()
        for node, nxt in zip(path, path[1:]):
            assert nxt in dag.successors(node)

    def test_transfers_join_producer_store_to_consumer_load(
        self, tiny_model
    ):
        spec = _spec(tiny_model)
        alloc = {0: [0], 1: [1, 4], 2: [2]}
        dag = DataflowBuilder(spec).build(macro_alloc=alloc)
        transfers = dag.nodes_of_op(IROp.TRANSFER)
        assert transfers
        edges = set(tiny_model.interlayer_edges())
        for node in transfers:
            assert (node.layer, node.dst_layer) in edges
            assert node.src == alloc[node.layer][0]
            assert node.dst == alloc[node.dst_layer][0]
            (pred,) = dag.predecessors(node)
            assert (pred.op, pred.layer) == (IROp.STORE, node.layer)
            (succ,) = dag.successors(node)
            assert (succ.op, succ.layer, succ.cnt) == (
                IROp.LOAD, node.dst_layer, node.cnt
            )


class TestDependencies:
    def _block_nodes(self, dag, layer, cnt):
        return {
            n.op: n for n in dag
            if n.layer == layer and n.cnt == cnt and n.bit == 0
        }

    def test_intra_block_chain(self, tiny_model):
        spec = _spec(tiny_model)
        dag = DataflowBuilder(spec).build()
        load = next(
            n for n in dag.nodes_of_op(IROp.LOAD)
            if n.layer == 0 and n.cnt == 0
        )
        mvm0 = next(
            n for n in dag.nodes_of_op(IROp.MVM)
            if n.layer == 0 and n.cnt == 0 and n.bit == 0
        )
        assert mvm0 in dag.successors(load)

    def test_inter_bit_chain(self, tiny_model):
        spec = _spec(tiny_model, res_dac=4)  # 4 bits
        dag = DataflowBuilder(spec).build()
        mvms = sorted(
            (n for n in dag.nodes_of_op(IROp.MVM)
             if n.layer == 0 and n.cnt == 0),
            key=lambda n: n.bit,
        )
        for prev, cur in zip(mvms, mvms[1:]):
            assert cur in dag.successors(prev)

    def test_inter_block_chain(self, tiny_model):
        spec = _spec(tiny_model, res_dac=4)
        dag = DataflowBuilder(spec).build()
        last_bit = spec.bits - 1
        prev_last = next(
            n for n in dag.nodes_of_op(IROp.MVM)
            if n.layer == 0 and n.cnt == 0 and n.bit == last_bit
        )
        next_first = next(
            n for n in dag.nodes_of_op(IROp.MVM)
            if n.layer == 0 and n.cnt == 1 and n.bit == 0
        )
        assert next_first in dag.successors(prev_last)

    def test_inter_layer_dependency_exists(self, tiny_model):
        spec = _spec(tiny_model)
        dag = DataflowBuilder(spec).build()
        # some store of layer 0 must feed some load of layer 1
        stores0 = dag.nodes_of_op(IROp.STORE)
        found = any(
            succ.op is IROp.LOAD and succ.layer == 1
            for store in stores0 if store.layer == 0
            for succ in dag.successors(store)
        )
        assert found


class TestPaperFig4Example:
    """Layer 1: WtDup=3, WK=3; layer 2: WtDup=2 — store cnt=5 feeds
    load cnt=3 in the paper's Fig. 4 example."""

    def test_producer_block_mapping(self):
        producer = LayerGeometry(
            index=0, name="l1", rows=9, cols=4, out_positions=36,
            wt_dup=3, set_size=1, row_tiles=1, col_tiles=1, bit_slices=1,
        )
        consumer = LayerGeometry(
            index=1, name="l2", rows=36, cols=4, out_positions=36,
            wt_dup=2, set_size=1, row_tiles=1, col_tiles=1, bit_slices=1,
        )

        class _FakeBuilder(DataflowBuilder):
            def __init__(self):
                pass

        mapped = _FakeBuilder().producer_block_for(producer, consumer, 3)
        # consumer block 3 consumes 8 positions; + halo of one row (6)
        # -> 14 producer outputs -> ceil(14/3) - 1 = block 4; the paper
        # shows the *fifth* store (cnt=5 with 1-based halo reading).
        assert mapped in (3, 4, 5)

    def test_mapping_monotone_in_cnt(self):
        producer = LayerGeometry(
            index=0, name="l1", rows=9, cols=4, out_positions=100,
            wt_dup=3, set_size=1, row_tiles=1, col_tiles=1, bit_slices=1,
        )
        consumer = LayerGeometry(
            index=1, name="l2", rows=36, cols=4, out_positions=100,
            wt_dup=2, set_size=1, row_tiles=1, col_tiles=1, bit_slices=1,
        )

        class _FakeBuilder(DataflowBuilder):
            def __init__(self):
                pass

        builder = _FakeBuilder()
        blocks = [
            builder.producer_block_for(producer, consumer, cnt)
            for cnt in range(50)
        ]
        assert blocks == sorted(blocks)
        assert all(0 <= b < producer.total_blocks for b in blocks)
