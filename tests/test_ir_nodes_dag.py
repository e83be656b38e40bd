"""Unit tests for IR nodes (Table II) and the DAG structure."""

import pytest

from repro.errors import IRError
from repro.ir.dag import IRDag
from repro.ir.nodes import ALUOP_KINDS, IRNode, IROp


def _mvm(layer=0, cnt=0, bit=0):
    return IRNode(op=IROp.MVM, layer=layer, cnt=cnt, bit=bit, xb_num=4)


class TestIRNodeValidation:
    def test_mvm_requires_crossbars(self):
        with pytest.raises(IRError):
            IRNode(op=IROp.MVM, layer=0, xb_num=0)

    def test_alu_requires_known_op(self):
        IRNode(op=IROp.ALU, layer=0, aluop="shift_add", vec_width=4)
        with pytest.raises(IRError):
            IRNode(op=IROp.ALU, layer=0, aluop="fma", vec_width=4)

    def test_alu_ops_cover_fig2_list(self):
        # Fig. 2 names shift-and-add, pooling, ReLU explicitly.
        assert {"shift_add", "pooling", "relu"} <= set(ALUOP_KINDS)

    def test_vector_ops_require_width(self):
        for op in (IROp.ADC, IROp.LOAD, IROp.STORE):
            with pytest.raises(IRError):
                IRNode(op=op, layer=0, vec_width=0)

    def test_merge_requires_two_macros(self):
        with pytest.raises(IRError):
            IRNode(op=IROp.MERGE, layer=0, macro_num=1, vec_width=4)

    def test_transfer_requires_endpoints(self):
        with pytest.raises(IRError):
            IRNode(op=IROp.TRANSFER, layer=0, src=-1, dst=0, vec_width=4)

    def test_negative_indices_rejected(self):
        with pytest.raises(IRError):
            IRNode(op=IROp.LOAD, layer=-1, vec_width=4)
        with pytest.raises(IRError):
            IRNode(op=IROp.LOAD, layer=0, cnt=-1, vec_width=4)

    def test_category_predicates(self):
        assert _mvm().is_computation
        load = IRNode(op=IROp.LOAD, layer=0, vec_width=4)
        assert load.is_communication and not load.is_inter_macro
        merge = IRNode(op=IROp.MERGE, layer=0, macro_num=2, vec_width=4)
        assert merge.is_inter_macro

    def test_describe_is_compact(self):
        text = _mvm(layer=3, cnt=7, bit=2).describe()
        assert "L3" in text and "cnt=7" in text and "bit=2" in text


class TestIRDag:
    def test_node_ids_assigned_sequentially(self):
        dag = IRDag()
        a = dag.add_node(_mvm())
        b = dag.add_node(_mvm(cnt=1))
        assert (a.node_id, b.node_id) == (0, 1)

    def test_edges_and_neighbors(self):
        dag = IRDag()
        a = dag.add_node(_mvm())
        b = dag.add_node(_mvm(cnt=1))
        dag.add_edge(a, b)
        assert dag.successors(a) == [b]
        assert dag.predecessors(b) == [a]
        assert dag.num_edges == 1

    def test_duplicate_edge_idempotent(self):
        dag = IRDag()
        a, b = dag.add_node(_mvm()), dag.add_node(_mvm(cnt=1))
        dag.add_edge(a, b)
        dag.add_edge(a, b)
        assert dag.num_edges == 1

    def test_self_edge_rejected(self):
        dag = IRDag()
        a = dag.add_node(_mvm())
        with pytest.raises(IRError):
            dag.add_edge(a, a)

    def test_topological_order_respects_edges(self):
        dag = IRDag()
        nodes = [dag.add_node(_mvm(cnt=i)) for i in range(5)]
        dag.add_edge(nodes[3], nodes[1])
        dag.add_edge(nodes[1], nodes[0])
        order = [n.node_id for n in dag.topological_order()]
        assert order.index(3) < order.index(1) < order.index(0)

    def test_cycle_detected(self):
        dag = IRDag()
        a, b = dag.add_node(_mvm()), dag.add_node(_mvm(cnt=1))
        dag.add_edge(a, b)
        dag.add_edge(b, a)
        with pytest.raises(IRError):
            dag.topological_order()

    def test_sources_and_sinks(self):
        dag = IRDag()
        a, b, c = (dag.add_node(_mvm(cnt=i)) for i in range(3))
        dag.add_edge(a, b)
        dag.add_edge(b, c)
        assert dag.sources() == [a]
        assert dag.sinks() == [c]

    def test_critical_path_length_unit(self):
        dag = IRDag()
        a, b, c = (dag.add_node(_mvm(cnt=i)) for i in range(3))
        dag.add_edge(a, b)
        dag.add_edge(b, c)
        assert dag.critical_path_length(lambda n: 1.0) == 3.0

    def test_critical_path_weighted(self):
        dag = IRDag()
        a, b, c = (dag.add_node(_mvm(cnt=i)) for i in range(3))
        dag.add_edge(a, b)
        dag.add_edge(a, c)
        weights = {0: 1.0, 1: 5.0, 2: 2.0}
        assert dag.critical_path_length(
            lambda n: weights[n.node_id]
        ) == 6.0
        path = dag.critical_path(lambda n: weights[n.node_id])
        assert [n.node_id for n in path] == [0, 1]

    def test_ancestors(self):
        dag = IRDag()
        a, b, c = (dag.add_node(_mvm(cnt=i)) for i in range(3))
        dag.add_edge(a, b)
        dag.add_edge(b, c)
        assert dag.ancestors(c) == {0, 1}

    def test_histograms_and_filters(self):
        dag = IRDag()
        dag.add_node(_mvm())
        dag.add_node(IRNode(op=IROp.LOAD, layer=1, vec_width=4))
        assert dag.op_histogram()[IROp.MVM] == 1
        assert len(dag.nodes_of_layer(1)) == 1
        assert len(dag.nodes_of_op(IROp.LOAD)) == 1

    def test_node_lookup_bounds(self):
        dag = IRDag()
        with pytest.raises(IRError):
            dag.node(0)

    def test_depth_is_longest_chain_in_nodes(self):
        dag = IRDag()
        a, b, c, d = (dag.add_node(_mvm(cnt=i)) for i in range(4))
        dag.add_edge(a, b)
        dag.add_edge(b, c)
        dag.add_edge(a, d)
        dag.add_node(_mvm(cnt=4))  # isolated
        assert dag.depth() == 3

    def test_empty_dag(self):
        dag = IRDag()
        assert len(dag) == 0 and dag.num_edges == 0
        assert dag.depth() == 0
        assert dag.critical_path_length(lambda n: 1.0) == 0.0
        assert dag.critical_path(lambda n: 1.0) == []
        assert dag.sources() == [] and dag.sinks() == []

    def test_edge_to_foreign_node_rejected(self):
        dag = IRDag()
        a = dag.add_node(_mvm())
        other = IRDag()
        other.add_node(_mvm())
        foreign = other.add_node(_mvm(cnt=1))  # id 1, absent here
        with pytest.raises(IRError):
            dag.add_edge(a, foreign)
        with pytest.raises(IRError):
            dag.add_edge(_mvm(cnt=2), a)  # never added: id -1

    def test_new_edge_invalidates_topological_order(self):
        dag = IRDag()
        a, b = dag.add_node(_mvm()), dag.add_node(_mvm(cnt=1))
        assert [n.node_id for n in dag.topological_order()] == [0, 1]
        dag.add_edge(b, a)
        assert [n.node_id for n in dag.topological_order()] == [1, 0]

    def test_add_node_stores_a_numbered_copy(self):
        dag = IRDag()
        original = _mvm(layer=2, cnt=3)
        dag.add_node(_mvm())
        stored = dag.add_node(original)
        assert original.node_id == -1
        assert stored.node_id == 1
        assert stored is not original
        # node_id is not part of a node's identity.
        assert stored == original
        assert stored.key() == original.key()
        assert dag.node(1) is stored

    def test_nodes_view_is_a_copy(self):
        dag = IRDag()
        dag.add_node(_mvm())
        view = dag.nodes
        view.clear()
        assert len(dag) == 1


class TestIRNodeDescribe:
    def test_transfer_names_its_endpoints(self):
        node = IRNode(op=IROp.TRANSFER, layer=1, cnt=2, src=0, dst=3,
                      dst_layer=2, vec_width=16)
        assert node.describe() == "transfer L1 cnt=2 w=16 0->3"

    def test_merge_names_its_macro_count(self):
        node = IRNode(op=IROp.MERGE, layer=0, macro_num=4, vec_width=8)
        assert node.describe() == "merge L0 cnt=0 w=8 macros=4"
