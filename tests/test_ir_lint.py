"""Unit tests for the structural lint passes over IR DAGs.

Compiled DAGs are checked to lint clean elsewhere; these tests seed one
violation at a time into a hand-built DAG and check that the matching
pass reports it.
"""

from repro.ir.dag import IRDag
from repro.ir.lint import lint_dag
from repro.ir.nodes import IRNode, IROp


def _block(dag, layer=0, cnt=0, bit=0):
    """A well-formed one-bit block: load -> mvm -> adc -> alu -> store."""
    load = dag.add_node(IRNode(op=IROp.LOAD, layer=layer, cnt=cnt,
                               vec_width=4))
    mvm = dag.add_node(IRNode(op=IROp.MVM, layer=layer, cnt=cnt, bit=bit,
                              xb_num=2))
    adc = dag.add_node(IRNode(op=IROp.ADC, layer=layer, cnt=cnt, bit=bit,
                              vec_width=4))
    alu = dag.add_node(IRNode(op=IROp.ALU, layer=layer, cnt=cnt, bit=bit,
                              aluop="shift_add", vec_width=4))
    store = dag.add_node(IRNode(op=IROp.STORE, layer=layer, cnt=cnt,
                                vec_width=4))
    for src, dst in ((load, mvm), (mvm, adc), (adc, alu), (alu, store)):
        dag.add_edge(src, dst)
    return load, mvm, adc, alu, store


class TestLintDag:
    def test_well_formed_blocks_are_clean(self):
        dag = IRDag()
        *_, store = _block(dag, layer=0)
        load, *_ = _block(dag, layer=1)
        dag.add_edge(store, load)
        assert lint_dag(dag) == []

    def test_cycle_reported_alone(self):
        dag = IRDag()
        load, _mvm, _adc, _alu, store = _block(dag)
        dag.add_edge(store, load)
        # A duplicated store would also be a violation, but the other
        # passes need a topological order, so only the cycle is named.
        dag.add_node(IRNode(op=IROp.STORE, layer=0, cnt=0, vec_width=4))
        problems = lint_dag(dag)
        assert len(problems) == 1
        assert problems[0].startswith("cycle:")

    def test_duplicate_load_reported(self):
        dag = IRDag()
        load, *_ = _block(dag)
        twin = dag.add_node(IRNode(op=IROp.LOAD, layer=0, cnt=0,
                                   vec_width=4))
        dag.add_edge(twin, load)
        assert lint_dag(dag) == ["load L0 cnt=0 appears 2 times"]

    def test_adc_without_its_mvm_reported(self):
        dag = IRDag()
        _load, mvm, *_ = _block(dag, bit=0)
        # An ADC fed by the MVM of another bit reads the wrong samples.
        stray = dag.add_node(IRNode(op=IROp.ADC, layer=0, cnt=0, bit=1,
                                    vec_width=4))
        dag.add_edge(mvm, stray)
        problems = lint_dag(dag)
        assert len(problems) == 1
        assert problems[0].startswith("ADC without matching MVM")
        assert "bit=1" in problems[0]

    def test_store_without_load_reported(self):
        dag = IRDag()
        _block(dag, cnt=0)
        dag.add_node(IRNode(op=IROp.STORE, layer=0, cnt=5, vec_width=4))
        problems = lint_dag(dag)
        assert len(problems) == 1
        assert problems[0].startswith("store without load")
        assert "cnt=5" in problems[0]

    def test_store_unreachable_from_its_load_reported(self):
        dag = IRDag()
        dag.add_node(IRNode(op=IROp.LOAD, layer=2, cnt=0, vec_width=4))
        dag.add_node(IRNode(op=IROp.STORE, layer=2, cnt=0, vec_width=4))
        problems = lint_dag(dag)
        assert len(problems) == 1
        assert problems[0].startswith("store not reachable from its load")

    def test_transfer_to_its_own_macro_reported(self):
        dag = IRDag()
        *_, store = _block(dag, layer=0)
        load, *_ = _block(dag, layer=1)
        transfer = dag.add_node(IRNode(op=IROp.TRANSFER, layer=0, src=3,
                                       dst=3, dst_layer=1, vec_width=4))
        dag.add_edge(store, transfer)
        dag.add_edge(transfer, load)
        problems = lint_dag(dag)
        assert len(problems) == 1
        assert problems[0].startswith("transfer with src == dst")
        assert "3->3" in problems[0]
