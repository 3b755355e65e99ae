"""The per-offset edge walks of :mod:`tests.baselines.edge_oracle`."""

from repro.isa import Assembler
from repro.superset import Superset

from .edge_oracle import direct_call_targets, direct_predecessors, successors


def build(fn) -> Superset:
    a = Assembler()
    fn(a)
    return Superset.build(a.finish())


class TestSuccessors:
    def test_fallthrough_successor(self):
        superset = build(lambda a: (a.nop(1), a.ret()))
        assert successors(superset, 0) == [1]

    def test_ret_has_no_successors(self):
        superset = build(lambda a: (a.ret(), a.ret()))
        assert successors(superset, 0) == []

    def test_cjump_has_two_successors(self):
        a = Assembler()
        a.jcc("e", "out")
        a.nop(1)
        a.bind("out")
        a.ret()
        superset = Superset.build(a.finish())
        assert sorted(successors(superset, 0)) == [6, 7]

    def test_call_successors_include_fallthrough_and_target(self):
        a = Assembler()
        a.call("f")
        a.ret()
        a.bind("f")
        a.ret()
        superset = Superset.build(a.finish())
        assert sorted(successors(superset, 0)) == [5, 6]

    def test_out_of_section_target_excluded(self):
        superset = Superset.build(b"\xeb\x7f\xc3")   # jmp +0x7f
        assert successors(superset, 0) == []


class TestPredecessorsAndTargets:
    def test_direct_predecessors(self):
        a = Assembler()
        a.jmp("x")          # 5 bytes
        a.bind("x")
        a.ret()
        superset = Superset.build(a.finish())
        assert 0 in direct_predecessors(superset)[5]

    def test_call_target_counts(self):
        a = Assembler()
        a.call("f")
        a.call("f")
        a.ret()
        a.bind("f")
        a.ret()
        superset = Superset.build(a.finish())
        target = superset.at(0).branch_target
        assert direct_call_targets(superset)[target] >= 2
