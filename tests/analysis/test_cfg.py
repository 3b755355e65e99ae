"""Tests for CFG construction over accepted instruction sets."""

from repro.analysis.cfg import build_cfg
from repro.isa import Assembler
from repro.isa.registers import RAX, RBP, RCX, RSP
from repro.superset import Superset


def make(fn):
    a = Assembler()
    fn(a)
    text = a.finish()
    superset = Superset.build(text)
    accepted = set()
    offset = 0
    while offset < len(text):
        ins = superset.at(offset)
        accepted.add(offset)
        offset = ins.end
    return superset, accepted


class TestBasicBlocks:
    def test_straight_line_is_one_block(self):
        superset, accepted = make(lambda a: (a.push_r(RBP),
                                             a.mov_rr(RBP, RSP),
                                             a.ret()))
        cfg = build_cfg(superset, accepted)
        assert len(cfg.blocks) == 1
        block = cfg.blocks[0]
        assert len(block.instructions) == 3
        assert block.terminator.mnemonic == "ret"

    def test_branch_splits_blocks(self):
        def body(a):
            a.test_rr(RAX, RAX)
            a.jcc("e", "out")
            a.inc(RAX)
            a.bind("out")
            a.ret()
        superset, accepted = make(body)
        cfg = build_cfg(superset, accepted)
        assert len(cfg.blocks) == 3
        entry = cfg.blocks[0]
        successors = cfg.successors(0)
        assert len(successors) == 2

    def test_backward_edge(self):
        def body(a):
            a.mov_ri(RCX, 5, width=32)
            a.bind("top")
            a.dec(RCX, width=32)
            a.jcc("ne", "top")
            a.ret()
        superset, accepted = make(body)
        cfg = build_cfg(superset, accepted)
        loop_head = 5    # after the 5-byte mov
        assert loop_head in cfg.blocks
        assert loop_head in cfg.successors(loop_head)

    def test_call_does_not_create_interproc_edge(self):
        def body(a):
            a.call("f")
            a.ret()
            a.bind("f")
            a.ret()
        superset, accepted = make(body)
        cfg = build_cfg(superset, accepted)
        # Calls do not end blocks; the callee is its own block (it is a
        # branch-target leader) with no intraprocedural edge from the
        # caller.
        caller = cfg.blocks[0]
        assert [i.mnemonic for i in caller.instructions] == ["call", "ret"]
        callee = superset.at(0).branch_target
        assert callee in cfg.blocks
        assert callee not in cfg.successors(0)

    def test_reachable_from(self):
        def body(a):
            a.jmp("end")
            a.ret()       # unreachable
            a.bind("end")
            a.ret()
        superset, accepted = make(body)
        cfg = build_cfg(superset, accepted)
        reached = cfg.reachable_from([0])
        assert 6 in reached     # the jump target block
        assert 5 not in reached  # the dead ret

    def test_reachable_from_accepts_any_iterable(self):
        def body(a):
            a.jmp("end")
            a.ret()       # unreachable
            a.bind("end")
            a.ret()
        superset, accepted = make(body)
        cfg = build_cfg(superset, accepted)
        from_list = cfg.reachable_from([0])
        assert cfg.reachable_from({0}) == from_list
        assert cfg.reachable_from(iter((0,))) == from_list
        assert cfg.reachable_from(frozenset({0})) == from_list
        # Non-block offsets are ignored, not an error.
        assert cfg.reachable_from({0, 999}) == from_list
        assert cfg.reachable_from(()) == set()

    def test_successors_and_predecessors(self):
        def body(a):
            a.test_rr(RAX, RAX)
            a.jcc("e", "out")
            a.inc(RAX)
            a.bind("out")
            a.ret()
        superset, accepted = make(body)
        cfg = build_cfg(superset, accepted)
        starts = sorted(cfg.blocks)
        entry, taken, out = starts
        # The entry block branches to both the fall-through block and
        # the jump-target block; both converge on "out".
        assert cfg.successors(entry) == [taken, out]
        assert cfg.predecessors(entry) == []
        assert cfg.successors(taken) == [out]
        assert sorted(cfg.predecessors(out)) == [entry, taken]
        assert cfg.successors(out) == []

    def test_call_fallthrough_edge_exists(self):
        def body(a):
            a.call("f")
            a.inc(RAX)
            a.bind("f")
            a.ret()
        superset, accepted = make(body)
        cfg = build_cfg(superset, accepted)
        callee = superset.at(0).branch_target
        # The callee is a leader, which splits the caller's block; the
        # fall-through edge from call to the next instruction remains
        # intraprocedural only if a block boundary exists there.
        assert callee in cfg.blocks
        in_blocks = [i.offset for b in cfg.blocks.values()
                     for i in b.instructions]
        assert set(in_blocks) == accepted

    def test_blocks_partition_instructions(self, msvc_case, msvc_superset):
        accepted = msvc_case.truth.instruction_starts
        cfg = build_cfg(msvc_superset, accepted)
        in_blocks = [i.offset for b in cfg.blocks.values()
                     for i in b.instructions]
        assert len(in_blocks) == len(set(in_blocks))
        assert set(in_blocks) == accepted


class TestAgainstReference:
    def test_blocks_and_edges_match_the_per_instruction_reference(
            self, all_cases):
        from tests.lint.context_oracle import blocks_and_predecessors
        for case in all_cases:
            superset = Superset.build(case.text)
            # A claim with overlapping and undecodable starts as well.
            for accepted in (case.truth.instruction_starts,
                             set(range(0, len(case.text), 3))):
                cfg = build_cfg(superset, accepted)
                blocks, predecessors = blocks_and_predecessors(superset,
                                                               accepted)
                assert {start: block.instructions
                        for start, block in cfg.blocks.items()} == blocks
                assert {start: set(cfg.predecessors(start))
                        for start in cfg.blocks} == predecessors
