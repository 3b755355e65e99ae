"""Tests for jump/pointer-table resolution by backward dataflow."""

import numpy as np

from repro.binary.container import Section
from repro.binary.image import MemoryImage
from repro.core.config import DEFAULT_CONFIG
from repro.core.engine import CodeClaim, FactEngine
from repro.core.evidence import Priority
from repro.core.tables import (backward_chain,
                               resolve_indirect_jump)
from repro.isa import Assembler, Mem, mem, rip
from repro.isa.registers import R10, R11, RAX, RBP, RDI, RSP
from repro.superset import Superset


def traced_engine(text: bytes, image=None, seed: int = 0):
    superset = Superset.build(text)
    engine = FactEngine(superset, np.zeros(len(text)),
                        DEFAULT_CONFIG, image=image)
    engine.push_claim(CodeClaim(seed, Priority.ANCHOR, 1.0, "test"))
    engine.drain()
    return engine


class TestBackwardChain:
    def test_walks_block_backwards(self):
        a = Assembler()
        a.push_r(RBP)            # 0
        a.mov_rr(RBP, RSP)       # 1
        a.alu_ri("cmp", RDI, 3)  # 4
        a.ret()                  # 8
        text = a.finish()
        engine = traced_engine(text)
        chain = backward_chain(engine.superset, engine.state.is_code_start,
                               8)
        assert [i.offset for i in chain] == [4, 1, 0]

    def test_stops_at_unaccepted_bytes(self):
        a = Assembler()
        a.ret()
        text = b"\x06" + a.finish()
        engine = traced_engine(text, seed=1)
        chain = backward_chain(engine.superset, engine.state.is_code_start,
                               1)
        assert chain == []


class TestAbsoluteJumpTable:
    def build(self, with_cmp=True, entries=4):
        a = Assembler()
        if with_cmp:
            a.alu_ri("cmp", RDI, entries - 1)
            a.jcc("a", "out")
        a.jmp_m(Mem(index=RDI, scale=8, disp_label="table"))
        a.bind("out")
        a.ret()
        a.align(8, b"\xcc")
        a.bind("table")
        for i in range(entries):
            a.dq_label("out")
        return a.finish()

    def test_resolves_with_bound(self):
        text = self.build(with_cmp=True, entries=4)
        engine = traced_engine(text)
        dispatch_offset = next(
            o for o in engine.state.instruction_starts()
            if engine.superset.at(o).mnemonic == "jmp"
            and engine.superset.at(o).branch_target is None)
        dispatch = engine.superset.at(dispatch_offset)
        table = resolve_indirect_jump(engine.superset, engine.image,
                                      engine.state.is_code_start, dispatch)
        assert table is not None
        assert table.entry_size == 8
        assert len(table.targets) == 4
        assert table.in_text
        assert all(engine.superset.at(t).mnemonic == "ret"
                   for t in table.targets)

    def test_engine_marks_resolved_table_as_data(self):
        text = self.build()
        superset = Superset.build(text)
        engine = FactEngine(superset, np.zeros(len(text)),
                            DEFAULT_CONFIG)
        engine.push_claim(CodeClaim(0, Priority.ANCHOR, 1.0, "entry"))
        engine.drain()
        assert engine.resolved_tables
        table = engine.resolved_tables[0]
        assert engine.state.is_data(table.address)


class TestRelativeJumpTable:
    def test_resolves_rip_lea_pattern(self):
        a = Assembler()
        a.alu_ri("cmp", RDI, 2)
        a.jcc("a", "out")
        a.lea(R10, rip("table"))
        a.movsxd_rm(R11, mem(base=R10, index=RDI, scale=4))
        a.alu_rr("add", R11, R10)
        a.jmp_r(R11)
        a.align(4, b"\xcc")
        a.bind("table")
        for _ in range(3):
            a.dd_label_rel("out", "table")
        a.bind("out")
        a.ret()
        text = a.finish()
        engine = traced_engine(text)
        assert engine.resolved_tables
        table = engine.resolved_tables[0]
        assert table.entry_size == 4
        assert len(table.targets) == 3

    def test_resolves_mov_imm_base_out_of_text(self):
        rodata_addr = 0x2000
        a = Assembler()
        a.alu_ri("cmp", RDI, 2)
        a.jcc("a", "out")
        a.mov_ri(R10, rodata_addr, width=64)
        a.movsxd_rm(R11, mem(base=R10, index=RDI, scale=4))
        a.alu_rr("add", R11, R10)
        a.jmp_r(R11)
        a.bind("out")
        a.ret()
        text = a.finish()
        out_offset = len(text) - 1
        entries = b"".join(
            ((out_offset - rodata_addr) & 0xFFFFFFFF).to_bytes(4, "little")
            for _ in range(3))
        image = MemoryImage(sections=[
            Section(".text", 0, text, executable=True),
            Section(".rodata", rodata_addr, entries),
        ])
        engine = traced_engine(text, image=image)
        assert engine.resolved_tables
        table = engine.resolved_tables[0]
        assert not table.in_text
        assert set(table.targets) == {out_offset}


class TestPointerTable:
    def test_resolves_indirect_call_table(self):
        a = Assembler()
        a.alu_ri("cmp", RDI, 1)
        a.jcc("a", "skip")
        a.mov_rm(RAX, Mem(index=RDI, scale=8, disp_label="ptable"))
        a.call_r(RAX)
        a.bind("skip")
        a.ret()
        a.align(8, b"\xcc")
        a.bind("ptable")
        a.dq_label("f0")
        a.dq_label("f1")
        a.bind("f0")
        a.ret()
        a.bind("f1")
        a.ret()
        text = a.finish()
        engine = traced_engine(text)
        pointer_tables = [t for t in engine.resolved_tables
                          if t.kind == "pointer"]
        assert pointer_tables
        table = pointer_tables[0]
        assert len(table.targets) == 2
        # The targets were traced as code.
        for target in table.targets:
            assert engine.state.is_code_start(target)


class TestRobustness:
    def test_unresolvable_jump_reg(self):
        a = Assembler()
        a.jmp_r(RAX)    # no table idiom before it
        text = a.finish()
        engine = traced_engine(text)
        assert not engine.resolved_tables

    def test_bounded_table_with_bad_entry_rejected(self):
        a = Assembler()
        a.alu_ri("cmp", RDI, 7)      # claims 8 entries
        a.jcc("a", "out")
        a.jmp_m(Mem(index=RDI, scale=8, disp_label="table"))
        a.bind("out")
        a.ret()
        a.align(8, b"\xcc")
        a.bind("table")
        a.dq_label("out")
        a.dq_label("out")
        a.dq(0xFFFFFFFFFFFF)         # garbage entry within the bound
        text = a.finish()
        engine = traced_engine(text)
        assert not [t for t in engine.resolved_tables if t.kind == "jump"]

    def test_real_binaries_resolve_tables(self, msvc_case, models):
        from repro.core import Disassembler
        disassembler = Disassembler(models=models)
        rich = disassembler.disassemble_rich(msvc_case)
        # (resolution happens inside the engine; check via accuracy)
        missed = (msvc_case.truth.instruction_starts
                  - rich.result.instruction_starts)
        assert len(missed) / len(msvc_case.truth.instruction_starts) < 0.02
