"""Tests for register def-use chain analysis."""

from repro.isa import Assembler, decode
from repro.isa.registers import R10, R11, R13, RAX, RCX, RDI
from repro.analysis.defuse import (CONVENTIONALLY_LIVE, analyze_chain,
                                   _is_zeroing_idiom)


def chain_of(fn) -> list:
    a = Assembler()
    fn(a)
    raw = a.finish()
    chain = []
    offset = 0
    while offset < len(raw):
        ins = decode(raw, offset)
        chain.append(ins)
        offset = ins.end
    return chain


class TestDefUsePairs:
    def test_write_then_read_is_a_pair(self):
        chain = chain_of(lambda a: (a.mov_ri(R10, 5, width=32),
                                    a.alu_rr("add", RAX, R10)))
        signals = analyze_chain(chain)
        assert signals.defuse_pairs >= 1
        assert signals.register_anomalies == 0

    def test_read_of_unconventional_register_is_anomaly(self):
        chain = chain_of(lambda a: a.alu_rr("add", RAX, R10))
        signals = analyze_chain(chain)
        assert signals.register_anomalies >= 1

    def test_argument_registers_are_not_anomalies(self):
        chain = chain_of(lambda a: a.alu_rr("add", RAX, RDI))
        assert analyze_chain(chain).register_anomalies == 0

    def test_callee_saved_reads_allowed(self):
        assert R13 in CONVENTIONALLY_LIVE
        chain = chain_of(lambda a: a.mov_rr(RAX, R13))
        assert analyze_chain(chain).register_anomalies == 0


class TestZeroingIdiom:
    def test_xor_self_defines_without_reading(self):
        chain = chain_of(lambda a: (a.alu_rr("xor", R11, R11, width=32),
                                    a.alu_rr("add", RAX, R11)))
        signals = analyze_chain(chain)
        assert signals.register_anomalies == 0
        assert signals.defuse_pairs >= 1

    def test_xor_with_other_register_is_not_idiom(self):
        ins = chain_of(lambda a: a.alu_rr("xor", RAX, RCX))[0]
        assert not _is_zeroing_idiom(ins)

    def test_sub_self_is_idiom(self):
        ins = chain_of(lambda a: a.alu_rr("sub", RAX, RAX))[0]
        assert _is_zeroing_idiom(ins)


class TestFlags:
    def test_cmp_then_jcc_is_a_flag_pair(self):
        a = Assembler()
        a.alu_rr("cmp", RAX, RCX)
        a.jcc("e", "x")
        a.bind("x")
        raw = a.finish()
        chain = [decode(raw, 0), decode(raw, 3)]
        signals = analyze_chain(chain)
        assert signals.flag_pairs == 1
        assert signals.flag_anomalies == 0

    def test_jcc_without_producer_is_anomaly(self):
        chain = chain_of(lambda a: (a.mov_rr(RAX, RCX),))
        a = Assembler()
        a.jcc("e", "x")
        a.bind("x")
        jcc = decode(a.finish(), 0)
        signals = analyze_chain(chain + [jcc])
        assert signals.flag_anomalies == 1


class TestCalls:
    def test_call_invalidates_scratch_knowledge(self):
        a = Assembler()
        a.mov_ri(R10, 5, width=32)
        a.call("f")
        a.alu_rr("add", RAX, R10)     # r10 no longer known-defined
        a.bind("f")
        raw = a.finish()
        chain = []
        offset = 0
        for _ in range(3):
            ins = decode(raw, offset)
            chain.append(ins)
            offset = ins.end
        signals = analyze_chain(chain)
        # Reading r10 after the call is an anomaly again (r10 is neither
        # conventionally live nor defined post-call).
        assert signals.register_anomalies >= 1

    def test_rax_defined_after_call(self):
        a = Assembler()
        a.call("f")
        a.mov_rr(RCX, RAX)
        a.bind("f")
        raw = a.finish()
        chain = [decode(raw, 0), decode(raw, 5)]
        signals = analyze_chain(chain)
        assert signals.defuse_pairs >= 1


class TestEmptyChain:
    def test_empty_chain(self):
        signals = analyze_chain([])
        assert signals.instructions == 0
        assert signals.defuse_pairs == 0
        assert signals.register_anomalies == signals.flag_anomalies == 0
