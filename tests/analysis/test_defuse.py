"""Tests for the def-use counts of the behavior kernel."""

from repro.analysis.behavior import CONVENTIONALLY_LIVE, chain_counts
from repro.isa import Assembler, decode
from repro.isa.columns import is_zeroing_idiom
from repro.isa.registers import R10, R11, R13, RAX, RCX, RDI
from repro.superset import Superset


def assembled(fn) -> bytes:
    a = Assembler()
    fn(a)
    return a.finish()


def counts_at(raw: bytes, offset: int = 0):
    """The kernel's counts over the chain window starting at ``offset``."""
    counts = chain_counts(Superset.build(raw).windows_of([offset]))
    return counts._replace(**{field: int(values[0]) for field, values
                              in counts._asdict().items()})


class TestDefUsePairs:
    def test_write_then_read_is_a_pair(self):
        signals = counts_at(assembled(lambda a: (a.mov_ri(R10, 5, width=32),
                                                 a.alu_rr("add", RAX, R10))))
        assert signals.defuse_pairs >= 1
        assert signals.register_anomalies == 0

    def test_read_of_unconventional_register_is_anomaly(self):
        signals = counts_at(assembled(lambda a: a.alu_rr("add", RAX, R10)))
        assert signals.register_anomalies >= 1

    def test_argument_registers_are_not_anomalies(self):
        raw = assembled(lambda a: a.alu_rr("add", RAX, RDI))
        assert counts_at(raw).register_anomalies == 0

    def test_callee_saved_reads_allowed(self):
        assert R13 in CONVENTIONALLY_LIVE
        raw = assembled(lambda a: a.mov_rr(RAX, R13))
        assert counts_at(raw).register_anomalies == 0


class TestZeroingIdiom:
    def test_xor_self_defines_without_reading(self):
        signals = counts_at(assembled(
            lambda a: (a.alu_rr("xor", R11, R11, width=32),
                       a.alu_rr("add", RAX, R11))))
        assert signals.register_anomalies == 0
        assert signals.defuse_pairs >= 1

    def test_xor_with_other_register_is_not_idiom(self):
        raw = assembled(lambda a: a.alu_rr("xor", RAX, RCX))
        assert not is_zeroing_idiom(decode(raw, 0))
        assert not Superset.build(raw).columns.zeroing[0]

    def test_sub_self_is_idiom(self):
        raw = assembled(lambda a: a.alu_rr("sub", RAX, RAX))
        assert is_zeroing_idiom(decode(raw, 0))
        assert Superset.build(raw).columns.zeroing[0]


class TestFlags:
    def test_cmp_then_jcc_is_a_flag_pair(self):
        a = Assembler()
        a.alu_rr("cmp", RAX, RCX)
        a.jcc("e", "x")
        a.bind("x")
        signals = counts_at(a.finish())
        assert signals.length == 2
        assert signals.flag_pairs == 1
        assert signals.flag_anomalies == 0

    def test_jcc_without_producer_is_anomaly(self):
        a = Assembler()
        a.mov_rr(RAX, RCX)
        a.jcc("e", "x")
        a.bind("x")
        signals = counts_at(a.finish())
        assert signals.flag_anomalies == 1


class TestCalls:
    def test_call_invalidates_scratch_knowledge(self):
        a = Assembler()
        a.mov_ri(R10, 5, width=32)
        a.call("f")
        a.alu_rr("add", RAX, R10)     # r10 no longer known-defined
        a.bind("f")
        signals = counts_at(a.finish())
        assert signals.length == 3
        # Reading r10 after the call is an anomaly again (r10 is neither
        # conventionally live nor defined post-call).
        assert signals.register_anomalies >= 1

    def test_rax_defined_after_call(self):
        a = Assembler()
        a.call("f")
        a.mov_rr(RCX, RAX)
        a.bind("f")
        signals = counts_at(a.finish())
        assert signals.length == 2
        assert signals.defuse_pairs >= 1


class TestEmptyChain:
    def test_empty_chain(self):
        signals = counts_at(b"\x06")     # undecodable: no window at all
        assert signals.length == 0
        assert signals.defuse_pairs == 0
        assert signals.register_anomalies == signals.flag_anomalies == 0
