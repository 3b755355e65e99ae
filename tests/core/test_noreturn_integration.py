"""Integration tests for deferred call continuations in the engine."""

import numpy as np

from repro.core.config import DEFAULT_CONFIG
from repro.core.engine import CodeClaim, FactEngine
from repro.core.evidence import Priority
from repro.isa import Assembler
from repro.isa.registers import RAX, RDI
from repro.superset import Superset


def drained_engine(build, entry=0):
    a = Assembler()
    build(a)
    text = a.finish()
    engine = FactEngine(Superset.build(text), np.zeros(len(text)),
                        DEFAULT_CONFIG)
    engine.push_claim(CodeClaim(entry, Priority.ANCHOR, 1.0, "entry"))
    engine.drain()
    return engine


class TestDeferredContinuations:
    def test_fallthrough_after_returning_call_is_traced(self):
        def body(a):
            a.call("f")
            a.mov_ri(RAX, 1, width=32)   # continuation: real code
            a.ret()
            a.bind("f")
            a.ret()
        engine = drained_engine(body)
        assert engine.state.is_code_start(5)     # the mov after the call
        assert not engine.noreturn_fall_sites

    def test_fallthrough_after_noreturn_call_stays_unknown(self):
        def body(a):
            a.call("panic")
            a.db(b"\x13\x37\xde\xad")    # data after noreturn call
            a.bind("after")
            a.ret()                      # reachable some other way? no.
            a.bind("panic")
            a.ud2()
        engine = drained_engine(body)
        assert 5 in engine.noreturn_fall_sites
        assert not engine.state.is_code_start(5)
        panic = engine.superset.at(0).branch_target
        assert panic in engine.noreturn_entries

    def test_guarded_panic_pattern(self):
        """The realistic shape: jcc over the panic call; the skip label
        is reached via the branch, the blob never is."""
        def body(a):
            a.alu_ri("cmp", RDI, 3)
            a.jcc("a", "skip")
            a.mov_ri(RDI, 9, width=32)
            a.call("panic")
            a.db(b"\xba\xdd\xa7\xa0\x00\x00")
            a.bind("skip")
            a.mov_ri(RAX, 0, width=32)
            a.ret()
            a.bind("panic")
            a.hlt()
        engine = drained_engine(body)
        superset = engine.superset
        skip = next(o for o in engine.state.instruction_starts()
                    if superset.at(o).mnemonic == "mov"
                    and superset.at(o).operands[0].register.family == RAX)
        assert engine.state.is_code_start(skip)
        # The blob bytes are not code.
        call_offset = next(o for o in engine.state.instruction_starts()
                           if superset.at(o).mnemonic == "call")
        blob_start = superset.at(call_offset).end
        engine.finish()
        assert not engine.state.is_code_start(blob_start)

    def test_retry_resolves_order_dependent_dispatch(self):
        """A dispatch visited before its defining mov still resolves."""
        from repro.isa import Mem
        def body(a):
            # A jump straight to the dispatch (visited first in LIFO
            # order), then the real linear path that defines the guard.
            a.jmp("linear")
            a.bind("dispatch")
            a.jmp_m(Mem(index=RDI, scale=8, disp_label="table"))
            a.bind("linear")
            a.alu_ri("cmp", RDI, 1)
            a.jcc("a", "out")
            a.jmp("dispatch")
            a.bind("out")
            a.ret()
            a.align(8, b"\xcc")
            a.bind("table")
            a.dq_label("out")
            a.dq_label("out")
        engine = drained_engine(body)
        assert [t for t in engine.resolved_tables if t.kind == "jump"]


class TestNoreturnFallSitesInGaps:
    def test_gap_at_noreturn_fall_site_not_scored(self):
        def body(a):
            a.call("panic")
            a.db(b"\x90\x90\x90\xc3")   # decodes perfectly -- still data
            a.bind("panic")
            a.ud2()
        engine = drained_engine(body)
        engine.finish()
        assert engine.state.is_data(5)
        assert not engine.state.is_code_start(5)
