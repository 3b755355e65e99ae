"""Tests for prologue idiom recognition."""

from repro.analysis.idioms import (PROLOGUE_THRESHOLD,
                                   likely_function_starts, prologue_score)
from repro.isa import Assembler
from repro.isa.registers import RAX, RBP, RBX, RSP
from repro.superset import Superset


def superset_of(fn) -> Superset:
    a = Assembler()
    fn(a)
    return Superset.build(a.finish())


class TestPrologueScore:
    def test_canonical_prologue(self):
        superset = superset_of(lambda a: (a.push_r(RBP),
                                          a.mov_rr(RBP, RSP),
                                          a.alu_ri("sub", RSP, 0x20),
                                          a.ret()))
        assert prologue_score(superset, 0) >= 4

    def test_endbr_prologue(self):
        superset = superset_of(lambda a: (a.endbr64(), a.push_r(RBP),
                                          a.mov_rr(RBP, RSP), a.ret()))
        assert prologue_score(superset, 0) >= 4

    def test_frameless_opening(self):
        superset = superset_of(lambda a: (a.alu_ri("sub", RSP, 0x18),
                                          a.ret()))
        assert prologue_score(superset, 0) >= 1

    def test_callee_saved_push(self):
        superset = superset_of(lambda a: (a.push_r(RBX),
                                          a.alu_ri("sub", RSP, 8),
                                          a.ret()))
        assert prologue_score(superset, 0) >= 2

    def test_plain_code_is_not_a_prologue(self):
        superset = superset_of(lambda a: (a.alu_rr("add", RAX, RAX),
                                          a.ret()))
        assert prologue_score(superset, 0) < PROLOGUE_THRESHOLD

    def test_undecodable_offset(self):
        superset = Superset.build(b"\x06")
        assert prologue_score(superset, 0) == 0

    def test_real_function_entries_score_high(self, msvc_case,
                                              msvc_superset):
        hits = sum(
            1 for f in msvc_case.truth.functions
            if prologue_score(msvc_superset, f.entry) >= PROLOGUE_THRESHOLD)
        assert hits / len(msvc_case.truth.functions) > 0.6


class TestLikelyFunctionStarts:
    def test_finds_aligned_prologues(self):
        a = Assembler()
        a.push_r(RBP)
        a.mov_rr(RBP, RSP)
        a.ret()
        a.align(16, b"\xcc")
        a.push_r(RBP)
        a.mov_rr(RBP, RSP)
        a.ret()
        superset = Superset.build(a.finish())
        starts = likely_function_starts(superset)
        assert 0 in starts and 16 in starts

    def test_recovers_most_real_entries(self, msvc_case, msvc_superset):
        found = set(likely_function_starts(msvc_superset))
        entries = msvc_case.truth.function_entries
        assert len(found & entries) / len(entries) > 0.5
