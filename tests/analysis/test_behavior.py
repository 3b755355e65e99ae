"""Tests for behavioral chain scoring."""

import numpy as np
import pytest

from repro.analysis.behavior import INVALID_FALLTHROUGH, BehaviorAnalyzer
from repro.isa import Assembler
from repro.isa.registers import RAX, RBP, RSP
from repro.superset import Superset
from repro.superset.superset import CHAIN_WINDOW


def superset_of(fn) -> Superset:
    a = Assembler()
    fn(a)
    return Superset.build(a.finish())


def score_at(superset: Superset, offset: int = 0) -> float:
    return float(BehaviorAnalyzer().score_all(superset)[offset])


class TestChainScore:
    def test_invalid_fallthrough_hits_the_floor(self):
        superset = Superset.build(b"\x90\x06\x90")   # nop, invalid
        assert score_at(superset) == INVALID_FALLTHROUGH

    def test_clean_terminated_chain(self):
        superset = superset_of(lambda a: (a.push_r(RBP),
                                          a.mov_rr(RBP, RSP),
                                          a.ret()))
        assert score_at(superset) > 0

    def test_trap_in_chain_penalized(self):
        clean = superset_of(lambda a: (a.mov_ri(RAX, 1, width=32), a.ret()))
        trapped = superset_of(lambda a: (a.mov_ri(RAX, 1, width=32),
                                         a.int3(), a.int3(), a.ret()))
        assert score_at(trapped) < score_at(clean)

    def test_rare_instruction_penalized(self):
        rare = Superset.build(b"\x9b\xc3")     # fwait; ret
        common = Superset.build(b"\x90\xc3")   # nop; ret
        assert score_at(rare) < score_at(common)

    def test_undecodable_offset_scores_the_floor(self):
        superset = Superset.build(b"\x06")
        assert score_at(superset) == INVALID_FALLTHROUGH
        scores = np.full(1, np.nan)
        BehaviorAnalyzer().rescore(superset, [0], scores)
        assert scores[0] == INVALID_FALLTHROUGH

    def test_score_reads_only_the_chain_window(self):
        # Bytes past CHAIN_WINDOW instructions cannot move the score.
        ends_clean = Superset.build(b"\x90" * CHAIN_WINDOW + b"\xc3")
        ends_invalid = Superset.build(b"\x90" * CHAIN_WINDOW + b"\x06")
        assert score_at(ends_clean) == score_at(ends_invalid)


class TestScoreAll:
    def test_shape_and_floor(self, msvc_superset):
        scores = BehaviorAnalyzer().score_all(msvc_superset)
        assert scores.shape == (len(msvc_superset),)
        for offset in range(len(msvc_superset)):
            if msvc_superset.at(offset) is None:
                assert scores[offset] == INVALID_FALLTHROUGH

    def test_separates_code_from_data(self, msvc_case, msvc_superset):
        scores = BehaviorAnalyzer().score_all(msvc_superset)
        truth = msvc_case.truth
        start_mean = np.mean([scores[o]
                              for o in truth.instruction_starts])
        data_offsets = [o for s, e in truth.data_regions()
                        for o in range(s, e)]
        data_mean = np.mean([scores[o] for o in data_offsets])
        assert start_mean > data_mean

    @pytest.mark.parametrize("case", ["msvc_case", "gcc_case",
                                      "clang_case"])
    def test_rescore_everywhere_equals_score_all(self, case, request):
        superset = Superset.build(request.getfixturevalue(case).text)
        analyzer = BehaviorAnalyzer()
        rescored = np.full(len(superset), np.nan)
        analyzer.rescore(superset, range(len(superset)), rescored)
        assert np.array_equal(rescored, analyzer.score_all(superset))
