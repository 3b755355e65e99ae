"""Tests for the prioritized error-correction engine."""

import numpy as np

from repro.core.config import DEFAULT_CONFIG
from repro.core.engine import CodeClaim, DataClaim, FactEngine
from repro.core.evidence import Priority
from repro.isa import Assembler
from repro.isa.registers import RAX, RBP, RSP
from repro.superset import Superset


def engine_for(text: bytes, scores=None) -> FactEngine:
    superset = Superset.build(text)
    if scores is None:
        scores = np.zeros(len(text))
    return FactEngine(superset, scores, DEFAULT_CONFIG)


def assemble(fn) -> bytes:
    a = Assembler()
    fn(a)
    return a.finish()


class TestTracing:
    def test_trace_covers_straight_line(self):
        text = assemble(lambda a: (a.push_r(RBP), a.mov_rr(RBP, RSP),
                                   a.ret()))
        engine = engine_for(text)
        outcome = engine.trace_rule.derive(0, Priority.ANCHOR, "test")
        assert not outcome.aborted
        assert outcome.accepted == {0, 1, 4}
        assert engine.state.is_code_start(0)

    def test_trace_follows_jumps(self):
        def body(a):
            a.jmp("x")
            a.db(b"\x06\x06\x06")   # junk the trace must skip
            a.bind("x")
            a.ret()
        text = assemble(body)
        engine = engine_for(text)
        outcome = engine.trace_rule.derive(0, Priority.ANCHOR, "test")
        assert 8 in outcome.accepted
        assert engine.state.is_unknown(5)

    def test_trace_collects_call_targets(self):
        def body(a):
            a.call("f")
            a.ret()
            a.bind("f")
            a.ret()
        text = assemble(body)
        engine = engine_for(text)
        outcome = engine.trace_rule.derive(0, Priority.ANCHOR, "test")
        assert outcome.call_targets == {6}

    def test_trace_aborts_on_early_invalid(self):
        text = b"\x90\x90\x06" + b"\x90" * 8
        engine = engine_for(text)
        outcome = engine.trace_rule.derive(0, Priority.SOFT, "test")
        assert outcome.aborted
        # Rollback: nothing stays marked.
        assert engine.state.is_unknown(0)
        assert engine.state.is_unknown(1)

    def test_trace_aborts_against_stronger_data(self):
        text = assemble(lambda a: (a.nop(2), a.ret()))
        engine = engine_for(text)
        engine.state.mark_data(1, 3, Priority.STRUCTURAL)
        outcome = engine.trace_rule.derive(0, Priority.SOFT, "test")
        assert outcome.aborted
        assert engine.state.is_unknown(0)

    def test_strong_trace_overrides_weak_data(self):
        text = assemble(lambda a: (a.nop(2), a.ret()))
        engine = engine_for(text)
        engine.state.mark_data(0, 3, Priority.SOFT)
        outcome = engine.trace_rule.derive(0, Priority.ANCHOR, "test")
        assert not outcome.aborted
        assert engine.state.is_code_start(0)

    def test_trace_joins_existing_code(self):
        text = assemble(lambda a: (a.nop(1), a.nop(1), a.ret()))
        engine = engine_for(text)
        engine.trace_rule.derive(1, Priority.ANCHOR, "first")
        outcome = engine.trace_rule.derive(0, Priority.ANCHOR, "second")
        assert not outcome.aborted
        assert engine.state.is_code_start(0)

    def test_rip_referenced_data_is_not_traced(self):
        def body(a):
            from repro.isa import rip
            a.lea(RAX, rip("blob"))
            a.ret()
            a.bind("blob")
            a.db(b"\x01\x02\x03")
        text = assemble(body)
        engine = engine_for(text)
        engine.push_claim(CodeClaim(0, Priority.ANCHOR, 1.0, "test"))
        engine.drain()
        assert engine.superset.at(0).rip_target == 8
        assert engine.state.instruction_starts() == {0, 7}
        assert engine.state.is_unknown(8)


class TestEvidenceQueue:
    def test_priority_order(self):
        text = assemble(lambda a: (a.ret(), a.ret()))
        engine = engine_for(text)
        order = []
        original = engine.trace_rule.fire

        def spy(claim):
            order.append(claim.source)
            original(claim)

        engine.trace_rule.fire = spy
        engine.push_claim(CodeClaim(0, Priority.SOFT, 1.0, "soft"))
        engine.push_claim(CodeClaim(1, Priority.ANCHOR, 1.0, "anchor"))
        engine.drain()
        assert order == ["anchor", "soft"]

    def test_weight_breaks_ties(self):
        text = assemble(lambda a: (a.ret(), a.ret()))
        engine = engine_for(text)
        order = []
        original = engine.trace_rule.fire

        def spy(claim):
            order.append(claim.weight)
            original(claim)

        engine.trace_rule.fire = spy
        engine.push_claim(CodeClaim(0, Priority.SOFT, 1.0, "low"))
        engine.push_claim(CodeClaim(1, Priority.SOFT, 9.0, "high"))
        engine.drain()
        assert order == [9.0, 1.0]

    def test_data_evidence_rejected_against_stronger_code(self):
        text = assemble(lambda a: (a.ret(), a.ret()))
        engine = engine_for(text)
        engine.push_claim(CodeClaim(0, Priority.ANCHOR, 1.0, "a"))
        engine.drain()
        engine.push_claim(DataClaim(0, 1, Priority.SOFT, 1.0, "d"))
        engine.drain()
        assert engine.state.is_code_start(0)


class TestGapCompletion:
    def test_gaps_become_data_when_no_candidate(self):
        # Invalid bytes everywhere: nothing to accept.
        text = b"\x06" * 16
        engine = engine_for(text, scores=np.full(16, -5.0))
        engine.finish()
        assert not engine.state.unknown_gaps()
        assert engine.state.data_regions() == [(0, 16)]

    def test_good_gap_code_accepted(self, models):
        def body(a):
            a.push_r(RBP)
            a.mov_rr(RBP, RSP)
            a.mov_ri(RAX, 7, width=32)
            a.pop_r(RBP)
            a.ret()
        text = assemble(body)
        from repro.stats.scoring import StatisticalScorer
        superset = Superset.build(text)
        scores = StatisticalScorer(models.code, models.data
                                   ).score_all(superset)
        engine = FactEngine(superset, scores, DEFAULT_CONFIG)
        engine.finish()
        assert engine.state.is_code_start(0)
        assert not engine.state.unknown_gaps()

    def test_clean_tile_helper(self):
        text = assemble(lambda a: (a.nop(1), a.nop(1), a.ret()))
        engine = engine_for(text)
        assert engine.realign_rule._clean_tile(0, 3) == [(0, 1), (1, 1), (2, 1)]
        assert engine.realign_rule._clean_tile(0, 2) == [(0, 1), (1, 1)]
        assert engine.realign_rule._clean_tile(1, 3) == [(1, 1), (2, 1)]

    def test_clean_tile_rejects_overhang(self):
        text = assemble(lambda a: (a.mov_ri(RAX, 7, width=32), a.ret()))
        assert engine_for(text).realign_rule._clean_tile(0, 3) is None

    def test_realign_residue(self):
        # Confirmed code at 3; bytes 0-2 decode cleanly into it.
        text = assemble(lambda a: (a.nop(3), a.ret()))
        engine = engine_for(text)
        engine.trace_rule.derive(3, Priority.ANCHOR, "anchor")
        engine.state.mark_data(0, 3, Priority.SOFT)
        engine.realign_rule.fire()
        assert engine.state.is_code_start(0)

    def test_realign_skips_structural_data(self):
        text = assemble(lambda a: (a.nop(3), a.ret()))
        engine = engine_for(text)
        engine.trace_rule.derive(3, Priority.ANCHOR, "anchor")
        engine.state.mark_data(0, 3, Priority.STRUCTURAL)
        engine.realign_rule.fire()
        assert engine.state.is_data(0)


class TestChainGate:
    def test_terminated_chain_passes(self):
        text = assemble(lambda a: (a.nop(1), a.ret()))
        engine = engine_for(text)
        assert engine.gap_rule.chain_terminates_cleanly(0)

    def test_chain_into_trap_fails(self):
        text = assemble(lambda a: (a.nop(1), a.int3(), a.ret()))
        engine = engine_for(text)
        assert not engine.gap_rule.chain_terminates_cleanly(0)

    def test_chain_into_invalid_fails(self):
        engine = engine_for(b"\x90\x06\x90")
        assert not engine.gap_rule.chain_terminates_cleanly(0)

    def test_chain_joining_code_start_passes(self):
        text = assemble(lambda a: (a.nop(1), a.nop(1), a.ret()))
        engine = engine_for(text)
        engine.trace_rule.derive(1, Priority.ANCHOR, "a")
        assert engine.gap_rule.chain_terminates_cleanly(0)

    def test_chain_joining_mid_instruction_fails(self):
        text = assemble(lambda a: (a.nop(1), a.mov_ri(RAX, 1, width=32),
                                   a.ret()))
        engine = engine_for(text)
        engine.trace_rule.derive(0, Priority.ANCHOR, "a")
        # Offset 2 is inside the mov; a chain reaching it mid-body fails.
        if engine.superset.is_valid(2):
            assert not engine.gap_rule.chain_terminates_cleanly(2)


class TestSoftTraceStrictness:
    """Soft (gap-score) seeds are refuted by *any* contradiction.

    Regression guard for the seed-49 latent bug: a statistical gap
    candidate inside a random-byte literal pool decoded into a long
    chain that only derailed past STRICT_DEPTH, so the derailment was
    pruned instead of refuting the trace, and 33 data bytes shipped as
    code ending in a dangling fall-through.
    """

    def _long_chain_into_invalid(self) -> bytes:
        # 12 single-byte instructions, then an undecodable byte: the
        # contradiction sits deeper than STRICT_DEPTH.
        return b"\x90" * 12 + b"\x06" + b"\x90\xc3"

    def test_soft_trace_aborts_on_deep_contradiction(self):
        text = self._long_chain_into_invalid()
        engine = engine_for(text)
        outcome = engine.trace_rule.derive(0, Priority.SOFT, "gap-score")
        assert outcome.aborted
        assert engine.state.is_unknown(0)

    def test_anchor_trace_keeps_depth_window(self):
        text = self._long_chain_into_invalid()
        engine = engine_for(text)
        outcome = engine.trace_rule.derive(0, Priority.ANCHOR, "entry-point")
        assert not outcome.aborted
        assert engine.state.is_code_start(0)


class TestRealignPaddingGuard:
    def test_pure_padding_residue_stays_data(self):
        # int3 padding directly in front of confirmed code: int3 tiles
        # cleanly (TRAP falls through for tiling purposes), but padding
        # before a function entry is data by convention.
        text = assemble(lambda a: (a.int3(), a.int3(), a.int3(),
                                   a.int3(), a.ret()))
        engine = engine_for(text)
        engine.trace_rule.derive(4, Priority.ANCHOR, "anchor")
        engine.state.mark_data(0, 4, Priority.SOFT)
        engine.realign_rule.fire()
        assert engine.state.is_data(0)
        assert engine.state.is_data(3)

    def test_mixed_residue_still_realigns(self):
        text = assemble(lambda a: (a.nop(3), a.ret()))
        engine = engine_for(text)
        engine.trace_rule.derive(3, Priority.ANCHOR, "anchor")
        engine.state.mark_data(0, 3, Priority.SOFT)
        engine.realign_rule.fire()
        assert engine.state.is_code_start(0)


class TestSeed49Regression:
    def test_msvc_seed49_has_no_false_code_bytes(self):
        """The ROADMAP latent bug: msvc-like/6 functions/seed 49."""
        from repro.eval.metrics import evaluate
        from repro.synth import BinarySpec, MSVC_LIKE, generate_binary

        case = generate_binary(BinarySpec(name="seed49", style=MSVC_LIKE,
                                          function_count=6, seed=49))
        from repro.core import Disassembler
        evaluation = evaluate(Disassembler().disassemble(case), case.truth)
        assert evaluation.bytes.false_code == 0
        assert evaluation.bytes.total_errors == 0
        assert evaluation.instructions.f1 == 1.0
