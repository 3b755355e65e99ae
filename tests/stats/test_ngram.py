"""Tests for the instruction n-gram language model."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import decode
from repro.stats.ngram import NgramModel, START, token_of

from .chain_oracle import log_prob as oracle_log_prob


class TestTokenization:
    def test_register_operands(self):
        ins = decode(b"\x48\x89\xe5", 0)        # mov rbp, rsp
        assert token_of(ins) == "mov:r64r64"

    def test_immediate_operands(self):
        ins = decode(b"\x48\x83\xec\x20", 0)    # sub rsp, 0x20
        assert token_of(ins) == "sub:r64i"

    def test_memory_operand(self):
        ins = decode(b"\x48\x8b\x45\xf8", 0)    # mov rax, [rbp-8]
        assert token_of(ins) == "mov:r64m"

    def test_rip_relative_is_distinct(self):
        ins = decode(b"\x48\x8d\x05\x00\x00\x00\x00", 0)
        assert token_of(ins) == "lea:r64M"

    def test_branch_operand(self):
        ins = decode(b"\xe8\x00\x00\x00\x00", 0)
        assert token_of(ins) == "call:rel"

    def test_immediates_are_normalized_away(self):
        a = decode(b"\x48\x83\xec\x20", 0)
        b = decode(b"\x48\x83\xec\x40", 0)
        assert token_of(a) == token_of(b)


class TestModel:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            NgramModel(weights=(0.5, 0.5, 0.5, 0.5))

    def test_trained_sequence_beats_unseen(self):
        model = NgramModel()
        model.train([["push:r64", "mov:r64r64", "sub:r64i"]] * 50)
        familiar = model.score_sequence(["push:r64", "mov:r64r64",
                                         "sub:r64i"])
        strange = model.score_sequence(["hlt:", "in:i", "out:i"])
        assert familiar > strange

    def test_context_matters(self):
        model = NgramModel()
        model.train([["a", "b", "c"]] * 50 + [["c", "b", "a"]] * 5)
        in_context = model.log_prob("c", ("a", "b"))
        out_of_context = model.log_prob("c", ("c", "c"))
        assert in_context > out_of_context

    def test_unseen_token_has_finite_probability(self):
        model = NgramModel()
        model.train([["a", "b"]])
        assert math.isfinite(model.log_prob("zzz", (START, START)))

    def test_empty_model_scores_uniform(self):
        model = NgramModel()
        assert math.isfinite(model.log_prob("anything", (START, START)))

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1,
                    max_size=12))
    def test_log_probs_are_valid(self, tokens):
        model = NgramModel()
        model.train([["a", "b", "c"], ["b", "c", "d"]] * 3)
        score = model.score_sequence(tokens)
        assert score <= 0.0
        assert math.isfinite(score)


class TestSerialization:
    def test_round_trip_preserves_scores(self):
        model = NgramModel()
        model.train([["push:r64", "mov:r64r64", "sub:r64i", "call:rel"]] * 7)
        restored = NgramModel.from_json(model.to_json())
        sequence = ["push:r64", "mov:r64r64", "call:rel"]
        assert restored.score_sequence(sequence) == pytest.approx(
            model.score_sequence(sequence))

    def test_round_trip_vocabulary(self):
        model = NgramModel()
        model.train([["x", "y"]])
        restored = NgramModel.from_json(model.to_json())
        assert restored.vocabulary_size == model.vocabulary_size
        assert restored.total == model.total


class TestOnRealCode:
    def test_real_code_scores_above_data(self, models, msvc_case,
                                         msvc_superset):
        """Chains at true starts outscore chains inside data regions."""
        code_model = models.code
        truth = msvc_case.truth
        starts = sorted(truth.instruction_starts)[:200]
        code_scores = []
        for start in starts:
            chain = msvc_superset.fallthrough_chain(start, 6)
            code_scores.append(code_model.score_instructions(chain)
                               / max(len(chain), 1))
        data_scores = []
        for region_start, region_end in truth.data_regions():
            for offset in range(region_start, min(region_end,
                                                  region_start + 8)):
                chain = msvc_superset.fallthrough_chain(offset, 6)
                if chain:
                    data_scores.append(
                        code_model.score_instructions(chain)
                        / len(chain))
        assert data_scores, "test binary has no data regions"
        def mean(xs):
            return sum(xs) / len(xs)
        assert mean(code_scores) > mean(data_scores) + 1.0


class TestBatchedLogProbs:
    @pytest.mark.parametrize("trained", [True, False])
    def test_log_probs_equal_the_scalar_formula(self, trained):
        model = NgramModel()
        if trained:
            model.train([["a", "b", "c"]] * 5 + [["c", "a"], ["b"]])
        names = ["a", "b", "c", "zzz", START]
        ids = np.array([(t1, t2, t3) for t1 in range(5) for t2 in range(5)
                        for t3 in range(4)] * 2)
        batched = model.log_probs(names, ids[:, 0], ids[:, 1], ids[:, 2])
        scalar = [oracle_log_prob(model, names[t3], (names[t1], names[t2]))
                  for t1, t2, t3 in ids.tolist()]
        assert batched.tolist() == scalar
        assert [model.log_prob(names[t3], (names[t1], names[t2]))
                for t1, t2, t3 in ids.tolist()] == scalar
