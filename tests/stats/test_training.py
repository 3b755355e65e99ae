"""Tests for model training from labeled corpora."""

from repro.eval.dataset import EVAL_SEEDS
from repro.isa.decoder import try_decode
from repro.stats.ngram import token_of
from repro.stats.training import (TRAINING_FUNCTIONS, TRAINING_SEEDS,
                                  data_regions, default_models,
                                  token_sequences, train_models)
from repro.synth import BinarySpec, GCC_LIKE, MSVC_LIKE, generate_binary


def brute_force_sequences(case):
    """Every start filtered against every function, then sorted."""
    starts = case.truth.instruction_starts
    sequences = []
    for function in case.truth.functions:
        tokens = [token_of(try_decode(case.text, offset))
                  for offset in sorted(s for s in starts if s in function)
                  if try_decode(case.text, offset) is not None]
        if tokens:
            sequences.append(tokens)
    return sequences


class TestTrainTestSplit:
    def test_training_seeds_disjoint_from_eval(self):
        assert not set(TRAINING_SEEDS) & set(EVAL_SEEDS)


class TestSequenceExtraction:
    def test_sequences_per_function(self, msvc_case):
        sequences = token_sequences(msvc_case)
        assert len(sequences) == len(msvc_case.truth.functions)
        assert all(sequences)

    def test_matches_brute_force_on_a_training_case(self):
        case = generate_binary(BinarySpec(
            name="train", style=MSVC_LIKE,
            function_count=TRAINING_FUNCTIONS, seed=TRAINING_SEEDS[0]))
        assert token_sequences(case) == brute_force_sequences(case)

    def test_data_regions_extracted(self, msvc_case):
        regions = data_regions(msvc_case)
        assert sum(len(r) for r in regions) == msvc_case.truth.data_bytes


class TestTraining:
    def test_models_are_nonempty(self):
        case = generate_binary(BinarySpec(name="t", style=MSVC_LIKE,
                                          function_count=8, seed=99))
        models = train_models([case])
        assert models.code.total > 0
        assert models.data.total > 0

    def test_clean_corpus_gets_fallback_data_model(self):
        case = generate_binary(BinarySpec(name="t", style=GCC_LIKE,
                                          function_count=8, seed=99))
        assert case.truth.data_bytes == 0
        models = train_models([case])
        assert models.data.total > 0    # the informative prior kicked in

    def test_default_models_cached(self):
        assert default_models() is default_models()
