"""The array kernels of both scorers equal a per-offset chain walk.

Correction output is pinned by digests that depend on every score
bit, so the kernels are checked with ``np.array_equal`` against the
reference walk in ``chain_oracle`` -- on the evaluation corpus and on
arbitrary bytes -- and ``rescore`` of any offset subset is checked
against ``score_all``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.behavior import BehaviorAnalyzer
from repro.eval.dataset import evaluation_corpus
from repro.stats.scoring import StatisticalScorer
from repro.superset import Superset

from .chain_oracle import behavior_scores, statistical_scores

CASES = [case.name for case in evaluation_corpus()]


@pytest.fixture(scope="module")
def scorer(models):
    return StatisticalScorer(models.code, models.data)


def assert_kernels_match_oracle(scorer, text: bytes) -> None:
    superset = Superset.build(text)
    assert np.array_equal(BehaviorAnalyzer().score_all(superset),
                          behavior_scores(superset))
    assert np.array_equal(scorer.score_all(superset),
                          statistical_scores(scorer, superset))


@pytest.mark.parametrize("name", CASES)
def test_corpus_scores_equal_the_oracle(scorer, name):
    case = next(c for c in evaluation_corpus() if c.name == name)
    assert_kernels_match_oracle(scorer, case.text)


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=300))
def test_random_bytes(scorer, text):
    assert_kernels_match_oracle(scorer, text)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([0x00, 0xFF, 0x90, 0xCC]),
       st.integers(min_value=0, max_value=200))
def test_uniform_bytes(scorer, byte, length):
    assert_kernels_match_oracle(scorer, bytes([byte]) * length)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=400))
def test_text_cut_mid_instruction(scorer, start, length):
    """Real code cut at arbitrary bytes: chains run off the end."""
    text = evaluation_corpus()[0].text
    assert_kernels_match_oracle(scorer, text[start:start + length])


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=8))
def test_sections_shorter_than_a_window(scorer, text):
    assert_kernels_match_oracle(scorer, text)


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=1, max_size=400), st.data())
def test_rescore_of_any_subset_equals_score_all(scorer, text, data):
    superset = Superset.build(text)
    offsets = data.draw(st.lists(
        st.integers(min_value=0, max_value=len(text) - 1), unique=True))
    for score in (BehaviorAnalyzer(), scorer):
        rescored = np.full(len(text), np.nan)
        score.rescore(Superset.build(text), offsets, rescored)
        expected = np.full(len(text), np.nan)
        expected[offsets] = score.score_all(superset)[offsets]
        assert np.array_equal(rescored, expected, equal_nan=True)
