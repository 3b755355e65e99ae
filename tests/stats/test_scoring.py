"""Tests for the combined statistical scorer."""

import numpy as np
import pytest

from repro.stats.scoring import (ASCII_PENALTY, UNDECODABLE_SCORE,
                                 StatisticalScorer)
from repro.superset import Superset
from repro.superset.superset import CHAIN_WINDOW


class TestScoreAll:
    def test_vector_shape(self, models, msvc_case, msvc_superset):
        scorer = StatisticalScorer(models.code, models.data)
        scores = scorer.score_all(msvc_superset)
        assert scores.shape == (len(msvc_case.text),)

    def test_invalid_offsets_get_floor_score(self, models):
        scorer = StatisticalScorer(models.code, models.data)
        superset = Superset.build(b"\x06\x90\xc3")
        scores = scorer.score_all(superset)
        assert scores[0] == UNDECODABLE_SCORE

    @pytest.mark.parametrize("case", ["msvc_case", "gcc_case",
                                      "clang_case"])
    def test_rescore_everywhere_equals_score_all(self, models, case,
                                                 request):
        superset = Superset.build(request.getfixturevalue(case).text)
        scorer = StatisticalScorer(models.code, models.data)
        rescored = np.full(len(superset), np.nan)
        scorer.rescore(superset, range(len(superset)), rescored)
        assert np.array_equal(rescored, scorer.score_all(superset))

    def test_separation_on_real_binary(self, models, msvc_case,
                                       msvc_superset):
        """True instruction starts outscore data offsets on average."""
        scorer = StatisticalScorer(models.code, models.data)
        scores = scorer.score_all(msvc_superset)
        truth = msvc_case.truth
        start_scores = [scores[o] for o in truth.instruction_starts]
        data_offsets = [o for s, e in truth.data_regions()
                        for o in range(s, e)]
        data_scores = [scores[o] for o in data_offsets]
        assert np.mean(start_scores) > np.mean(data_scores) + 1.0

    def test_score_reads_only_the_chain_window(self, models):
        # Bytes past CHAIN_WINDOW instructions cannot move the score.
        scorer = StatisticalScorer(models.code, models.data)
        ends_clean = Superset.build(b"\x90" * CHAIN_WINDOW + b"\xc3")
        ends_invalid = Superset.build(b"\x90" * CHAIN_WINDOW + b"\x06")
        assert scorer.score_all(ends_clean)[0] == \
            scorer.score_all(ends_invalid)[0]


class TestAsciiRunCaching:
    def test_ascii_scan_runs_once_per_section(self, models):
        """rescore must not rescan the section for ASCII runs on every
        call (that made per-offset scoring O(n^2))."""
        from repro.stats.scoring import terminated_ascii_runs

        scorer = StatisticalScorer(models.code, models.data)
        text = b"\x90" * 64 + b"a string literal!\x00" + b"\xc3"
        superset = Superset.build(text)
        scores = np.zeros(len(superset))
        terminated_ascii_runs.cache_clear()
        for offset in range(32):
            scorer.rescore(superset, [offset], scores)
        info = terminated_ascii_runs.cache_info()
        assert info.misses == 1
        assert info.hits >= 31

    def test_penalty_still_applied_inside_terminated_run(self, models):
        scorer = StatisticalScorer(models.code, models.data)
        text = b"PLAIN ASCII TEXT HERE\x00" + b"\x90" * 8 + b"\xc3"
        superset = Superset.build(text)
        assert scorer._ascii_penalty(text)[2] == ASCII_PENALTY
        rescored = np.full(len(superset), np.nan)
        scorer.rescore(superset, [2], rescored)
        assert rescored[2] == scorer.score_all(superset)[2]
