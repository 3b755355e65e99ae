"""Tests for the parallel evaluation driver.

The driver's contract is determinism: any ``jobs`` value must produce
results identical to the serial path, down to every metric and table
row.
"""

import pytest

from repro.eval.dataset import evaluation_corpus
from repro.eval.experiments import run_t2, run_t5
from repro.eval.parallel import (ToolSpec, baseline_spec, effective_jobs,
                                 evaluate_pairs, evaluate_tools, fan_out,
                                 predict_pairs, repro_spec)


@pytest.fixture(scope="module")
def tiny_corpus():
    return evaluation_corpus(seeds=(4,), function_count=8)


class TestToolSpec:
    def test_baseline_spec_is_validated(self):
        with pytest.raises(ValueError):
            ToolSpec(kind="baseline", name="no-such-tool")

    def test_kind_is_validated(self):
        with pytest.raises(ValueError):
            ToolSpec(kind="objdump", name="linear-sweep")

    def test_specs_are_hashable(self):
        assert len({baseline_spec("linear-sweep"),
                    baseline_spec("linear-sweep"), repro_spec()}) == 2


class TestEffectiveJobs:
    def test_none_means_serial(self):
        assert effective_jobs(None) == 1

    def test_zero_means_cpu_count(self):
        assert effective_jobs(0) >= 1

    def test_explicit_count_passes_through(self):
        assert effective_jobs(3) == 3

    def test_negative_count_is_an_error(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            effective_jobs(-4)


class TestDeterminism:
    def test_parallel_equals_serial_per_pair(self, tiny_corpus):
        pairs = [(spec, case)
                 for spec in (baseline_spec("linear-sweep"), repro_spec())
                 for case in tiny_corpus]
        serial = evaluate_pairs(pairs, jobs=None)
        parallel = evaluate_pairs(pairs, jobs=2)
        assert serial == parallel

    def test_parallel_equals_serial_pooled(self, tiny_corpus):
        specs = [baseline_spec("rd-heuristic")]
        assert (evaluate_tools(specs, tiny_corpus, jobs=2)
                == evaluate_tools(specs, tiny_corpus, jobs=None))

    def test_predictions_keep_submission_order(self, tiny_corpus):
        pairs = [(baseline_spec("linear-sweep"), case)
                 for case in tiny_corpus]
        serial = predict_pairs(pairs, jobs=None)
        parallel = predict_pairs(pairs, jobs=2)
        assert [r.instruction_starts for r in serial] \
            == [r.instruction_starts for r in parallel]

    def test_evaluate_tools_keeps_spec_order(self, tiny_corpus):
        specs = [baseline_spec("probabilistic"),
                 baseline_spec("linear-sweep")]
        results = evaluate_tools(specs, tiny_corpus, jobs=2)
        assert list(results) == ["probabilistic", "linear-sweep"]


class TestFanOut:
    def test_chunks_keep_submission_order(self):
        items = list(range(7))
        assert list(fan_out(abs, items, 2, chunk=3)) == items
        assert list(fan_out(abs, items, None, chunk=3)) == items

    def test_serial_path_is_lazy(self):
        seen = []
        results = fan_out(seen.append, range(3), None)
        assert seen == []
        next(results)
        assert seen == [0]


class TestExperimentParity:
    """`--jobs N` tables must be byte-identical to serial tables."""

    def test_t2_table_identical(self, tiny_corpus):
        assert (run_t2(tiny_corpus, jobs=2).render()
                == run_t2(tiny_corpus).render())

    def test_t5_table_identical(self, tiny_corpus):
        assert (run_t5(tiny_corpus, jobs=2).render()
                == run_t5(tiny_corpus).render())
