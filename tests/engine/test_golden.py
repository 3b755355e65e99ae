"""Golden digests: the correction engine's output, pinned.

Every digest in ``golden_correction.json`` is recomputed from a fresh
run and compared: result JSON and correction log for each evaluation
corpus case, result JSON for each ablation config, the provenance
event stream of one recorded run, the result and log of one
lint-feedback run, and the region facts of one run (see
``make_golden.py``).
"""

import json

import pytest

from repro.core import ABLATION_CONFIGS
from repro.eval.dataset import evaluation_corpus

from .make_golden import (GOLDEN, ablation_digests, case_digests,
                          facts_digests, lint_feedback_digests,
                          provenance_digests, run)

EXPECTED = json.loads(GOLDEN.read_text())


def _assert_matches(name: str, actual: dict, expected: dict) -> None:
    changed = [stream for stream, digest in expected.items()
               if actual[stream] != digest]
    assert not changed, (
        f"{name}: {', '.join(changed)} changed against {GOLDEN.name}. "
        f"Regenerate with `python tests/engine/make_golden.py` only for "
        f"an intended output change, and explain that change in the PR.")


class TestCoverage:
    def test_cases_are_the_evaluation_corpus(self):
        assert sorted(EXPECTED["cases"]) == \
            sorted(case.name for case in evaluation_corpus())

    def test_ablations_are_every_config(self):
        assert sorted(EXPECTED["ablations"]) == sorted(ABLATION_CONFIGS)

    def test_single_case_streams_are_corpus_cases(self):
        names = {case.name for case in evaluation_corpus()}
        assert EXPECTED["ablation_case"] in names
        assert EXPECTED["provenance"]["case"] in names
        assert EXPECTED["lint_feedback"]["case"] in names
        assert EXPECTED["facts"]["case"] in names

    def test_lint_feedback_case_differs_from_default(self):
        """The feedback round moves this case, so its digest pins it."""
        case = EXPECTED["lint_feedback"]["case"]
        assert EXPECTED["lint_feedback"]["result"] != \
            EXPECTED["cases"][case]["result"]


@pytest.mark.usefixtures("models")
class TestPinnedStreams:
    def test_log_holds_decisions_only(self):
        """The log digest covers real decisions, and no timing lines."""
        log = run("gcc-like-s0").log
        assert log
        assert not any(line.startswith("phase ") for line in log)

    def test_digests_are_deterministic(self):
        """Two runs hash alike, so a mismatch means the output moved."""
        assert case_digests("gcc-like-s0") == case_digests("gcc-like-s0")


@pytest.mark.usefixtures("models")
class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(EXPECTED["cases"]))
    def test_corpus_case(self, name):
        _assert_matches(name, case_digests(name), EXPECTED["cases"][name])

    @pytest.mark.parametrize("config_name", sorted(EXPECTED["ablations"]))
    def test_ablation(self, config_name):
        _assert_matches(f"{EXPECTED['ablation_case']} [{config_name}]",
                        ablation_digests(config_name),
                        EXPECTED["ablations"][config_name])

    def test_provenance_stream(self):
        expected = EXPECTED["provenance"]
        assert expected["events"] > 100
        _assert_matches(expected["case"], provenance_digests(), expected)

    def test_lint_feedback_stream(self):
        expected = EXPECTED["lint_feedback"]
        _assert_matches(f"{expected['case']} [lint feedback]",
                        lint_feedback_digests(), expected)

    def test_facts_stream(self):
        expected = EXPECTED["facts"]
        assert expected["facts"] > 100
        _assert_matches(f"{expected['case']} [facts]", facts_digests(),
                        expected)


@pytest.mark.usefixtures("models")
def test_facts_backend_exports_regions():
    facts = run("gcc-like-s1").facts
    assert facts is not None and len(facts) > 0
