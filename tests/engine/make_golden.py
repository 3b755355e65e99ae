"""Regenerate the golden correction digests in this directory.

Run from the repository root::

    python tests/engine/make_golden.py

``golden_correction.json`` pins what the correction engine produces on
a fixed, finite input set, as sha256 digests:

``cases``
    every :func:`~repro.eval.dataset.evaluation_corpus` case under the
    default config: the canonical ``DisassemblyResult`` JSON and the
    correction log (decision lines only, no wall-clock timing);
``ablations``
    every :data:`~repro.core.ABLATION_CONFIGS` variant on
    ``msvc-like-s0``: the result JSON;
``provenance``
    ``gcc-like-s0`` with ``record_provenance=True``: the rendered
    decision events, newline-joined, plus the event count;
``lint_feedback``
    ``msvc-like-s2`` with ``use_lint_feedback=True`` (a case whose lint
    pass yields actionable diagnostics, so the feedback round moves
    the result): the result JSON and the correction log;
``facts``
    ``gcc-like-s0`` under the default config: the exported region
    facts, one ``start end label priority source rule`` line each,
    plus the fact count.

``test_golden.py`` recomputes every digest and compares.  Regenerate
only when a change is meant to alter correction output, and say in
the change description what moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import (ABLATION_CONFIGS, Disassembler,      # noqa: E402
                        DisassemblerConfig)
from repro.eval.dataset import evaluation_corpus             # noqa: E402

GOLDEN = HERE / "golden_correction.json"
ABLATION_CASE = "msvc-like-s0"
PROVENANCE_CASE = "gcc-like-s0"
LINT_FEEDBACK_CASE = "msvc-like-s2"
FACTS_CASE = "gcc-like-s0"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def corpus_case(name: str):
    for case in evaluation_corpus():
        if case.name == name:
            return case
    raise KeyError(name)


def run(name: str, config: DisassemblerConfig | None = None):
    disassembler = (Disassembler(config=config) if config is not None
                    else Disassembler())
    return disassembler.disassemble_rich(corpus_case(name))


def case_digests(name: str) -> dict[str, str]:
    """Result and correction-log digests of one default-config run."""
    rich = run(name)
    return {"result": sha256(rich.result.to_json()),
            "log": sha256("\n".join(rich.log))}


def ablation_digests(config_name: str) -> dict[str, str]:
    rich = run(ABLATION_CASE, ABLATION_CONFIGS[config_name])
    return {"result": sha256(rich.result.to_json())}


def provenance_digests() -> dict:
    rich = run(PROVENANCE_CASE, DisassemblerConfig(record_provenance=True))
    lines = [event.render() for event in rich.provenance.events]
    return {"case": PROVENANCE_CASE, "events": len(lines),
            "rendered": sha256("\n".join(lines))}


def lint_feedback_digests() -> dict:
    rich = run(LINT_FEEDBACK_CASE, DisassemblerConfig(use_lint_feedback=True))
    return {"case": LINT_FEEDBACK_CASE,
            "result": sha256(rich.result.to_json()),
            "log": sha256("\n".join(rich.log))}


def render_fact(fact) -> str:
    return (f"{fact.start:#x} {fact.end:#x} {fact.label} "
            f"{fact.priority.name} {fact.source} {fact.rule}")


def facts_digests() -> dict:
    lines = [render_fact(fact) for fact in run(FACTS_CASE).facts]
    return {"case": FACTS_CASE, "facts": len(lines),
            "rendered": sha256("\n".join(lines))}


def compute() -> dict:
    return {
        "cases": {case.name: case_digests(case.name)
                  for case in evaluation_corpus()},
        "ablation_case": ABLATION_CASE,
        "ablations": {name: ablation_digests(name)
                      for name in sorted(ABLATION_CONFIGS)},
        "provenance": provenance_digests(),
        "lint_feedback": lint_feedback_digests(),
        "facts": facts_digests(),
    }


def main() -> None:
    GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
