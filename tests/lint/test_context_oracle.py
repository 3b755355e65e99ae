"""The lint context's whole-section passes against the per-byte reference.

Every report must be byte-identical to :func:`context_oracle.oracle_report`
-- the same battery run over per-byte dicts, per-instruction property
reads and a basic-block graph -- on the evaluation corpus for all three
tools, with facts, provenance and container hints, and on arbitrary
(overlapping, out-of-range, degenerate) claims.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import linear_sweep, recursive_descent
from repro.core import Disassembler
from repro.core.config import DisassemblerConfig
from repro.eval.dataset import evaluation_corpus
from repro.formats import emit_elf, load_any
from repro.lint import lint_disassembly
from repro.result import DisassemblyResult
from repro.stats.datamodel import find_ascii_runs, find_padding_runs
from repro.superset import Superset

from .context_oracle import ascii_runs, oracle_report, padding_runs

FIXTURES = Path(__file__).resolve().parent.parent / "formats" / "fixtures"


def assert_identical(result, superset, **kwargs):
    fast = lint_disassembly(result, superset, **kwargs)
    assert fast.to_json() == oracle_report(result, superset,
                                           **kwargs).to_json()
    return fast


@pytest.fixture(scope="module")
def corpus_runs(models):
    disassembler = Disassembler(
        models=models, config=DisassemblerConfig(record_provenance=True))
    runs = []
    for case in evaluation_corpus():
        rich = disassembler.disassemble_rich(case)
        runs.append((case, rich))
    return runs


class TestCorpusIdentity:
    def test_corrected_with_facts_and_provenance(self, corpus_runs):
        fired = set()
        for _, rich in corpus_runs:
            report = assert_identical(rich.result, rich.superset,
                                      facts=rich.facts)
            fired.update(d.rule for d in report)
            assert_identical(rich.result, rich.superset, facts=rich.facts,
                             provenance=rich.provenance)
        assert "orphan-code" in fired

    def test_baselines(self, corpus_runs):
        fired = set()
        for case, rich in corpus_runs:
            superset = rich.superset
            for result in (linear_sweep(case.text, superset=superset),
                           recursive_descent(case.text, 0,
                                             superset=superset)):
                fired.update(d.rule for d in
                             assert_identical(result, superset))
        # The rewritten rules must fire here, not pass vacuously
        # (``fallthrough-unclaimed`` fires on no corpus claim; the
        # arbitrary claims below exercise it).
        assert {"dangling-fallthrough", "orphan-code", "pointer-run-as-code",
                "branch-into-instruction", "padding-as-code"} <= fired

    def test_fresh_superset(self, corpus_runs):
        # A superset no disassembly has read: the lint builds its columns.
        case, rich = corpus_runs[0]
        fresh = Superset.build(case.text)
        assert_identical(rich.result, fresh, facts=rich.facts)
        assert_identical(linear_sweep(case.text, superset=fresh), fresh)


class TestHintedContainers:
    def test_elf_with_hints(self, corpus_runs):
        case, rich = corpus_runs[0]
        image = load_any(emit_elf(case.binary))
        text = image.binary.text
        entries = sorted(case.truth.function_entries)
        # Half the true entries, plus ranges and candidates that land on
        # data, inside instructions and outside the section.
        hints = dataclasses.replace(
            image.hints,
            entry_candidates=tuple(text.addr + e for e in entries[::2])
            + (text.addr + 1, text.addr - 4, text.addr + len(text.data)),
            function_ranges=tuple((text.addr + e + 1, text.addr + e + 9)
                                  for e in entries[1::3]))
        report = assert_identical(rich.result, rich.superset, hints=hints,
                                  text_addr=text.addr, facts=rich.facts)
        assert any(d.rule == "hint-disagreement" for d in report)

    def test_pe_fixture(self, disassembler):
        image = load_any((FIXTURES / "hello.dll").read_bytes())
        result = disassembler.disassemble(image.binary)
        text = image.binary.text
        assert_identical(result, Superset.build(text.data),
                         hints=image.hints, text_addr=text.addr)


# ----------------------------------------------------------------------
# Arbitrary claims
# ----------------------------------------------------------------------

#: Opcode-ish bytes, so random sections decode to branches, calls,
#: returns, padding and RIP-relative loads often enough to matter.
BYTES = st.one_of(
    st.sampled_from([0x90, 0xC3, 0xCC, 0x00, 0xE8, 0xE9, 0xEB, 0x74,
                     0x0F, 0x84, 0x48, 0x8B, 0x05, 0x55, 0xFF, 0x41,
                     0x61, 0x62]),
    st.integers(0, 255))


@st.composite
def claims(draw):
    text = bytes(draw(st.lists(BYTES, min_size=1, max_size=80)))
    size = len(text)
    starts = st.integers(-8, size + 8)
    lengths = st.one_of(st.integers(0, 16), st.just(1 << 40))
    instructions = draw(st.dictionaries(starts, lengths, max_size=24))
    regions = draw(st.lists(st.tuples(st.integers(-16, size + 16),
                                      st.integers(-16, size + 16)),
                            max_size=4))
    entries = draw(st.sets(starts, max_size=4))
    return text, DisassemblyResult(tool="hypothesis",
                                   instructions=instructions,
                                   data_regions=regions,
                                   function_entries=entries)


@settings(max_examples=300, deadline=None)
@given(claim=claims())
def test_arbitrary_claims_match_the_oracle(claim):
    text, result = claim
    assert_identical(result, Superset.build(text))


@settings(max_examples=200, deadline=None)
@given(text=st.lists(BYTES, max_size=80).map(bytes),
       min_length=st.integers(1, 8))
def test_byte_shape_scans_match_the_oracle(text, min_length):
    assert find_ascii_runs(text, min_length=min_length) \
        == ascii_runs(text, min_length=min_length)
    for padding in ((0xCC, 0x00), (0xCC, 0x00, 0x90)):
        assert find_padding_runs(text, min_length=min_length,
                                 padding_bytes=padding) \
            == padding_runs(text, min_length=min_length,
                            padding_bytes=padding)
