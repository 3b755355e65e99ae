"""Incremental re-disassembly must be indistinguishable from cold.

The contract of :func:`repro.core.disassemble_incremental` is exact:
for any byte patch, the incremental result (instructions, data
regions, scores -- everything) is bit-identical to a cold run over the
patched bytes.  Hypothesis drives random patches; deterministic tests
cover the structured cases (grown text, fallbacks, span diffing).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Disassembler, FactBase, disassemble_incremental
from repro.core.engine import diff_spans
from repro.core.engine.incremental import IncrementalStats, _patch_superset
from repro.isa.columns import COLUMNS
from repro.isa.decoder import try_decode
from repro.superset.superset import (CHAIN_WINDOW, DECODE_WINDOW,
                                     ChainWindows, Superset)
from repro.synth import BinarySpec, GCC_LIKE, MSVC_LIKE, generate_binary


@pytest.fixture(scope="module")
def small_case(models):
    return generate_binary(BinarySpec(name="inc", style=GCC_LIKE,
                                      function_count=6, seed=11))


@pytest.fixture(scope="module")
def snapshot(small_case):
    disassembler = Disassembler()
    rich = disassembler.disassemble_rich(small_case)
    return disassembler, FactBase.from_run(rich, disassembler.config)


def patched(case, edits):
    """The case's binary with text bytes replaced per ``edits``."""
    binary = case.binary
    text = bytearray(binary.text.data)
    for offset, value in edits.items():
        text[offset % len(text)] = value
    new_text = dataclasses.replace(binary.text, data=bytes(text))
    sections = tuple(new_text if s is binary.text else s
                     for s in binary.sections)
    return dataclasses.replace(binary, sections=sections)


def assert_identical(incremental, cold):
    assert incremental.result.to_json() == cold.result.to_json()
    assert np.array_equal(incremental.scores, cold.scores)
    assert np.array_equal(incremental.stat_scores, cold.stat_scores)
    assert np.array_equal(incremental.behavior_scores,
                          cold.behavior_scores)


class TestDiffSpans:
    def test_identical_texts_have_no_spans(self):
        assert diff_spans(b"abcdef", b"abcdef") == []

    def test_single_byte(self):
        assert diff_spans(b"abcdef", b"abXdef") == [(2, 3)]

    def test_adjacent_changes_merge(self):
        assert diff_spans(b"abcdef", b"abXYef") == [(2, 4)]

    def test_separated_changes_stay_apart(self):
        assert diff_spans(b"abcdef", b"Xbcdef"[:6]) == [(0, 1)]
        assert diff_spans(b"abcdef", b"XbcdeY") == [(0, 1), (5, 6)]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            diff_spans(b"abc", b"abcd")


class TestRandomPatches:
    @settings(max_examples=10, deadline=None)
    @given(st.dictionaries(st.integers(min_value=0, max_value=1 << 16),
                           st.integers(min_value=0, max_value=255),
                           min_size=1, max_size=4))
    def test_incremental_equals_cold(self, snapshot, small_case, edits):
        disassembler, base = snapshot
        target = patched(small_case, edits)
        incremental, stats = disassemble_incremental(disassembler, base,
                                                     target)
        cold = Disassembler().disassemble_rich(target)
        assert not stats.cold
        assert_identical(incremental, cold)
        assert stats.redecoded <= stats.total
        assert 0.0 <= stats.reused_fraction <= 1.0


def assert_same_superset(patched_superset, cold):
    """Columns and on-demand instructions of a patched superset equal a
    cold build's at every offset."""
    for name in COLUMNS:
        assert np.array_equal(getattr(patched_superset.columns, name),
                              getattr(cold.columns, name)), name
    text = cold.text
    assert [patched_superset.at(o) for o in range(len(text))] == [
        try_decode(text, o) for o in range(len(text))]


class TestSupersetPatches:
    """Patches where a column splice is easiest to get wrong."""

    @settings(max_examples=15, deadline=None)
    @given(back=st.integers(min_value=1, max_value=DECODE_WINDOW),
           value=st.integers(min_value=0, max_value=255))
    def test_patch_near_the_end_equals_cold(self, snapshot, small_case,
                                            back, value):
        # Within a decode window of the end, truncation decides validity.
        disassembler, base = snapshot
        text = small_case.text
        target = patched(small_case, {len(text) - back: value})
        incremental, stats = disassemble_incremental(disassembler, base,
                                                     target)
        cold = Disassembler().disassemble_rich(target)
        assert not stats.cold
        assert_identical(incremental, cold)
        assert_same_superset(incremental.superset, cold.superset)

    @pytest.mark.parametrize("becomes_valid", [False, True])
    def test_patch_flips_an_offset(self, snapshot, small_case,
                                   becomes_valid):
        disassembler, base = snapshot
        superset = base.superset
        # 06 is undefined in 64-bit mode; 90 is a one-byte nop.
        value = 0x90 if becomes_valid else 0x06
        offset = next(o for o in range(len(superset))
                      if superset.is_valid(o) != becomes_valid)
        target = patched(small_case, {offset: value})
        incremental, stats = disassemble_incremental(disassembler, base,
                                                     target)
        assert incremental.superset.is_valid(offset) == becomes_valid
        cold = Disassembler().disassemble_rich(target)
        assert not stats.cold
        assert_identical(incremental, cold)
        assert_same_superset(incremental.superset, cold.superset)

    @settings(max_examples=15, deadline=None)
    @given(offset=st.integers(min_value=0, max_value=1 << 16),
           value=st.integers(min_value=0, max_value=255))
    def test_no_instruction_built_before_the_patch_is_served_again(
            self, small_case, offset, value):
        text = small_case.text
        offset %= len(text)
        old = Superset.build(text)
        before = {o: old.at(o) for o in range(len(text))}   # build all
        new_text = text[:offset] + bytes([value]) + text[offset + 1:]
        spans = diff_spans(text, new_text)
        new = _patch_superset(old, new_text, spans,
                              IncrementalStats(total=len(new_text)))
        window = range(max(0, offset - DECODE_WINDOW + 1), offset + 1)
        for o in window if spans else ():
            assert o not in new.built
            if before[o] is not None:
                assert new.at(o) is not before[o]
        assert_same_superset(new, Superset.build(new_text))


class TestStructuredCases:
    def test_unchanged_resubmission_reuses_everything(self, snapshot,
                                                      small_case):
        disassembler, base = snapshot
        incremental, stats = disassemble_incremental(
            disassembler, base, small_case.binary)
        cold = Disassembler().disassemble_rich(small_case.binary)
        assert_identical(incremental, cold)
        assert stats.changed_bytes == 0
        assert stats.redecoded == 0
        assert stats.reused_fraction == 1.0

    def test_localized_patch_rescores_a_bounded_window(self, snapshot,
                                                       small_case):
        disassembler, base = snapshot
        target = patched(small_case, {100: 0xC3})
        _, stats = disassemble_incremental(disassembler, base, target)
        assert stats.changed_bytes == 1
        # One decode window back plus the changed byte.
        assert stats.redecoded <= 32
        assert stats.redecoded < stats.total

    def test_rescore_builds_columns_over_the_window_closure(
            self, snapshot, small_case, monkeypatch):
        """A one-byte patch reads at most CHAIN_WINDOW instructions per
        rescored offset into the scorers' columns, never the section."""
        build = ChainWindows.__init__
        reads = []

        def counting(self, superset, offsets, roots):
            reads.append(len(offsets))
            build(self, superset, offsets, roots)

        monkeypatch.setattr(ChainWindows, "__init__", counting)
        disassembler, base = snapshot
        target = patched(small_case, {100: 0xC3})
        _, stats = disassemble_incremental(disassembler, base, target)
        assert len(reads) == 2
        assert sum(reads) <= CHAIN_WINDOW * (stats.behavior_rescored
                                             + stats.stat_rescored)
        assert max(reads) < len(base.superset.valid_offsets) / 4

    def test_grown_text_is_incremental(self, snapshot, small_case):
        """Rewrite round-trips append a code appendix; the extension is
        one changed span, the untouched prefix is reused."""
        disassembler, base = snapshot
        binary = small_case.binary
        grown_text = binary.text.data + b"\xc3" * 64
        new_text = dataclasses.replace(binary.text, data=grown_text)
        sections = tuple(new_text if s is binary.text else s
                         for s in binary.sections)
        target = dataclasses.replace(binary, sections=sections)
        incremental, stats = disassemble_incremental(disassembler, base,
                                                     target)
        cold = Disassembler().disassemble_rich(target)
        assert not stats.cold
        assert_identical(incremental, cold)

    def test_rewrite_round_trip_is_incremental(self, models):
        from repro.rewrite import rewrite_binary
        case = generate_binary(BinarySpec(name="inc-rw", style=MSVC_LIKE,
                                          function_count=6, seed=5))
        disassembler = Disassembler()
        rich = disassembler.disassemble_rich(case)
        base = FactBase.from_run(rich, disassembler.config)
        rewritten = rewrite_binary(rich, case.binary)
        incremental, stats = disassemble_incremental(disassembler, base,
                                                     rewritten.binary)
        cold = Disassembler().disassemble_rich(rewritten.binary)
        assert not stats.cold
        assert_identical(incremental, cold)


class TestColdFallbacks:
    def test_shrunk_text_falls_back(self, snapshot, small_case):
        disassembler, base = snapshot
        binary = small_case.binary
        new_text = dataclasses.replace(binary.text,
                                       data=binary.text.data[:-16])
        sections = tuple(new_text if s is binary.text else s
                         for s in binary.sections)
        target = dataclasses.replace(binary, sections=sections)
        _, stats = disassemble_incremental(disassembler, base, target)
        assert stats.cold
        assert stats.reason == "shrunk"
        assert stats.reused_fraction == 0.0

    def test_config_mismatch_falls_back(self, snapshot, small_case):
        from repro.core import DisassemblerConfig
        disassembler, base = snapshot
        other = Disassembler(config=DisassemblerConfig(code_threshold=1.0))
        result, stats = disassemble_incremental(other, base,
                                                small_case.binary)
        assert stats.cold
        assert stats.reason == "config"
        # The fallback still produces a full, correct disassembly.
        assert result.result.instruction_starts
