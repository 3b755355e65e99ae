"""Differential tests: the superset's array-decoded columns against both
scalar decoders.

``repro.isa.columns.decode_columns`` decodes every offset of a section
in whole-section array passes.  At every offset, each column must hold
exactly what the scalar decode there implies
(:func:`repro.isa.columns.scalar_row`), under the compiled engine and
under the interpretive oracle alike, including the oracle's quirks:
REX reset by a later legacy prefix, the 15-byte limit and its
moffs/enter exemption, the LOCK rule, undefined group members and
truncation at the end of the section.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.dataset import evaluation_corpus
from repro.formats.pe import parse_pe
from repro.isa import _compiled, try_decode_interp
from repro.isa.columns import decode_columns, mismatches
from repro.superset import Superset
from repro.superset import superset as superset_mod

from .test_decoder_differential import RUN_SECTIONS, candidates

BACKENDS = [pytest.param(_compiled.try_decode, id="compiled"),
            pytest.param(try_decode_interp, id="interp")]

#: Legacy prefixes and REX bytes.
PREFIXES = [0x66, 0x67, 0xF0, 0xF2, 0xF3, 0x2E, 0x36, 0x3E, 0x26, 0x64,
            0x65, *range(0x40, 0x50)]

#: Opcodes whose ModRM ``reg`` field selects a group member, some of
#: them undefined (one-byte, then ``0F``-escaped).
GROUPS = [0x80, 0x81, 0x83, 0x8F, 0xC0, 0xC1, 0xC6, 0xC7, 0xD0, 0xD1, 0xD2,
          0xD3, 0xF6, 0xF7, 0xFE, 0xFF]
GROUPS_0F = [0x00, 0x01, 0x0D, 0x18, 0x1F, 0x90, 0xAE, 0xBA, 0xC7]


def assert_columns_match(text: bytes) -> None:
    columns = decode_columns(text)
    for decode in (_compiled.try_decode, try_decode_interp):
        wrong = mismatches(text, columns, decode)
        assert not wrong, (decode.__module__, text.hex(), wrong[:8])


@pytest.fixture(scope="module")
def pe_fixture() -> bytes:
    return (Path(__file__).parent.parent / "formats" / "fixtures"
            / "hello.dll").read_bytes()


@pytest.fixture(scope="module")
def corpus_texts():
    return [bytes(case.text) for case in evaluation_corpus()]


class TestSections:
    def test_corpus_cases(self, corpus_texts):
        assert len(corpus_texts) == 9
        for text in corpus_texts:
            assert_columns_match(text)

    @pytest.mark.parametrize("text", RUN_SECTIONS)
    def test_run_sections(self, text):
        assert_columns_match(text)

    def test_pe_fixture(self, pe_fixture):
        assert_columns_match(parse_pe(pe_fixture).binary.text.data)
        assert_columns_match(pe_fixture)     # every byte of the file

    def test_empty_section(self):
        assert decode_columns(b"").valid.size == 0

    def test_slices_equal_whole_section(self, corpus_texts):
        # Incremental re-disassembly splices re-decoded slices in.
        text = corpus_texts[0]
        whole = decode_columns(text)
        for start, end in ((0, 1), (100, 9000), (len(text) - 40,
                                                  len(text))):
            part = decode_columns(text, start, end)
            for name in vars(whole):
                assert (getattr(part, name)
                        == getattr(whole, name)[start:end]).all(), name


class TestLazyInstructions:
    @pytest.mark.parametrize("decode", BACKENDS)
    def test_at_is_the_scalar_decode(self, corpus_texts, decode,
                                     monkeypatch):
        monkeypatch.setattr(superset_mod, "try_decode", decode)
        for text in corpus_texts:
            assert candidates(Superset.build(text)) == [
                decode(text, offset) for offset in range(len(text))]

    @pytest.mark.parametrize("decode", BACKENDS)
    def test_at_on_the_pe_fixture(self, pe_fixture, decode, monkeypatch):
        monkeypatch.setattr(superset_mod, "try_decode", decode)
        text = parse_pe(pe_fixture).binary.text.data
        assert candidates(Superset.build(text)) == [
            decode(text, offset) for offset in range(len(text))]


class TestHypothesisBytes:
    @given(data=st.binary(max_size=96))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes(self, data):
        assert_columns_match(data)

    @given(byte=st.sampled_from([0x00, 0xFF, 0x90, 0xCC]),
           size=st.integers(1, 80))
    @settings(max_examples=60, deadline=None)
    def test_uniform_runs(self, byte, size):
        assert_columns_match(bytes([byte]) * size)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_code_cut_mid_instruction(self, corpus_texts, data):
        text = data.draw(st.sampled_from(corpus_texts))
        start = data.draw(st.integers(0, len(text) - 1))
        end = data.draw(st.integers(start + 1, min(len(text), start + 160)))
        assert_columns_match(text[start:end])

    @given(prefixes=st.lists(st.sampled_from(PREFIXES), min_size=10,
                             max_size=20),
           tail=st.binary(max_size=16))
    @settings(max_examples=150, deadline=None)
    def test_prefix_and_rex_runs_past_fifteen_bytes(self, prefixes, tail):
        assert_columns_match(bytes(prefixes) + tail)

    @given(opcode=st.integers(0, 255), modrm=st.integers(0, 255),
           escaped=st.booleans(), tail=st.binary(max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_lock_before_register_and_memory_operands(
            self, opcode, modrm, escaped, tail):
        escape = b"\x0f" if escaped else b""
        assert_columns_match(b"\xf0" + escape + bytes([opcode, modrm])
                             + tail)

    @given(prefixes=st.lists(st.sampled_from(PREFIXES), max_size=3),
           opcode=st.integers(0, 255), tail=st.binary(max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_0f_escapes(self, prefixes, opcode, tail):
        assert_columns_match(bytes(prefixes) + bytes([0x0F, opcode]) + tail)

    @given(escaped=st.booleans(), data=st.data(),
           reg=st.integers(0, 7), mod=st.integers(0, 3),
           rm=st.integers(0, 7), tail=st.binary(max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_group_opcodes_with_every_reg_field(self, escaped, data, reg,
                                                mod, rm, tail):
        opcode = data.draw(st.sampled_from(GROUPS_0F if escaped
                                           else GROUPS))
        escape = b"\x0f" if escaped else b""
        modrm = mod << 6 | reg << 3 | rm
        assert_columns_match(escape + bytes([opcode, modrm]) + tail)

    @given(prefixes=st.lists(st.sampled_from(PREFIXES), max_size=14),
           opcode=st.sampled_from([0xA0, 0xA1, 0xA2, 0xA3, 0xC8]),
           tail=st.binary(max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_moffs_and_enter_near_the_end(self, prefixes, opcode, tail):
        assert_columns_match(bytes(prefixes) + bytes([opcode]) + tail)
