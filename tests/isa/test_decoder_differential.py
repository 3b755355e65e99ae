"""Differential tests: the compiled engine against the interpretive oracle.

The generated module (``repro.isa._compiled``) must be *bit-identical*
to the interpretive decoder on every input: same ``Instruction`` fields
(including raw bytes, effect sets, and rarity) on success, and the same
error class on failure.  These tests are the permanent gate behind the
compiled hot path -- any table or grammar change that regenerates the
module has to keep passing them against the unchanged oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import _compiled, decode_interp, try_decode_interp
from repro.isa.compile_tables import GENERATED_PATH, generate
from repro.isa.errors import (InvalidOpcodeError, TooLongError,
                              TruncatedError)
from repro.superset import Superset
from repro.superset import superset as superset_mod
from repro.superset.superset import DECODE_WINDOW

#: Error classes in the engine's code order (0 invalid, 1 truncated,
#: 2 too long), mirroring ``_compiled.INVALID/TRUNCATED/TOO_LONG``.
ERROR_CLASSES = (InvalidOpcodeError, TruncatedError, TooLongError)

#: Bytes that steer random buffers into the decoder's interesting
#: corners: legacy prefixes, REX, the 0F escape, ModRM shapes that
#: demand SIB/disp bytes, and opcodes with every immediate width.
INTERESTING = bytes([
    0x66, 0xF0, 0x2E, 0x36, 0x3E, 0x26, 0x64, 0x65, 0xF2, 0xF3,
    0x40, 0x48, 0x4F, 0x0F, 0x00, 0x05, 0x0C, 0x24, 0x2D, 0x3C,
    0x63, 0x69, 0x6B, 0x80, 0x81, 0x83, 0x8D, 0x8F, 0x90, 0xB0,
    0xB8, 0xC2, 0xC6, 0xC7, 0xC8, 0xD0, 0xD2, 0xE8, 0xEB, 0xF6,
    0xF7, 0xFE, 0xFF, 0xA0, 0xA1, 0x04, 0x44, 0x84, 0xC4, 0x05,
])


def candidates(superset: Superset) -> list:
    """The superset's candidate (or None) at every offset."""
    return [superset.at(offset) for offset in range(len(superset))]


def oracle_outcome(buf: bytes, offset: int = 0):
    """The oracle's result: an Instruction or the error-class index."""
    try:
        return decode_interp(buf, offset)
    except ERROR_CLASSES as error:
        for index, cls in enumerate(ERROR_CLASSES):
            if isinstance(error, cls):
                return index
        raise  # pragma: no cover - ERROR_CLASSES is exhaustive


def assert_identical(buf: bytes, offset: int = 0) -> None:
    expected = oracle_outcome(buf, offset)
    actual = _compiled.raw_decode(buf, offset)
    assert actual == expected, (buf.hex(), offset, expected, actual)
    via_try = _compiled.try_decode(buf, offset)
    if expected.__class__ is int:
        assert via_try is None, (buf.hex(), offset)
    else:
        assert via_try == expected, (buf.hex(), offset)
        assert try_decode_interp(buf, offset) == expected


class TestExhaustiveShortInputs:
    def test_every_single_byte(self):
        for b0 in range(256):
            assert_identical(bytes([b0]))

    def test_every_byte_pair(self):
        for b0 in range(256):
            for b1 in range(256):
                assert_identical(bytes([b0, b1]))


class TestFuzzedBuffers:
    @given(data=st.binary(min_size=0, max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_random_buffers(self, data):
        assert_identical(data)

    @given(lead=st.lists(st.sampled_from(INTERESTING),
                         min_size=1, max_size=6),
           tail=st.binary(min_size=0, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_biased_lead_buffers(self, lead, tail):
        assert_identical(bytes(lead) + tail)

    @given(data=st.binary(min_size=1, max_size=18))
    @settings(max_examples=150, deadline=None)
    def test_every_truncation(self, data):
        # Truncation sweeps exercise every mid-instruction error site
        # (prefix scan, opcode fetch, ModRM/SIB, displacement, each
        # immediate width) and their error-class priorities.
        for cut in range(len(data) + 1):
            assert_identical(data[:cut])

    @given(data=st.binary(min_size=4, max_size=24),
           offset=st.integers(-2, 26))
    @settings(max_examples=200, deadline=None)
    def test_nonzero_and_out_of_range_offsets(self, data, offset):
        assert_identical(data, offset)


class TestCorpusSections:
    def test_every_offset_of_generated_sections(self, decoder_corpus):
        for text in decoder_corpus:
            for offset in range(len(text)):
                assert_identical(text, offset)

    def test_fifteen_byte_windows(self, decoder_corpus):
        # The ISSUE's truncation sweep: every 15-byte window of real
        # section bytes, decoded at its start, in both decoders.
        for text in decoder_corpus:
            for offset in range(0, len(text), 7):
                assert_identical(text[offset:offset + 15])

    def test_memoryview_input(self, decoder_corpus):
        text = decoder_corpus[0]
        view = memoryview(text)
        for offset in range(0, len(text), 11):
            assert_identical(view, offset)


W = DECODE_WINDOW

#: Sections dominated by repeated-byte runs: padding, NUL regions and
#: runs whose every offset decodes to a different absolute target.
RUN_SECTIONS = [
    pytest.param(b"\x90" * 4 + b"\x00" * (W + 40) + b"\xc3", id="nul-run"),
    pytest.param(b"\xc3" + b"\xcc" * (W + 30) + b"\x90\xc3", id="int3-run"),
    pytest.param(b"\x90" * (3 * W), id="nop-run"),
    # jmp rel8 runs: every in-run candidate has a different target.
    pytest.param(b"\xeb" * (2 * W) + b"\x90" * (2 * W), id="jmp-rel8-run"),
    # mov eax, imm32 runs: immediates made of further run bytes.
    pytest.param(b"\xb8" * (W + 20) + b"\x11\x22\x33\x44", id="imm-run"),
    pytest.param(b"\xc3" + b"\x00" * (2 * W), id="run-at-end"),
    pytest.param(b"\xcc" * (2 * W) + b"\xc3", id="run-at-start"),
    pytest.param(b"\x00" * W + b"\xc3", id="run-exactly-window"),
    pytest.param(b"\x00" * (W + 1) + b"\xc3", id="run-window-plus-one"),
    pytest.param(b"\x48" * (W + 10) + b"\x89\xd8\xc3", id="rex-prefix-run"),
    pytest.param(b"\x00" * (W + 5) + b"\x90" * 7 + b"\xff" * (W + 5),
                 id="two-runs"),
]

BACKENDS = [pytest.param(_compiled.try_decode, id="compiled"),
            pytest.param(try_decode_interp, id="interp")]


class TestSupersetRunSections:
    """``Superset.build`` is a per-offset decode under either backend,
    and the two backends build the same superset."""

    @pytest.mark.parametrize("decode", BACKENDS)
    @pytest.mark.parametrize("text", RUN_SECTIONS)
    def test_build_equals_per_offset_decode(self, text, decode,
                                            monkeypatch):
        monkeypatch.setattr(superset_mod, "try_decode", decode)
        naive = [decode(text, o) for o in range(len(text))]
        assert candidates(Superset.build(text)) == naive

    @pytest.mark.parametrize("text", RUN_SECTIONS)
    def test_backends_agree_on_run_sections(self, text, monkeypatch):
        monkeypatch.setattr(superset_mod, "try_decode", _compiled.try_decode)
        via_compiled = candidates(Superset.build(text))
        monkeypatch.setattr(superset_mod, "try_decode", try_decode_interp)
        assert candidates(Superset.build(text)) == via_compiled

    @pytest.mark.parametrize("decode", BACKENDS)
    def test_run_candidates_carry_own_offset_raw_and_target(
            self, decode, monkeypatch):
        # Each in-run jmp rel8 is its own two-byte candidate whose
        # absolute target moves with its offset.
        monkeypatch.setattr(superset_mod, "try_decode", decode)
        text = b"\xeb" * (2 * W)
        superset = Superset.build(text)
        for offset in range(len(text) - 2):
            candidate = superset.at(offset)
            assert candidate.offset == offset
            assert candidate.raw == text[offset:offset + 2]
            assert candidate.branch_target == offset + 2 - 0x15


class TestGeneratedModuleDrift:
    def test_checked_in_module_matches_compiler(self):
        """The in-repo twin of CI's ``compile_tables --check`` gate."""
        assert GENERATED_PATH.read_text() == generate(), (
            "src/repro/isa/_compiled.py is stale: regenerate with "
            "`python -m repro.isa.compile_tables`")
