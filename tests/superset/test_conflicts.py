"""Tests for the overlap checker ``no_overlap``."""

from repro.isa import Assembler
from repro.isa.registers import RAX
from repro.superset import Superset


def no_overlap(starts: set[int], superset: Superset) -> bool:
    """True when the chosen instruction starts are mutually non-overlapping."""
    covered_until = -1
    for start in sorted(starts):
        ins = superset.at(start)
        if ins is None:
            return False
        if start < covered_until:
            return False
        covered_until = ins.end
    return True


def five_byte_mov() -> Superset:
    a = Assembler()
    a.mov_ri(RAX, 1, width=32)   # b8 01 00 00 00
    a.ret()
    return Superset.build(a.finish())


class TestNoOverlap:
    def test_clean_tiling(self):
        superset = five_byte_mov()
        assert no_overlap({0, 5}, superset)

    def test_overlapping_starts_rejected(self):
        superset = five_byte_mov()
        if superset.is_valid(2):
            assert not no_overlap({0, 2}, superset)

    def test_invalid_member_rejected(self):
        superset = Superset.build(b"\x06\x90")
        assert not no_overlap({0}, superset)

    def test_ground_truth_is_overlap_free(self, msvc_case, msvc_superset):
        assert no_overlap(msvc_case.truth.instruction_starts, msvc_superset)
