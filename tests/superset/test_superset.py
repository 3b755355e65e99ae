"""Tests for superset disassembly."""

from repro.isa import Assembler
from repro.superset import Superset


def invalid_offsets(superset: Superset) -> frozenset[int]:
    """The offsets at which no candidate decodes."""
    return frozenset(o for o in range(len(superset))
                     if superset.at(o) is None)


def build(fn) -> Superset:
    a = Assembler()
    fn(a)
    return Superset.build(a.finish())


class TestConstruction:
    def test_superset_contains_truth(self, msvc_case, msvc_superset):
        """Every real instruction start is a valid superset candidate."""
        for start in msvc_case.truth.instruction_starts:
            candidate = msvc_superset.at(start)
            assert candidate is not None
            assert candidate.raw == msvc_case.text[start:start
                                                   + candidate.length]

    def test_invalid_offsets_complement_valid(self, msvc_superset):
        size = len(msvc_superset)
        assert (set(msvc_superset.valid_offsets.tolist())
                | set(invalid_offsets(msvc_superset))) == set(range(size))

    def test_out_of_range_at(self):
        superset = Superset.build(b"\x90\xc3")
        assert superset.at(-1) is None
        assert superset.at(2) is None

    def test_empty_text(self):
        superset = Superset.build(b"")
        assert len(superset) == 0
        assert superset.valid_offsets.tolist() == []


class TestChains:
    def test_chain_stops_at_terminator(self):
        superset = build(lambda a: (a.nop(1), a.nop(1), a.ret(), a.nop(1)))
        chain = superset.fallthrough_chain(0, 10)
        assert [i.offset for i in chain] == [0, 1, 2]

    def test_chain_respects_limit(self):
        superset = build(lambda a: a.db(b"\x90" * 20))
        assert len(superset.fallthrough_chain(0, 5)) == 5

    def test_chain_stops_at_invalid(self):
        superset = Superset.build(b"\x90\x06\x90")   # nop, invalid, nop
        chain = superset.fallthrough_chain(0, 10)
        assert len(chain) == 1


class TestRepeatedRuns:
    """Long identical-byte runs decode exactly like a per-offset decode."""

    def naive(self, text: bytes):
        from repro.isa.decoder import try_decode
        return [try_decode(text, o) for o in range(len(text))]

    def candidates(self, superset: Superset):
        return [superset.at(o) for o in range(len(superset))]

    def assert_equivalent(self, text: bytes):
        assert self.candidates(Superset.build(text)) == self.naive(text)

    def test_long_nul_run(self):
        self.assert_equivalent(b"\x90" * 4 + b"\x00" * 100 + b"\xc3")

    def test_long_int3_padding_run(self):
        self.assert_equivalent(b"\xc3" + b"\xcc" * 80 + b"\x90\xc3")

    def test_long_nop_run(self):
        self.assert_equivalent(b"\x90" * 200)

    def test_relative_branch_run_shifts_targets(self):
        # 0xEB decodes as jmp rel8: every offset in the run has a
        # *different* absolute target.
        text = b"\xeb" * 64 + b"\x90" * 64
        superset = Superset.build(text)
        naive = self.naive(text)
        assert self.candidates(superset) == naive
        targets = [ins.branch_target for ins in self.candidates(superset)[:40]]
        assert targets == [o + 2 - 0x15 for o in range(40)]

    def test_run_at_end_of_text(self):
        self.assert_equivalent(b"\xc3" + b"\x00" * 60)

    def test_run_at_start_of_text(self):
        self.assert_equivalent(b"\xcc" * 60 + b"\xc3")

    def test_short_runs_agree(self):
        self.assert_equivalent(b"\x00" * 16 + b"\xcc" * 16 + b"\x90" * 16)
