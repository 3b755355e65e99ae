"""Tests for the data byte model and structural detectors."""

import math

from repro.stats.datamodel import (DataByteModel, find_ascii_runs,
                                   find_jump_tables, find_padding_runs)


class TestDataByteModel:
    def test_trained_bytes_score_higher(self):
        model = DataByteModel()
        model.train([b"\x00" * 100])
        assert model.log_prob_byte(0) > model.log_prob_byte(0x37)

    def test_untrained_model_is_uniform(self):
        model = DataByteModel()
        assert model.log_prob_byte(0) == model.log_prob_byte(255)

    def test_log_prob_sums(self):
        model = DataByteModel()
        model.train([b"abc"])
        assert model.log_prob(b"ab") == (model.log_prob_byte(ord("a"))
                                         + model.log_prob_byte(ord("b")))

    def test_round_trip(self):
        model = DataByteModel()
        model.train([b"hello world" * 10])
        restored = DataByteModel.from_json(model.to_json())
        assert restored.log_prob(b"hello") == model.log_prob(b"hello")

    def test_probabilities_normalize(self):
        model = DataByteModel()
        model.train([bytes(range(256))])
        total = sum(math.exp(model.log_prob_byte(b)) for b in range(256))
        assert abs(total - 1.0) < 1e-9


class TestJumpTableDetector:
    def test_detects_absolute_table(self):
        text = bytearray(b"\x90" * 64)
        for i, target in enumerate((4, 8, 12, 16)):
            text[24 + 8 * i:32 + 8 * i] = target.to_bytes(8, "little")
        tables = find_jump_tables(bytes(text))
        eight = [t for t in tables if t.entry_size == 8]
        assert any(t.start == 24 and t.entry_count >= 4 for t in eight)
        found = next(t for t in eight if t.start == 24)
        assert set(found.targets) >= {4, 8, 12, 16}

    def test_detects_relative_table(self):
        text = bytearray(b"\x90" * 64)
        base = 32
        for i, target in enumerate((4, 8, 12)):
            delta = (target - base) & 0xFFFFFFFF
            text[base + 4 * i:base + 4 * i + 4] = delta.to_bytes(4, "little")
        tables = find_jump_tables(bytes(text))
        four = [t for t in tables if t.entry_size == 4 and t.start == base]
        assert four and four[0].targets == (4, 8, 12)

    def test_min_entries_respected(self):
        text = bytearray(b"\x90" * 32)
        text[8:16] = (4).to_bytes(8, "little")
        text[16:24] = (8).to_bytes(8, "little")
        assert not [t for t in find_jump_tables(bytes(text))
                    if t.entry_size == 8 and t.start == 8]

    def test_target_filter(self):
        text = bytearray(b"\x90" * 64)
        for i, target in enumerate((4, 8, 12, 16)):
            text[24 + 8 * i:32 + 8 * i] = target.to_bytes(8, "little")
        tables = find_jump_tables(bytes(text),
                                  is_plausible_target=lambda t: t != 8)
        assert not any(t.start == 24 and t.entry_count >= 4 for t in tables)

    def test_out_of_range_values_break_runs(self):
        text = bytearray(b"\x90" * 48)
        text[0:8] = (4).to_bytes(8, "little")
        text[8:16] = (10 ** 12).to_bytes(8, "little")
        text[16:24] = (8).to_bytes(8, "little")
        assert not [t for t in find_jump_tables(bytes(text))
                    if t.entry_size == 8 and t.start == 0
                    and t.entry_count >= 3]

    def test_finds_real_tables(self, msvc_case):
        """Ground-truth jump tables are recovered on a real binary."""
        tables = find_jump_tables(msvc_case.text)
        detected = set()
        for table in tables:
            detected.update(range(table.start, table.end))
        covered = 0
        total = 0
        for start, end in msvc_case.truth.jump_tables:
            total += end - start
            covered += sum(1 for o in range(start, end) if o in detected)
        assert covered / total > 0.8


class TestAsciiRuns:
    def test_detects_string(self):
        text = b"\x48\x89\xe5" + b"hello world!\x00" + b"\xc3"
        runs = find_ascii_runs(text)
        assert any(run.start == 3 and run.length >= 12 for run in runs)

    def test_min_length(self):
        assert not find_ascii_runs(b"\x01hi\x01", min_length=6)

    def test_terminator_included(self):
        runs = find_ascii_runs(b"\x01abcdefgh\x00\x01")
        assert runs and runs[0].end == 10

    def test_run_at_end_of_text(self):
        runs = find_ascii_runs(b"\x01abcdefgh")
        assert runs and runs[0].end == 9


class TestPaddingRuns:
    def test_int3_run(self):
        runs = find_padding_runs(b"\xc3" + b"\xcc" * 7 + b"\x55")
        assert (1, 8) in runs

    def test_mixed_padding_bytes_split(self):
        runs = find_padding_runs(b"\xcc\xcc\xcc\x00\x00\x00")
        assert (0, 3) in runs and (3, 6) in runs

    def test_short_runs_ignored(self):
        assert not find_padding_runs(b"\x90\xcc\x90", min_length=2)

    def test_run_to_end(self):
        runs = find_padding_runs(b"\x90" + b"\x00" * 5)
        assert (1, 6) in runs
