"""Tests for classification state and priority semantics."""

import pytest

from repro.core.engine import DataClaim
from repro.core.evidence import ClassificationState, Priority


class TestDataClaim:
    def test_validation(self):
        with pytest.raises(ValueError, match="inverted"):
            DataClaim(10, 5, Priority.SOFT, 1.0, "x")
        assert DataClaim(5, 5, Priority.SOFT, 1.0, "x").end == 5


class TestStateBasics:
    def test_initially_unknown(self):
        state = ClassificationState(8)
        assert all(state.is_unknown(i) for i in range(8))
        assert state.unknown_gaps() == [(0, 8)]

    def test_mark_instruction(self):
        state = ClassificationState(8)
        state.mark_instruction(2, 3, Priority.ANCHOR)
        assert state.is_code_start(2)
        assert state.is_code(3) and state.is_code(4)
        assert not state.is_code_start(3)
        assert state.instruction_starts() == {2}

    def test_mark_data(self):
        state = ClassificationState(8)
        state.mark_data(4, 8, Priority.STRUCTURAL)
        assert state.is_data(5)
        assert state.data_regions() == [(4, 8)]

    def test_gaps_after_marks(self):
        state = ClassificationState(10)
        state.mark_instruction(0, 2, Priority.ANCHOR)
        state.mark_data(6, 8, Priority.SOFT)
        assert state.unknown_gaps() == [(2, 6), (8, 10)]

    def test_instruction_clipped_at_end(self):
        state = ClassificationState(4)
        state.mark_instruction(2, 5, Priority.SOFT)
        assert state.is_code(3)


class TestPriorityConflicts:
    def test_weaker_data_cannot_overwrite_code(self):
        state = ClassificationState(8)
        state.mark_instruction(0, 4, Priority.ANCHOR)
        assert not state.can_mark_data(0, 4, Priority.SOFT)
        assert not state.can_mark_data(2, 6, Priority.STRUCTURAL)

    def test_stronger_data_can_overwrite_code(self):
        state = ClassificationState(8)
        state.mark_instruction(0, 4, Priority.SOFT)
        assert state.can_mark_data(0, 4, Priority.STRUCTURAL)

    def test_weaker_instruction_cannot_overwrite_data(self):
        state = ClassificationState(8)
        state.mark_data(0, 8, Priority.STRUCTURAL)
        assert not state.can_mark_instruction(0, 4, Priority.SOFT)

    def test_stronger_instruction_overrides_data(self):
        state = ClassificationState(8)
        state.mark_data(0, 8, Priority.SOFT)
        assert state.can_mark_instruction(0, 4, Priority.ANCHOR)
        state.mark_instruction(0, 4, Priority.ANCHOR)
        assert state.is_code_start(0)

    def test_conflicting_alignment_rejected_at_equal_priority(self):
        state = ClassificationState(8)
        state.mark_instruction(0, 4, Priority.ANCHOR)
        # A start inside [0,4) would overlap; interior at equal priority.
        assert not state.can_mark_instruction(2, 2, Priority.ANCHOR)

    def test_remarking_same_start_is_allowed(self):
        state = ClassificationState(8)
        state.mark_instruction(0, 4, Priority.SOFT)
        assert state.can_mark_instruction(0, 4, Priority.SOFT)

    def test_equal_priority_data_over_unknown_ok(self):
        state = ClassificationState(8)
        assert state.can_mark_data(0, 8, Priority.SOFT)
