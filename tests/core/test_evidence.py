"""Tests for classification state and priority semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import DataClaim
from repro.core.evidence import Classification, ClassificationState, Priority

from .state_oracle import OracleState


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


class TestRangeClamping:
    def test_negative_start_does_not_wrap(self):
        state = ClassificationState(8)
        state.mark_data(-2, 3, Priority.SOFT)
        assert state.data_regions() == [(0, 3)]
        assert state.labels[6:] == bytes(2)
        assert state.priorities[6:] == bytes(2)

    def test_can_mark_data_ignores_wrapped_bytes(self):
        state = ClassificationState(8)
        state.mark_instruction(6, 2, Priority.ANCHOR)
        assert state.can_mark_data(-2, 3, Priority.SOFT)
        assert not state.can_mark_data(-2, 7, Priority.SOFT)

    def test_instruction_before_zero_marks_interior_only(self):
        state = ClassificationState(8)
        state.mark_instruction(-1, 3, Priority.SOFT)
        assert state.labels[:3] == bytes([Classification.CODE_INTERIOR] * 2
                                         + [Classification.UNKNOWN])
        assert state.instruction_starts() == set()
        assert state.labels[7] == Classification.UNKNOWN

    def test_marks_past_the_end_are_noops(self):
        state = ClassificationState(4)
        state.mark_instruction(4, 3, Priority.ANCHOR)
        state.mark_data(5, 9, Priority.ANCHOR)
        assert len(state.labels) == len(state.priorities) == 4
        assert state.unknown_gaps() == [(0, 4)]
        assert state.can_mark_instruction(4, 3, Priority.SOFT)


_PRIORITIES = st.sampled_from(list(Priority))


def _ranges(size: int):
    """(start, length) pairs reaching past either end of the state."""
    return st.tuples(st.integers(-4, size + 4), st.integers(0, 18))


@st.composite
def _op_sequences(draw):
    size = draw(st.integers(1, 48))
    prefill = draw(st.sampled_from(["unknown", "data", "code"]))
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["code", "data"]), _ranges(size),
                  _PRIORITIES),
        max_size=30))
    return size, prefill, ops


def _assert_same(kernel: ClassificationState, oracle: OracleState) -> None:
    assert kernel.labels == oracle.labels
    assert kernel.priorities == oracle.priorities
    assert kernel.unknown_gaps() == oracle.unknown_gaps()
    assert kernel.data_regions() == oracle.data_regions()
    assert kernel.instruction_starts() == oracle.instruction_starts()
    size = kernel.size
    for start in range(-2, size + 2):
        for length in (0, 1, 3, 15):
            for priority in Priority:
                assert kernel.can_mark_instruction(start, length, priority) \
                    == oracle.can_mark_instruction(start, length, priority)
                assert kernel.can_mark_data(start, start + length,
                                            priority) \
                    == oracle.can_mark_data(start, start + length, priority)


class TestKernelsMatchOracle:
    @settings(max_examples=80, deadline=None)
    @given(_op_sequences())
    def test_random_op_sequences(self, case):
        size, prefill, ops = case
        kernel = ClassificationState(size)
        oracle = OracleState(size)
        for state in (kernel, oracle):
            if prefill == "data":
                state.mark_data(0, size, Priority.SOFT)
            elif prefill == "code":
                state.mark_instruction(0, size, Priority.IDIOM)
        _assert_same(kernel, oracle)
        for kind, (start, length), priority in ops:
            for state in (kernel, oracle):
                if kind == "code":
                    state.mark_instruction(start, length, priority)
                else:
                    state.mark_data(start, start + length, priority)
            _assert_same(kernel, oracle)

    def test_runs_touching_both_ends(self):
        kernel = ClassificationState(10)
        oracle = OracleState(10)
        for state in (kernel, oracle):
            state.mark_data(0, 3, Priority.SOFT)
            state.mark_instruction(4, 2, Priority.ANCHOR)
            state.mark_data(7, 10, Priority.STRUCTURAL)
        _assert_same(kernel, oracle)
        assert kernel.data_regions() == [(0, 3), (7, 10)]
        assert kernel.unknown_gaps() == [(3, 4), (6, 7)]
