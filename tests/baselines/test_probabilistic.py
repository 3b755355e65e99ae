"""Tests for the probabilistic-disassembly baseline."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import probabilistic, probabilistic_disassembly
from repro.baselines.probabilistic import _hint_inputs, _invalid_closure
from repro.eval.dataset import evaluation_corpus
from repro.eval.metrics import evaluate
from repro.isa import Assembler
from repro.superset import Superset

from . import edge_oracle


@pytest.fixture(scope="module")
def evaluation_cases():
    """The 9 cases of the default evaluation corpus."""
    return evaluation_corpus()


@pytest.fixture(scope="module")
def corpus_supersets(evaluation_cases):
    return [Superset.build(bytes(case.text)) for case in evaluation_cases]


class TestInvalidClosure:
    def test_undecodable_offsets_are_dead(self):
        superset = Superset.build(b"\x06\x90\xc3")
        dead = _invalid_closure(superset)
        assert dead[0]
        assert not dead[1] and not dead[2]

    def test_forced_flow_into_invalid_is_dead(self):
        # nop at 0 falls into invalid at 1 -> 0 is transitively dead.
        superset = Superset.build(b"\x90\x06" + b"\x90\xc3")
        dead = _invalid_closure(superset)
        assert dead[0]

    def test_terminators_stay_alive(self):
        superset = Superset.build(b"\xc3\x06")
        dead = _invalid_closure(superset)
        assert not dead[0]

    def test_conditional_branch_with_one_live_successor_alive(self):
        a = Assembler()
        a.jcc("e", "ok")        # falls into invalid, branches to ret
        a.bind("ok")
        text = a.finish()[:6]   # strip to keep layout tight
        a2 = Assembler()
        a2.jcc("e", "ok")
        a2.db(b"\x06")
        a2.bind("ok")
        a2.ret()
        superset = Superset.build(a2.finish())
        dead = _invalid_closure(superset)
        assert not dead[0]      # one successor (the ret) is alive


class TestProbabilisticDisassembly:
    def test_high_recall_moderate_precision(self, msvc_case):
        evaluation = evaluate(
            probabilistic_disassembly(msvc_case.text, 0), msvc_case.truth)
        assert evaluation.instructions.recall > 0.85
        assert evaluation.instructions.precision > 0.5

    def test_threshold_monotone_in_recall(self, msvc_case):
        loose = probabilistic_disassembly(msvc_case.text, 0, threshold=0.9)
        tight = probabilistic_disassembly(msvc_case.text, 0,
                                          threshold=0.05)
        assert len(loose.instructions) >= len(tight.instructions)

    def test_entry_point_always_code(self, msvc_case):
        result = probabilistic_disassembly(msvc_case.text, 0)
        assert 0 in result.instructions

    def test_dead_offsets_never_emitted(self):
        text = b"\x90\x06\x90\xc3"
        result = probabilistic_disassembly(text, 2)
        assert 0 not in result.instructions
        assert 1 not in result.instructions

    def test_reuses_prebuilt_superset(self, msvc_case, msvc_superset):
        result = probabilistic_disassembly(msvc_case.text, 0,
                                           superset=msvc_superset)
        assert result.instructions


# ----------------------------------------------------------------------
# The column-derived hint inputs equal the per-offset edge walks
# ----------------------------------------------------------------------

#: Direct branches: jcc/jmp rel8 and call/jmp rel32, with displacements
#: that often leave the section.
_BRANCH = st.builds(
    lambda opcode, disp: opcode + disp,
    st.sampled_from([bytes([0x70 + cc]) for cc in range(16)] + [b"\xeb"]),
    st.binary(min_size=1, max_size=1)) | st.builds(
    lambda opcode, disp: opcode + disp.to_bytes(4, "little", signed=True),
    st.sampled_from([b"\xe8", b"\xe9"]), st.integers(-300, 300))

_CHUNK = st.one_of(
    st.binary(max_size=24),
    _BRANCH,
    st.builds(lambda byte, n: bytes([byte]) * n,
              st.sampled_from([0x00, 0x90, 0xCC, 0xC3, 0xEB, 0xE8, 0x48]),
              st.integers(1, 48)),
)

#: Sections of runs, branches and random bytes, often ending in bytes
#: that do not decode (0x06 is invalid in 64-bit mode) or in a prefix
#: that truncates.
_SECTIONS = st.builds(
    lambda chunks, tail: b"".join(chunks) + tail,
    st.lists(_CHUNK, max_size=12),
    st.sampled_from([b"", b"\x06", b"\x06\x06\x06", b"\x48", b"\xe8\x00"]))


def _assert_hint_inputs_match(superset: Superset) -> None:
    dead = _invalid_closure(superset)
    *columns, edges = _hint_inputs(superset, dead)
    *expected, expected_edges = edge_oracle.hint_inputs(superset, dead)
    for actual, wanted in zip(columns, expected):
        assert actual.tolist() == wanted.tolist()
    assert edges == expected_edges


def _assert_results_match(text: bytes, monkeypatch) -> None:
    superset = Superset.build(text)
    columns = probabilistic_disassembly(text, 0, superset=superset)
    with monkeypatch.context() as patch:
        patch.setattr(probabilistic, "_hint_inputs",
                      edge_oracle.hint_inputs)
        walked = probabilistic_disassembly(text, 0, superset=superset)
    assert columns == walked


class TestHintInputsMatchEdgeWalks:
    def test_corpus_hint_inputs(self, corpus_supersets):
        for superset in corpus_supersets:
            _assert_hint_inputs_match(superset)

    def test_corpus_results(self, evaluation_cases, monkeypatch):
        for case in evaluation_cases:
            _assert_results_match(bytes(case.text), monkeypatch)

    @given(text=_SECTIONS)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_sections(self, text, monkeypatch):
        _assert_hint_inputs_match(Superset.build(text))
        _assert_results_match(text, monkeypatch)
