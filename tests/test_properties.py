"""Property-based tests over the whole pipeline.

Hypothesis drives the synthetic compiler with random seeds/styles and
checks the invariants that must hold for *every* binary: output
instructions never overlap, every byte is classified, recall of anchored
code is total, and the oracle evaluates perfectly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Disassembler
from repro.baselines import oracle
from repro.eval.metrics import evaluate
from repro.stats.training import default_models
from repro.superset import Superset
from repro.synth import BinarySpec, STYLES, generate_binary

from .superset.test_conflicts import no_overlap

SEEDS = st.integers(min_value=100, max_value=400)
STYLE = st.sampled_from(sorted(STYLES))


def small_case(style_name: str, seed: int):
    return generate_binary(BinarySpec(name="prop",
                                      style=STYLES[style_name],
                                      function_count=6, seed=seed))


class TestPipelineInvariants:
    @given(style_name=STYLE, seed=SEEDS)
    @settings(max_examples=12, deadline=None)
    def test_output_is_a_consistent_classification(self, style_name, seed):
        case = small_case(style_name, seed)
        disassembler = Disassembler(models=default_models())
        result = disassembler.disassemble(case)

        superset = Superset.build(case.text)
        assert no_overlap(result.instruction_starts, superset)

        code = result.code_byte_offsets()
        data = result.data_byte_offsets()
        assert not code & data
        assert code | data == set(range(len(case.text)))

    @given(style_name=STYLE, seed=SEEDS)
    @settings(max_examples=12, deadline=None)
    def test_oracle_is_always_perfect(self, style_name, seed):
        case = small_case(style_name, seed)
        evaluation = evaluate(oracle(case), case.truth)
        assert evaluation.instructions.f1 == 1.0
        assert evaluation.bytes.total_errors == 0

    @given(style_name=STYLE, seed=SEEDS)
    @settings(max_examples=8, deadline=None)
    def test_high_recall_everywhere(self, style_name, seed):
        case = small_case(style_name, seed)
        disassembler = Disassembler(models=default_models())
        evaluation = evaluate(disassembler.disassemble(case), case.truth)
        assert evaluation.instructions.recall > 0.95

    @given(seed=SEEDS)
    @settings(max_examples=8, deadline=None)
    def test_generation_determinism(self, seed):
        spec = BinarySpec(name="det", function_count=5, seed=seed)
        assert generate_binary(spec).text == generate_binary(spec).text
