"""Diagnostics-as-claims conversion and the disassembler feedback loop."""

from repro.core.config import DisassemblerConfig
from repro.core.disassembler import Disassembler
from repro.core.engine import CodeClaim, DataClaim
from repro.core.evidence import Priority
from repro.eval.metrics import evaluate
from repro.lint import Diagnostic, LintReport, Severity
from repro.lint.feedback import diagnostics_to_evidence


def report_with(*diagnostics):
    report = LintReport(tool="test")
    report.extend(diagnostics)
    return report


def diag(rule, severity=Severity.ERROR, start=16, end=32, suggestion=None):
    return Diagnostic(rule=rule, severity=severity, start=start, end=end,
                      message="m", suggestion=suggestion)


class TestConversion:
    def test_data_shape_rule_becomes_data_span_evidence(self):
        report = report_with(diag("string-as-code", suggestion="data"))
        [claim] = diagnostics_to_evidence(report)
        assert type(claim) is DataClaim
        assert (claim.start, claim.end) == (16, 32)
        assert claim.priority is Priority.STRUCTURAL
        assert claim.weight == 1.0
        assert claim.source == "lint:string-as-code"

    def test_code_target_rule_becomes_point_evidence(self):
        report = report_with(diag("branch-into-data", suggestion="code"))
        [claim] = diagnostics_to_evidence(report)
        assert type(claim) is CodeClaim
        assert claim.offset == 16
        assert claim.priority is Priority.STRUCTURAL
        assert claim.weight == 1.0
        assert claim.source == "lint:branch-into-data"

    def test_rules_without_unique_fix_produce_nothing(self):
        report = report_with(diag("dangling-fallthrough"),
                             diag("instruction-overlap"),
                             diag("code-data-overlap"))
        assert diagnostics_to_evidence(report) == []

    def test_min_severity_filters(self):
        report = report_with(diag("padding-as-code",
                                  severity=Severity.WARNING,
                                  suggestion="data"))
        assert len(diagnostics_to_evidence(report)) == 1
        assert diagnostics_to_evidence(
            report, min_severity=Severity.ERROR) == []

    def test_suggestion_must_match_rule_family(self):
        # A data-shape rule without its expected suggestion is ignored.
        report = report_with(diag("string-as-code", suggestion=None))
        assert diagnostics_to_evidence(report) == []


class TestDisassemblerIntegration:
    def test_feedback_round_does_not_regress(self, models, msvc_case):
        base = Disassembler(models=models).disassemble(msvc_case)
        config = DisassemblerConfig(use_lint_feedback=True)
        rich = Disassembler(models=models,
                            config=config).disassemble_rich(msvc_case)
        assert any(line.startswith("lint-feedback:") for line in rich.log)
        base_eval = evaluate(base, msvc_case.truth)
        fb_eval = evaluate(rich.result, msvc_case.truth)
        assert fb_eval.bytes.total_errors <= base_eval.bytes.total_errors
        assert fb_eval.instructions.f1 >= base_eval.instructions.f1 - 1e-9

    def test_flag_off_is_the_default_and_identical(self, models, msvc_case):
        default = Disassembler(models=models).disassemble_rich(msvc_case)
        assert not any(line.startswith("lint-feedback:")
                       for line in default.log)
        assert DisassemblerConfig().use_lint_feedback is False
