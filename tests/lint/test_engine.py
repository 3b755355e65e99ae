"""Lint driver behavior: input forms, selection plumbing, registries."""

import pytest

from repro.lint import (DEFAULT_REGISTRY, Diagnostic, LintConfig, Severity,
                        lint_disassembly)
from repro.lint.registry import RuleRegistry
from repro.result import DisassemblyResult
from repro.superset import Superset

#: A nop falling through into unclaimed int3 padding, then a stray
#: claimed instruction: produces warnings from several built-in rules.
TEXT = bytes([0x90]) + bytes([0xCC] * 6) + bytes([0x90])
CLAIM = DisassemblyResult(tool="test", instructions={0: 1, 7: 1},
                          data_regions=[], function_entries=set())


class TestInputForms:
    def test_bytes_and_superset_agree(self):
        from_bytes = lint_disassembly(CLAIM, TEXT)
        from_superset = lint_disassembly(CLAIM, Superset.build(TEXT))
        assert from_bytes.rules_run == from_superset.rules_run
        assert from_bytes.diagnostics == from_superset.diagnostics

    def test_report_carries_tool_name(self):
        assert lint_disassembly(CLAIM, TEXT).tool == "test"


class TestConfigPlumbing:
    def test_default_runs_every_registered_rule(self):
        report = lint_disassembly(CLAIM, TEXT)
        assert report.rules_run == DEFAULT_REGISTRY.ids()

    def test_enabled_restricts_rules_run(self):
        config = LintConfig(enabled=("orphan-code", "padding-as-code"))
        report = lint_disassembly(CLAIM, TEXT, config=config)
        assert set(report.rules_run) == {"orphan-code", "padding-as-code"}

    def test_disabled_rule_never_fires(self):
        noisy = lint_disassembly(CLAIM, TEXT)
        assert any(d.rule == "fallthrough-unclaimed" for d in noisy)
        config = LintConfig(disabled=("fallthrough-unclaimed",))
        quiet = lint_disassembly(CLAIM, TEXT, config=config)
        assert not any(d.rule == "fallthrough-unclaimed" for d in quiet)
        assert "fallthrough-unclaimed" not in quiet.rules_run

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="unknown lint rule"):
            lint_disassembly(CLAIM, TEXT,
                             config=LintConfig(enabled=("no-such-rule",)))


class TestCustomRegistry:
    def test_custom_registry_replaces_builtins(self):
        registry = RuleRegistry()

        @registry.register("always-fires", Severity.INFO, "test rule")
        def check(context, severity):
            yield Diagnostic(rule="always-fires", severity=severity,
                             start=0, end=len(context.text),
                             message="fired")

        report = lint_disassembly(CLAIM, TEXT, registry=registry)
        assert report.rules_run == ["always-fires"]
        assert [d.rule for d in report] == ["always-fires"]
