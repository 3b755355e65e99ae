"""Rule registration, selection, and the built-in battery's metadata."""

import pytest

from repro.lint import DEFAULT_REGISTRY, Severity
from repro.lint.registry import RuleRegistry

EXPECTED_IDS = [
    "undecodable-instruction", "instruction-overlap", "code-data-overlap",
    "function-entry-not-code", "branch-into-instruction", "branch-into-data",
    "dangling-fallthrough", "fallthrough-unclaimed", "call-target-garbage",
    "call-target-non-prologue", "jump-table-target-misaligned",
    "string-as-code", "pointer-run-as-code", "orphan-code",
    "padding-as-code", "padding-as-data", "hint-disagreement",
    "rule-disagreement",
]


def sample_registry():
    registry = RuleRegistry()

    @registry.register("a", Severity.ERROR, "first")
    def check_a(context, severity):
        return iter(())

    @registry.register("b", Severity.WARNING, "second")
    def check_b(context, severity):
        return iter(())

    return registry


class TestRegistration:
    def test_duplicate_id_rejected(self):
        registry = sample_registry()
        with pytest.raises(ValueError, match="duplicate"):
            registry.register("a", Severity.INFO, "again")(lambda c, s: iter(()))

    def test_get_unknown_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown lint rule"):
            sample_registry().get("nope")

    def test_container_protocol(self):
        registry = sample_registry()
        assert "a" in registry and "nope" not in registry
        assert len(registry) == 2
        assert [rule.id for rule in registry] == ["a", "b"]


class TestSelect:
    def test_default_is_all_in_registration_order(self):
        assert [r.id for r in sample_registry().select()] == ["a", "b"]

    def test_enabled_restricts(self):
        assert [r.id for r in sample_registry().select(enabled=["b"])] == ["b"]

    def test_disabled_removes(self):
        assert [r.id for r in sample_registry().select(disabled=["a"])] == ["b"]

    def test_unknown_ids_raise(self):
        registry = sample_registry()
        with pytest.raises(KeyError):
            registry.select(enabled=["a", "zzz"])
        with pytest.raises(KeyError):
            registry.select(disabled=["zzz"])


class TestBuiltinBattery:
    def test_all_rules_registered_in_order(self):
        assert DEFAULT_REGISTRY.ids() == EXPECTED_IDS

    def test_every_rule_has_description(self):
        for rule in DEFAULT_REGISTRY:
            assert rule.description
