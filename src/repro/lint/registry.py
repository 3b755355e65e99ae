"""The lint rule registry: registration, per-rule toggles, severities.

Rules are plain generator functions over a
:class:`~repro.lint.context.LintContext`; the registry owns their
metadata (stable id, default severity, description) so the CLI can list
them, enable/disable them individually, and override severities without
the rule bodies knowing.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from .diagnostics import Diagnostic, Severity

#: Signature of a rule body: yields diagnostics (severity field is
#: filled in by the engine from registry configuration).
RuleCheck = Callable[..., Iterator[Diagnostic]]


@dataclass(frozen=True)
class LintRule:
    """Metadata plus the check body of one registered rule."""

    id: str
    severity: Severity
    description: str
    check: RuleCheck


class RuleRegistry:
    """Ordered collection of lint rules with per-rule configuration."""

    def __init__(self) -> None:
        self._rules: dict[str, LintRule] = {}

    def register(self, rule_id: str, severity: Severity,
                 description: str) -> Callable[[RuleCheck], RuleCheck]:
        """Decorator: ``@registry.register("my-rule", Severity.ERROR, ...)``."""
        def wrap(check: RuleCheck) -> RuleCheck:
            if rule_id in self._rules:
                raise ValueError(f"duplicate lint rule id: {rule_id}")
            self._rules[rule_id] = LintRule(rule_id, severity,
                                            description, check)
            return check
        return wrap

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __iter__(self) -> Iterator[LintRule]:
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def get(self, rule_id: str) -> LintRule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise KeyError(f"unknown lint rule: {rule_id}") from None

    def ids(self) -> list[str]:
        return list(self._rules)

    def select(self, *, enabled: Iterable[str] | None = None,
               disabled: Iterable[str] = ()) -> list[LintRule]:
        """The rules one lint run should execute, in registration order.

        ``enabled=None`` means "all registered rules"; otherwise only the
        listed ids run.  ``disabled`` removes ids from that selection.
        Unknown ids in either argument raise ``KeyError`` (typo safety).
        """
        for rule_id in (*([] if enabled is None else enabled), *disabled):
            self.get(rule_id)
        chosen = (self._rules if enabled is None else set(enabled))
        return [rule for rule in self._rules.values()
                if rule.id in chosen and rule.id not in set(disabled)]


#: The registry all built-in rules attach to (populated by
#: :mod:`repro.lint.rules` at import time).
DEFAULT_REGISTRY = RuleRegistry()
