"""The lint driver: run a configured rule selection over one claim."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..obs.metrics import REGISTRY
from ..obs.provenance import ProvenanceLog
from ..obs.trace import current_tracer
from ..result import DisassemblyResult
from ..superset.superset import Superset, cached_superset
from .context import LintContext
from .diagnostics import LintReport
from .registry import DEFAULT_REGISTRY, RuleRegistry

# Importing the rule module attaches the built-in battery to
# DEFAULT_REGISTRY exactly once.
from . import rules as _builtin_rules  # noqa: F401  (import for effect)


@dataclass(frozen=True)
class LintConfig:
    """One lint run's rule selection.

    Attributes:
        enabled: rule ids to run (None = every registered rule).
        disabled: rule ids removed from the selection.
    """

    enabled: tuple[str, ...] | None = None
    disabled: tuple[str, ...] = ()


DEFAULT_LINT_CONFIG = LintConfig()

_DIAGNOSTICS = REGISTRY.counter(
    "repro_lint_diagnostics_total",
    "Lint diagnostics produced, by severity")

#: Most provenance events attached to one diagnostic (the last N of the
#: chain; earlier context is reachable through ``repro explain``).
_PROVENANCE_CHAIN_LIMIT = 5


class Linter:
    """Runs a rule selection from a registry over disassembly claims."""

    def __init__(self, registry: RuleRegistry | None = None,
                 config: LintConfig = DEFAULT_LINT_CONFIG) -> None:
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self.config = config

    def run(self, context: LintContext,
            provenance: ProvenanceLog | None = None) -> LintReport:
        tracer = current_tracer()
        report = LintReport(tool=context.result.tool)
        for rule in self.registry.select(
                enabled=self.config.enabled,
                disabled=self.config.disabled):
            report.rules_run.append(rule.id)
            if tracer is not None:
                with tracer.span(f"lint:{rule.id}") as span:
                    found = list(rule.check(context, rule.severity))
                    span.attrs["diagnostics"] = len(found)
            else:
                found = rule.check(context, rule.severity)
            report.extend(found)
        if provenance is not None:
            report.diagnostics = [_attach_provenance(d, provenance)
                                  for d in report.diagnostics]
        for severity, count in report.counts().items():
            if count:
                _DIAGNOSTICS.inc(count, severity=severity)
        return report

    def lint(self, result: DisassemblyResult, superset: Superset, *,
             hints=None, text_addr: int = 0, facts=None,
             provenance: ProvenanceLog | None = None) -> LintReport:
        return self.run(LintContext.build(result, superset, hints=hints,
                                          text_addr=text_addr, facts=facts),
                        provenance=provenance)


def _attach_provenance(diagnostic, provenance: ProvenanceLog):
    """Enrich one diagnostic with the decisions behind its byte range."""
    events = provenance.events_overlapping(diagnostic.start,
                                           diagnostic.end)
    if not events:
        return diagnostic
    chain = tuple(event.render()
                  for event in events[-_PROVENANCE_CHAIN_LIMIT:])
    return replace(diagnostic, provenance=chain)


def lint_disassembly(result: DisassemblyResult,
                     text: bytes | Superset, *,
                     config: LintConfig = DEFAULT_LINT_CONFIG,
                     registry: RuleRegistry | None = None,
                     hints=None, text_addr: int = 0, facts=None,
                     provenance: ProvenanceLog | None = None
                     ) -> LintReport:
    """Lint one disassembly claim against the oracle-free invariants.

    ``text`` may be the raw section bytes (the superset is built or
    fetched from the process-wide cache) or an already-built
    :class:`Superset`.  ``hints`` (a
    :class:`~repro.formats.hints.FormatHints`, with ``text_addr``
    locating the text section in the hint address space) lets the
    ``hint-disagreement`` rule cross-check the claim against residual
    ELF/PE metadata; the claim itself is still produced metadata-free.
    ``facts`` (the producing run's exported
    :class:`~repro.core.engine.facts.FactExport`, i.e.
    ``Disassembly.facts``) enables the ``rule-disagreement`` rule.
    ``provenance`` (the audit trail of the run that produced
    ``result``) enriches each diagnostic with the decision chain
    behind its byte range.
    """
    superset = (text if isinstance(text, Superset)
                else cached_superset(bytes(text)))
    return Linter(registry=registry, config=config).lint(
        result, superset, hints=hints, text_addr=text_addr, facts=facts,
        provenance=provenance)
