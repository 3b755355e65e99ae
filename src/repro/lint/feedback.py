"""Diagnostics as correction claims (the lint feedback hook).

Diagnostics that carry an unambiguous reclassification suggestion
translate directly into the correction engine's own claims
(:class:`~repro.core.engine.facts.CodeClaim` and
:class:`~repro.core.engine.facts.DataClaim`), which it already knows
how to arbitrate.  The disassembler runs this hook behind
``DisassemblerConfig.use_lint_feedback`` (off by default): lint its own
first-pass output, feed the claims back, and re-drain -- turning the
verifier into one more evidence source of the paper's
prioritized-correction loop.
"""

from __future__ import annotations

from ..core.engine.facts import CodeClaim, DataClaim
from ..core.evidence import Priority
from .diagnostics import Diagnostic, LintReport, Severity

#: Rules whose "data" suggestions are trusted as structural evidence.
#: Each one identifies a byte *shape* (string, pointer array, padding),
#: so the span is data regardless of which instruction claimed it.
_DATA_SHAPE_RULES = frozenset({
    "string-as-code", "pointer-run-as-code", "padding-as-code",
})

#: Rules whose diagnostics name a single offset that must be code.
_CODE_TARGET_RULES = frozenset({
    "branch-into-data", "function-entry-not-code",
})


def diagnostics_to_evidence(report: LintReport,
                            *, min_severity: Severity = Severity.WARNING
                            ) -> list[CodeClaim | DataClaim]:
    """Claims derived from actionable diagnostics.

    Only diagnostics with a suggestion from the conservative rule sets
    above are converted; ambiguous violations (a dangling fall-through
    does not say which side is wrong) produce no claim.  Claims are
    STRUCTURAL so that genuinely traced code (ANCHOR) still wins.
    """
    claims: list[CodeClaim | DataClaim] = []
    for diagnostic in report.sorted():
        if diagnostic.severity < min_severity:
            continue
        claims.extend(_convert(diagnostic))
    return claims


def _convert(diagnostic: Diagnostic) -> list[CodeClaim | DataClaim]:
    source = f"lint:{diagnostic.rule}"
    if diagnostic.rule in _DATA_SHAPE_RULES \
            and diagnostic.suggestion == "data":
        return [DataClaim(diagnostic.start, diagnostic.end,
                          Priority.STRUCTURAL, 1.0, source)]
    if diagnostic.rule in _CODE_TARGET_RULES \
            and diagnostic.suggestion == "code":
        return [CodeClaim(diagnostic.start, Priority.STRUCTURAL, 1.0,
                          source)]
    return []
