"""The shared error taxonomy every fleet signal maps onto.

Different quality signals speak different languages: lint diagnostics
carry rule ids, differential comparison produces per-byte disagreement
counts, and synthetic ground truth yields exact byte confusions.  The
fleet aggregator needs them on one axis so a dashboard (and the trend
diff) can ask "did boundary errors regress?" without caring which
detector noticed.  :class:`ErrorClass` is that axis, following the
taxonomy of the ground-truth-generation SoK (false code / missed code /
boundary confusion / gap mishandling / table misinterpretation) plus a
``provenance-conflict`` class for the self-disagreement signals this
stack uniquely has (fact-store conflicts, metadata-hint disagreement).

Every registered lint rule id MUST appear in
:data:`LINT_RULE_TAXONOMY` -- the test suite fails when a new rule
lands without a mapping, so the dashboard never silently drops a
diagnostic kind.
"""

from __future__ import annotations

import enum


class ErrorClass(enum.Enum):
    """One row of the fleet quality dashboard."""

    #: Data (or padding) bytes claimed as instructions.
    FALSE_CODE = "false-code"
    #: Genuine code bytes left unclaimed or called data.
    MISSED_CODE = "missed-code"
    #: Instruction/function boundaries drawn through real ones
    #: (overlapping claims, branches into instruction interiors).
    BOUNDARY = "boundary"
    #: Mishandled gaps: fall-through into unclaimed or data bytes.
    GAP = "gap"
    #: Jump/pointer table misinterpretation.
    TABLE = "table"
    #: The toolchain disagreeing with itself or with residual
    #: container metadata (not a byte error per se, but a QA signal).
    PROVENANCE_CONFLICT = "provenance-conflict"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @classmethod
    def parse(cls, value: str) -> ErrorClass:
        for member in cls:
            if member.value == value:
                return member
        raise ValueError(f"unknown error class: {value!r}")


#: Stable iteration order for reports (matches declaration order).
ALL_CLASSES: tuple[ErrorClass, ...] = tuple(ErrorClass)


#: Every lint rule id -> the taxonomy class its diagnostics count
#: toward.  Exactly one class per rule; totality over the registry is
#: enforced by ``tests/fleet/test_taxonomy.py``.
LINT_RULE_TAXONOMY: dict[str, ErrorClass] = {
    # Accepted instructions that cannot be real code.
    "undecodable-instruction": ErrorClass.FALSE_CODE,
    "string-as-code": ErrorClass.FALSE_CODE,
    "pointer-run-as-code": ErrorClass.FALSE_CODE,
    "padding-as-code": ErrorClass.FALSE_CODE,
    "orphan-code": ErrorClass.FALSE_CODE,
    "call-target-garbage": ErrorClass.FALSE_CODE,
    "call-target-non-prologue": ErrorClass.FALSE_CODE,
    # Code that exists but was not claimed as such.
    "function-entry-not-code": ErrorClass.MISSED_CODE,
    "branch-into-data": ErrorClass.MISSED_CODE,
    # Boundaries drawn through real instructions.
    "instruction-overlap": ErrorClass.BOUNDARY,
    "code-data-overlap": ErrorClass.BOUNDARY,
    "branch-into-instruction": ErrorClass.BOUNDARY,
    # Fall-through / gap mishandling.
    "dangling-fallthrough": ErrorClass.GAP,
    "fallthrough-unclaimed": ErrorClass.GAP,
    "padding-as-data": ErrorClass.GAP,
    # Table misinterpretation.
    "jump-table-target-misaligned": ErrorClass.TABLE,
    # Self- / metadata-disagreement.
    "hint-disagreement": ErrorClass.PROVENANCE_CONFLICT,
    "rule-disagreement": ErrorClass.PROVENANCE_CONFLICT,
}


def taxonomy_of(rule_id: str) -> ErrorClass:
    """The taxonomy class for a lint rule id (KeyError if unmapped)."""
    try:
        return LINT_RULE_TAXONOMY[rule_id]
    except KeyError:
        raise KeyError(
            f"lint rule {rule_id!r} has no taxonomy mapping; add it to "
            f"repro.fleet.taxonomy.LINT_RULE_TAXONOMY") from None


#: Where the paper predicts the corrected disassembler separates from
#: each baseline, per ground-truth-scored error class.  ``total`` is
#: the headline false-code + missed-code sum (the paper's 3x-4x
#: claim); per-class entries name the failure mode each baseline is
#: known for: linear sweep decodes embedded data (false code), while
#: recursive descent cannot reach indirect-only functions (missed
#: code).  ``check_separation`` (``evalfleet run --check-separation``)
#: requires the corrected pooled count to be *strictly* below the
#: baseline's on every listed axis.
EXPECTED_SEPARATIONS: dict[str, tuple[str, ...]] = {
    "linear-sweep": ("false-code", "total"),
    "recursive-descent": ("missed-code", "total"),
}
