"""Typed facts and the fact store of the declarative correction engine.

The fact/rule engine models the correction algorithm as inference over
a store of **facts** instead of hand-sequenced control flow:

* **Claims** -- frozen :class:`CodeClaim` / :class:`DataClaim`
  assertions queued on the driver's agenda.  Ingestion pushes them for
  detected tables, the entry point and prologue idioms; rules derive
  more while tracing; lint feedback supplies its own.
* **Relations the rules read** -- pending call continuations,
  unresolved dispatch sites and the columnar padding mask (one bool
  per text byte), each mutation bumping a version counter so
  set-valued rules fire semi-naively.
* **Region facts** -- the output: one :class:`RegionFact` per
  mark-code / mark-data projection, naming the rule that wrote it, so
  the lint cross-check and the rewriter read why each byte holds its
  label.

The per-offset score vectors are inputs of the engine itself, not
store relations.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from ..evidence import Priority

#: Bytes treated as padding by the padding relation (int3 / nop / zero).
PADDING_BYTES = frozenset({0xCC, 0x90, 0x00})


# ----------------------------------------------------------------------
# Claims and derived facts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CodeClaim:
    """A claim that ``offset`` starts an instruction.

    Claims queue on the agenda and are consumed strongest-first by the
    trace rule.  ``weight`` orders claims within one priority class;
    ``source`` names the producing analysis for explainability.
    """

    offset: int
    priority: Priority
    weight: float
    source: str


@dataclass(frozen=True)
class DataClaim:
    """A claim that ``[start, end)`` is data."""

    start: int
    end: int
    priority: Priority
    weight: float
    source: str

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("data claim range is inverted")


@dataclass(frozen=True)
class PendingCall:
    """A deferred call continuation: traced once the callee returns."""

    fall: int
    target: int


@dataclass
class TraceResult:
    """Everything one TraceRule firing derived from its seed claim."""

    accepted: set[int] = field(default_factory=set)
    call_targets: set[int] = field(default_factory=set)
    resolved_tables: list = field(default_factory=list)
    #: Deferred call continuations: (fall-through offset, callee entry).
    pending_calls: list[tuple[int, int]] = field(default_factory=list)
    unresolved_dispatches: set[int] = field(default_factory=set)
    aborted: bool = False
    derailed_at: int | None = None
    derail_depth: int = -1
    derail_hit: str = ""
    #: [min, max) byte range the firing touched before its verdict.
    touched: tuple[int, int] | None = None
    #: Bytes whose previous non-UNKNOWN classification it overwrote.
    reclassified: int = 0


@dataclass(frozen=True)
class RegionFact:
    """An output fact: why a byte region holds its classification.

    The store keeps one per projection (mark-code / mark-data); the
    linter's ``rule-disagreement`` check reads these instead of
    recomputing evidence.
    """

    start: int
    end: int
    label: str                  # "code" | "data"
    priority: Priority
    source: str
    rule: str


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

class FactStore:
    """Fact relations plus delta counters for semi-naive firing.

    Every mutating operation bumps a per-relation *version*; rules
    remember the versions they last fired against and re-fire only when
    an input relation has a non-empty delta (the semi-naive property:
    no rule re-derives from an unchanged input set).
    """

    def __init__(self, text: bytes) -> None:
        self.pending_calls: list[PendingCall] = []
        self.unresolved_dispatches: set[int] = set()
        self.region_facts: list[RegionFact] = []
        #: Columnar relation: True where the byte is padding.
        self.padding: np.ndarray = np.frombuffer(
            text, dtype=np.uint8) if text else np.zeros(0, dtype=np.uint8)
        self.padding = np.isin(self.padding,
                               np.array(sorted(PADDING_BYTES),
                                        dtype=np.uint8))
        #: Per-relation version counters (semi-naive deltas).
        self.versions: dict[str, int] = {
            "pending_calls": 0, "dispatches": 0, "resolved": 0,
            "state": 0,
        }

    # -- mutation ------------------------------------------------------

    def bump(self, relation: str) -> None:
        self.versions[relation] += 1

    def add_pending_call(self, fact: PendingCall) -> None:
        self.pending_calls.append(fact)
        self.bump("pending_calls")

    def add_unresolved_dispatch(self, offset: int) -> None:
        if offset not in self.unresolved_dispatches:
            self.unresolved_dispatches.add(offset)
            self.bump("dispatches")

    def add_region(self, fact: RegionFact) -> None:
        self.region_facts.append(fact)

    # -- queries -------------------------------------------------------

    def is_pure_padding(self, start: int, end: int) -> bool:
        """True when every byte of [start, end) is a padding byte."""
        return bool(self.padding[start:end].all())

    def export(self) -> FactExport:
        """A read-only snapshot of the output region facts for lint."""
        return FactExport(sorted(self.region_facts,
                                 key=lambda f: (f.start, f.end)))


class FactExport:
    """Sorted region facts with interval lookup (the lint-facing view)."""

    def __init__(self, regions: list[RegionFact]) -> None:
        self.regions = regions
        self._starts = [region.start for region in regions]

    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self):
        return iter(self.regions)

    def classifier_of(self, start: int, end: int) -> RegionFact | None:
        """The region overlapping [start, end) with the greatest
        ``(start, end)``; None when no region overlaps.

        Regions are sorted by ``(start, end)``, ties in write order with
        the later-written one winning, so this is the rightmost region
        that starts before ``end`` and ends after ``start``.
        """
        index = bisect_left(self._starts, end)
        while index > 0:
            index -= 1
            region = self.regions[index]
            if region.end > start:
                return region
        return None
