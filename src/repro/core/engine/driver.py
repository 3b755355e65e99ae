"""The semi-naive fixpoint driver of the fact/rule correction engine.

:class:`FactEngine` runs prioritized error correction as a stratified
fixpoint over typed facts:

* Claims (derived code/data assertions) queue on a prioritized
  **agenda** and are consumed strongest-(priority, weight)-first,
  ties broken by insertion order, so decisions are deterministic.
* Set-valued rules (dispatch retry, call continuations) fire only when
  one of their input relations has changed since their last barren
  attempt -- the semi-naive property, tracked through the fact store's
  per-relation version counters instead of being recomputed every
  quiescence check.
* Every rule firing records its own provenance and region facts, so
  the audit trail and the lint cross-check are products of the
  inference itself rather than hand-placed hooks.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from ...binary.image import MemoryImage
from ...obs.provenance import ProvenanceLog
from ...superset.superset import Superset
from ..config import DisassemblerConfig
from ..evidence import ClassificationState, Priority
from ..tables import ResolvedTable, resolve_indirect_jump
from .facts import CodeClaim, DataClaim, FactExport, FactStore
from .rules import (CallContinuationRule, DataRule, DispatchRetryRule,
                    GapRule, GapSealRule, RealignRule, TableRule, TraceRule)


class FactEngine:
    """Stratified fact/rule engine over one text section."""

    def __init__(self, superset: Superset, scores: np.ndarray,
                 config: DisassemblerConfig,
                 image: MemoryImage | None = None,
                 behavior_scores: np.ndarray | None = None,
                 provenance: ProvenanceLog | None = None) -> None:
        self.superset = superset
        self.scores = scores
        self.behavior_scores = behavior_scores
        self.config = config
        self.image = image if image is not None \
            else MemoryImage.from_text(superset.text)
        self.state = ClassificationState(len(superset))
        self.store = FactStore(superset.text)
        self.resolved_tables: list[ResolvedTable] = []
        self.log: list[str] = []
        self.provenance = provenance
        #: Pass currently executing, for provenance tagging.
        self.pass_id = "correction"
        self.noreturn_entries: set[int] = set()
        self.noreturn_fall_sites: set[int] = set()
        self._sequence = itertools.count()
        self._agenda: list[tuple] = []
        self._speculative_cache: dict[int, tuple[int, ...] | None] = {}
        # The rule library, in strata order.
        self.table_rule = TableRule(self)
        self.trace_rule = TraceRule(self)
        self.data_rule = DataRule(self)
        self.dispatch_rule = DispatchRetryRule(self)
        self.calls_rule = CallContinuationRule(self)
        self.gap_rule = GapRule(self)
        self.seal_rule = GapSealRule(self)
        self.realign_rule = RealignRule(self)

    # ------------------------------------------------------------------
    # Agenda
    # ------------------------------------------------------------------

    def push_claim(self, claim: CodeClaim | DataClaim) -> None:
        """Queue a derived claim, strongest-(priority, weight) first."""
        weight = claim.weight
        heapq.heappush(self._agenda, (-int(claim.priority), -weight,
                                      next(self._sequence), claim))

    def _pop(self) -> CodeClaim | DataClaim | None:
        if not self._agenda:
            return None
        return heapq.heappop(self._agenda)[-1]

    def note(self, action: str, start: int, end: int, *,
             source: str = "", priority: Priority | None = None,
             detail: str = "", **attrs) -> None:
        """Record a provenance event if the audit trail is enabled."""
        if self.provenance is None:
            return
        self.provenance.record(
            action, start, end, pass_id=self.pass_id, source=source,
            priority=Priority(priority).name if priority is not None
            else "", detail=detail, **attrs)

    # ------------------------------------------------------------------
    # Fixpoint
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Run propagation to fixpoint.

        Claims first; when the agenda is empty, the set-valued rules
        get one firing opportunity each, in priority order (dispatch
        retry before call continuations: returning-ness verdicts depend
        on resolved switch targets).  Quiescence is reached when no
        rule finds a changed input relation.
        """
        while True:
            claim = self._pop()
            if claim is not None:
                if type(claim) is DataClaim:
                    self.data_rule.fire(claim)
                else:
                    self.trace_rule.fire(claim)
                continue
            if self.dispatch_rule.fire():
                continue
            if self.calls_rule.fire():
                continue
            return

    # ------------------------------------------------------------------
    # Driver protocol
    # ------------------------------------------------------------------

    def ingest(self, tables, entry: int | None, prologues) -> None:
        """Ingestion: fire the table rule on each detected table, then
        claim the entry point (ANCHOR) and every prologue (IDIOM)."""
        self.pass_id = "tables"
        for table in tables:
            self.table_rule.fire(table)
        if entry is not None:
            self.push_claim(CodeClaim(entry, Priority.ANCHOR, 2.0,
                                      "entry-point"))
        for offset in prologues:
            self.push_claim(CodeClaim(offset, Priority.IDIOM, 1.0,
                                      "prologue"))

    def solve(self) -> None:
        """Propagation to fixpoint."""
        self.pass_id = "correction"
        self.drain()

    def finish(self) -> None:
        """Strata 2 and 3: settle gaps, seal leftovers, realign."""
        if not self.config.use_prioritized_correction:
            # Ablation path: one address-order pass, no realignment,
            # sealed under the same pass id.
            self.pass_id = "gaps-single-pass"
            self.gap_rule.run_single_pass()
            self.seal_rule.fire()
            return
        self.gap_rule.run_rounds()
        self.pass_id = "gaps-final"
        self.seal_rule.fire()
        self.realign_rule.fire()

    def feedback(self, claims: list[CodeClaim | DataClaim]) -> None:
        """One lint-feedback round: queue the claims, re-solve."""
        self.pass_id = "lint-feedback"
        for claim in claims:
            self.push_claim(claim)
        self.drain()
        self.finish()

    def facts(self) -> FactExport:
        """The derived region facts (consumed by ``repro lint``)."""
        return self.store.export()

    # ------------------------------------------------------------------
    # Shared premise helpers
    # ------------------------------------------------------------------

    def speculative_dispatch_targets(self, offset: int
                                     ) -> tuple[int, ...] | None:
        """Resolve a dispatch for verdict purposes only.

        Returning-ness verdicts must not depend on how far tracing has
        progressed, so the backward dataflow here accepts any decodable
        predecessor, confirmed or not.  Results feed the noreturn
        analysis, never the classification state.
        """
        if not self.config.use_table_resolution:
            return None
        cache = self._speculative_cache
        if offset in cache:
            return cache[offset]
        instruction = self.superset.at(offset)
        targets = None
        if instruction is not None:
            table = resolve_indirect_jump(self.superset, self.image,
                                          self.superset.is_valid,
                                          instruction)
            if table is not None:
                targets = table.targets
        cache[offset] = targets
        return targets
