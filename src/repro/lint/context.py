"""Shared, precomputed state every lint rule reads.

Rules need the same handful of views over a disassembly claim: a
per-byte classification, the accepted instructions, branch
cross-references among them, and the structural shapes (ASCII runs,
padding runs, pointer-table candidates) of the raw bytes.  Computing
them once here keeps each rule a short declarative check.

Every view is a whole-section pass: per-byte views are slices written
once per claimed range, the accepted instructions are columns, and the
byte-shape scans are memoised per section, shared by every claim.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..analysis.cfg import ControlFlowGraph, build_cfg
from ..formats.hints import FormatHints
from ..isa.columns import flow_in
from ..isa.instruction import Instruction
from ..isa.opcodes import FlowKind
from ..result import DisassemblyResult
from ..stats.datamodel import TableCandidate, find_padding_runs
from ..superset.superset import Superset


class ByteClaim(enum.IntEnum):
    """What the disassembly result claims one byte is."""

    UNCLAIMED = 0       # neither code nor data (typically padding)
    CODE_START = 1
    CODE_INTERIOR = 2
    DATA = 3


#: Claim bytes for slice writes and span tests.
INTERIOR = bytes((ByteClaim.CODE_INTERIOR,))
DATA = bytes((ByteClaim.DATA,))
CODE = bytes((ByteClaim.CODE_START,)) + INTERIOR

#: Landing claim of a fall-through that leaves the section.
PAST_END = -1

#: Flows whose fall-through is exempt from the fall-through rules: a
#: noreturn callee legitimately leaves data after its call site, and a
#: trap (int3) never proceeds.
EXEMPT_FLOWS = (FlowKind.CALL, FlowKind.ICALL, FlowKind.TRAP)


@dataclass
class LintContext:
    """One disassembly claim plus the derived views the rules consume."""

    result: DisassemblyResult
    superset: Superset
    text: bytes
    #: Optional container-metadata hints (ELF/PE residual structure);
    #: None when linting a native container or raw bytes.  Hints are
    #: advisory -- rules consuming them must stay at INFO severity,
    #: since real metadata is occasionally wrong.
    hints: FormatHints | None = None
    #: Virtual address of the text section, for converting hint
    #: addresses (absolute) to text offsets.
    text_addr: int = 0
    #: Optional region facts exported by the correction engine
    #: (:class:`~repro.core.engine.facts.FactExport`): why each byte
    #: range holds its classification.  None when linting a bare claim
    #: (raw JSON, foreign tool); the ``rule-disagreement`` rule then
    #: stays silent.
    facts: object | None = None

    @classmethod
    def build(cls, result: DisassemblyResult, superset: Superset, *,
              hints: FormatHints | None = None,
              text_addr: int = 0, facts: object | None = None
              ) -> LintContext:
        return cls(result=result, superset=superset, text=superset.text,
                   hints=hints, text_addr=text_addr, facts=facts)

    @cached_property
    def hint_function_starts(self) -> list[int]:
        """Hinted function-start offsets that land inside the text."""
        if self.hints is None:
            return []
        starts = [start for start, _ in
                  self.hints.text_ranges(self.text_addr, len(self.text))]
        for address in self.hints.entry_candidates:
            offset = address - self.text_addr
            if 0 <= offset < len(self.text):
                starts.append(offset)
        return sorted(set(starts))

    # ------------------------------------------------------------------
    # Per-byte claims
    # ------------------------------------------------------------------

    @cached_property
    def claims(self) -> bytearray:
        """Per-byte :class:`ByteClaim` values.

        Data claims are written first so that a (bogus) overlap between
        an accepted instruction and a data region surfaces as code bytes
        for the cross-reference rules; the dedicated overlap rule
        reports the conflict itself from the raw result.  Later
        instructions in result order overwrite earlier ones.
        """
        size = len(self.text)
        claims = bytearray(size)
        for start, end in self.result.data_regions:
            start, end = max(start, 0), min(end, size)
            if start < end:
                claims[start:end] = DATA * (end - start)
        for start, length in self.result.instructions.items():
            if not 0 <= start < size:
                continue
            claims[start] = ByteClaim.CODE_START
            end = min(start + length, size)
            if end > start + 1:
                claims[start + 1:end] = INTERIOR * (end - start - 1)
        return claims

    def claim_at(self, offset: int) -> int:
        """The :class:`ByteClaim` value of one byte (UNCLAIMED outside)."""
        if 0 <= offset < len(self.claims):
            return self.claims[offset]
        return ByteClaim.UNCLAIMED

    def is_accepted_start(self, offset: int) -> bool:
        return self.claim_at(offset) == ByteClaim.CODE_START

    def is_data(self, offset: int) -> bool:
        return self.claim_at(offset) == ByteClaim.DATA

    def only(self, start: int, end: int, claims: bytes) -> bool:
        """Every byte of ``[start, end)`` (``start >= 0``) holds one of
        ``claims``, e.g. :data:`CODE`; vacuously true when empty."""
        return not self.claims[start:end].translate(None, claims)

    @cached_property
    def covering_start(self) -> list[int | None]:
        """Per byte: the accepted start covering it (the last in result
        order), or None."""
        size = len(self.text)
        covering: list[int | None] = [None] * size
        for start, length in self.result.instructions.items():
            lo, hi = max(start, 0), min(start + length, size)
            if lo < hi:
                covering[lo:hi] = [start] * (hi - lo)
        return covering

    def data_region_at(self, offset: int) -> tuple[int, int]:
        """The last claimed data region holding ``offset`` (a one-byte
        region when none does)."""
        for start, end in reversed(self.result.data_regions):
            if max(start, 0) <= offset < end:
                return start, end
        return offset, offset + 1

    # ------------------------------------------------------------------
    # Accepted instructions
    # ------------------------------------------------------------------

    @cached_property
    def sorted_starts(self) -> list[int]:
        return sorted(self.result.instructions)

    @cached_property
    def cfg(self) -> ControlFlowGraph:
        """The accepted starts that decode, as columns and blocks."""
        return build_cfg(self.superset, self.result.instructions)

    @cached_property
    def branch_sites(self) -> list[tuple[int, Instruction, int]]:
        """(site, instruction, target) for accepted direct jumps/calls."""
        cfg = self.cfg
        sites = cfg.starts[cfg.branches].tolist()
        return list(zip(sites, map(self.superset.at, sites),
                        cfg.targets[cfg.branches].tolist()))

    @cached_property
    def referenced_targets(self) -> set[int]:
        """Offsets referenced by accepted code or claimed structure.

        Union of direct branch/call targets, RIP-relative references,
        claimed function entries, and the targets of pointer-table
        candidates found in claimed data bytes.  Used by the orphan rule
        as "has any incoming reference".
        """
        cfg = self.cfg
        referenced = set(cfg.targets[cfg.branches].tolist())
        referenced.update(cfg.rips[cfg.has_rip].tolist())
        referenced |= self.result.function_entries
        for table in self.data_table_candidates:
            referenced.update(table.targets)
        return referenced

    @cached_property
    def fallthroughs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, landings, claims)`` of the accepted instructions
        that fall through, except :data:`EXEMPT_FLOWS`; ``claims`` holds
        each landing byte's claim, or :data:`PAST_END`."""
        cfg = self.cfg
        checked = cfg.falls & ~flow_in(cfg.flows, EXEMPT_FLOWS)
        landings = cfg.ends[checked]
        inside = landings < len(self.text)
        claims = np.full(len(landings), PAST_END, np.int16)
        claims[inside] = np.frombuffer(self.claims,
                                       np.uint8)[landings[inside]]
        return cfg.starts[checked], landings, claims

    # ------------------------------------------------------------------
    # Structural shapes of the raw bytes
    # ------------------------------------------------------------------

    @cached_property
    def padding_runs(self) -> list[tuple[int, int]]:
        return find_padding_runs(self.text, min_length=4,
                                 padding_bytes=(0xCC, 0x00, 0x90))

    @cached_property
    def data_table_candidates(self) -> list[TableCandidate]:
        """Table candidates lying (mostly) in claimed data bytes."""
        claims = self.claims
        return [table for table in self.superset.table_candidates
                if 2 * claims.count(DATA, table.start, table.end)
                >= table.end - table.start]
