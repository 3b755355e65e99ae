"""Per-byte, per-instruction reference for :mod:`repro.lint`.

These are the straightforward bodies that the lint context's column,
slice and memoised-scan views replaced: a per-byte dict or enum for
every view, a property read per instruction, and a basic-block graph
for the orphan rule.  They exist only so the tests can check the
whole-section passes against them.  :func:`oracle_report` runs the
default battery over :class:`OracleContext`, substituting the reference
body of every rule whose body the rewrite changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.isa.instruction import Instruction
from repro.isa.opcodes import FlowKind
from repro.lint import DEFAULT_REGISTRY, LintReport
from repro.lint.context import ByteClaim
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import Linter
from repro.lint.registry import RuleRegistry
from repro.lint.rules import (MIN_INT3_RUN, MIN_PADDING_RUN,
                              MIN_STRING_RUN)
from repro.stats.datamodel import (AsciiRun, TableCandidate,
                                   find_jump_tables)


def ascii_runs(text: bytes, *, min_length: int = 6) -> list[AsciiRun]:
    runs = []
    start = None
    for i, byte in enumerate(text):
        printable = 0x20 <= byte < 0x7F or byte in (0x09, 0x0A, 0x0D)
        if printable and start is None:
            start = i
        elif not printable and start is not None:
            terminated = byte == 0
            end = i + 1 if terminated else i
            if end - start >= min_length:
                runs.append(AsciiRun(start, end, terminated=terminated))
            start = None
    if start is not None and len(text) - start >= min_length:
        runs.append(AsciiRun(start, len(text)))
    return runs


def padding_runs(text: bytes, *, min_length: int = 2,
                 padding_bytes: tuple[int, ...] = (0xCC, 0x00)
                 ) -> list[tuple[int, int]]:
    runs = []
    start = None
    current = None
    for i, byte in enumerate(text):
        if byte in padding_bytes:
            if start is None or byte != current:
                if start is not None and i - start >= min_length:
                    runs.append((start, i))
                start = i
                current = byte
        else:
            if start is not None and i - start >= min_length:
                runs.append((start, i))
            start = None
            current = None
    if start is not None and len(text) - start >= min_length:
        runs.append((start, len(text)))
    return runs


def blocks_and_predecessors(superset, accepted: set[int]
                            ) -> tuple[dict[int, list[Instruction]],
                                       dict[int, set[int]]]:
    """Basic blocks (start -> instructions) of the decodable accepted
    starts, and each block's predecessor block starts."""
    instructions = {o: superset.at(o) for o in accepted
                    if superset.at(o) is not None}
    leaders: set[int] = set()
    has_fallthrough_pred: set[int] = set()
    for offset, ins in instructions.items():
        if ins.is_direct_branch:
            target = ins.branch_target
            if target in instructions:
                leaders.add(target)
        if ins.flow in (FlowKind.JUMP, FlowKind.CJUMP, FlowKind.IJUMP,
                        FlowKind.RET, FlowKind.HALT):
            if ins.end in instructions:
                leaders.add(ins.end)
        elif ins.falls_through and ins.end in instructions:
            has_fallthrough_pred.add(ins.end)
    for offset in instructions:
        if offset not in has_fallthrough_pred:
            leaders.add(offset)

    blocks: dict[int, list[Instruction]] = {}
    for leader in sorted(leaders):
        block = []
        current = leader
        while current in instructions:
            ins = instructions[current]
            block.append(ins)
            if (not ins.falls_through or ins.end in leaders
                    or ins.end not in instructions):
                break
            current = ins.end
        if block:
            blocks[leader] = block

    predecessors: dict[int, set[int]] = {start: set() for start in blocks}
    for start, block in blocks.items():
        terminator = block[-1]
        if terminator.falls_through and terminator.end in blocks:
            predecessors[terminator.end].add(start)
        if terminator.flow in (FlowKind.JUMP, FlowKind.CJUMP):
            target = terminator.branch_target
            if target in blocks:
                predecessors[target].add(start)
    return blocks, predecessors


@dataclass
class OracleContext:
    """The lint context's views, one byte and one instruction at a time."""

    result: object
    superset: object
    text: bytes
    hints: object = None
    text_addr: int = 0
    facts: object = None

    @cached_property
    def hint_function_starts(self) -> list[int]:
        if self.hints is None:
            return []
        starts = [start for start, _ in
                  self.hints.text_ranges(self.text_addr, len(self.text))]
        for address in self.hints.entry_candidates:
            offset = address - self.text_addr
            if 0 <= offset < len(self.text):
                starts.append(offset)
        return sorted(set(starts))

    @cached_property
    def claims(self) -> bytearray:
        claims = bytearray(len(self.text))
        for start, end in self.result.data_regions:
            for i in range(max(start, 0), min(end, len(claims))):
                claims[i] = ByteClaim.DATA
        for start, length in self.result.instructions.items():
            if not 0 <= start < len(claims):
                continue
            claims[start] = ByteClaim.CODE_START
            for i in range(start + 1, min(start + length, len(claims))):
                claims[i] = ByteClaim.CODE_INTERIOR
        return claims

    def claim_at(self, offset: int) -> ByteClaim:
        if 0 <= offset < len(self.claims):
            return ByteClaim(self.claims[offset])
        return ByteClaim.UNCLAIMED

    def is_accepted_start(self, offset: int) -> bool:
        return self.claim_at(offset) == ByteClaim.CODE_START

    def is_data(self, offset: int) -> bool:
        return self.claim_at(offset) == ByteClaim.DATA

    @cached_property
    def sorted_starts(self) -> list[int]:
        return sorted(self.result.instructions)

    @cached_property
    def accepted(self) -> dict[int, Instruction]:
        accepted = {}
        for start in self.sorted_starts:
            instruction = self.superset.at(start)
            if instruction is not None:
                accepted[start] = instruction
        return accepted

    @cached_property
    def covering_start(self) -> dict[int, int]:
        covering = {}
        for start, length in self.result.instructions.items():
            for i in range(start, min(start + length, len(self.text))):
                covering[i] = start
        return covering

    @cached_property
    def data_region_at(self) -> dict[int, tuple[int, int]]:
        regions = {}
        for start, end in self.result.data_regions:
            for i in range(max(start, 0), min(end, len(self.text))):
                regions[i] = (start, end)
        return regions

    @cached_property
    def branch_sites(self) -> list[tuple[int, Instruction, int]]:
        sites = []
        for start, ins in self.accepted.items():
            if not ins.is_direct_branch:
                continue
            target = ins.branch_target
            if target is not None:
                sites.append((start, ins, target))
        return sites

    @cached_property
    def referenced_targets(self) -> set[int]:
        referenced: set[int] = set()
        for _, _, target in self.branch_sites:
            referenced.add(target)
        for start, ins in self.accepted.items():
            rip_target = ins.rip_target
            if rip_target is not None:
                referenced.add(rip_target)
        referenced |= self.result.function_entries
        for table in self.data_table_candidates:
            referenced.update(table.targets)
        return referenced

    @cached_property
    def ascii_runs(self) -> list[AsciiRun]:
        return ascii_runs(self.text)

    @cached_property
    def padding_runs(self) -> list[tuple[int, int]]:
        return padding_runs(self.text, min_length=4,
                            padding_bytes=(0xCC, 0x00, 0x90))

    @cached_property
    def table_candidates(self) -> list[TableCandidate]:
        return find_jump_tables(self.text,
                                is_plausible_target=self.superset.is_valid)

    @cached_property
    def data_table_candidates(self) -> list[TableCandidate]:
        chosen = []
        for table in self.table_candidates:
            span = range(table.start, table.end)
            data = sum(1 for i in span if self.is_data(i))
            if 2 * data >= len(span):
                chosen.append(table)
        return chosen

    @cached_property
    def cfg(self) -> tuple[dict, dict]:
        return blocks_and_predecessors(self.superset, set(self.accepted))

    @staticmethod
    def stops_execution(ins: Instruction) -> bool:
        return (not ins.falls_through
                or ins.flow in (FlowKind.CALL, FlowKind.ICALL,
                                FlowKind.TRAP))


# ----------------------------------------------------------------------
# Reference bodies of the rules the rewrite changed
# ----------------------------------------------------------------------

def check_code_data_overlap(ctx, severity):
    covering = ctx.covering_start
    for region_start, region_end in ctx.result.data_regions:
        overlap = [i for i in range(max(region_start, 0),
                                    min(region_end, len(ctx.text)))
                   if i in covering]
        if overlap:
            yield Diagnostic(
                "code-data-overlap", severity, overlap[0], overlap[-1] + 1,
                f"data region {region_start:#x}-{region_end:#x} overlaps "
                f"{len(overlap)} bytes of accepted instructions")


def check_branch_into_instruction(ctx, severity):
    covering = ctx.covering_start
    for site, ins, target in ctx.branch_sites:
        if not 0 <= target < len(ctx.text):
            continue
        start = covering.get(target)
        if start is not None and start != target:
            yield Diagnostic(
                "branch-into-instruction", severity, target, target + 1,
                f"{ins.display_mnemonic} at {site:#x} targets {target:#x}, "
                f"inside the accepted instruction at {start:#x}")


def check_branch_into_data(ctx, severity):
    for site, ins, target in ctx.branch_sites:
        if not 0 <= target < len(ctx.text):
            continue
        if ctx.is_data(target):
            region = ctx.data_region_at.get(target, (target, target + 1))
            yield Diagnostic(
                "branch-into-data", severity, target, target + 1,
                f"{ins.display_mnemonic} at {site:#x} targets {target:#x}, "
                f"inside the data region {region[0]:#x}-{region[1]:#x}",
                suggestion="code")


def check_dangling_fallthrough(ctx, severity):
    for start, ins in ctx.accepted.items():
        if ctx.stops_execution(ins):
            continue
        landing = ins.end
        if landing >= len(ctx.text):
            yield Diagnostic(
                "dangling-fallthrough", severity, start, len(ctx.text),
                f"instruction at {start:#x} falls through past the end "
                f"of the section")
            continue
        claim = ctx.claim_at(landing)
        if claim == ByteClaim.DATA:
            region = ctx.data_region_at.get(landing,
                                            (landing, landing + 1))
            yield Diagnostic(
                "dangling-fallthrough", severity, start, landing + 1,
                f"instruction at {start:#x} falls through into the data "
                f"region {region[0]:#x}-{region[1]:#x} with no "
                f"intervening terminator")
        elif claim == ByteClaim.CODE_INTERIOR:
            covering = ctx.covering_start.get(landing, landing)
            yield Diagnostic(
                "dangling-fallthrough", severity, start, landing + 1,
                f"instruction at {start:#x} falls through into the "
                f"middle of the accepted instruction at {covering:#x}")


def check_fallthrough_unclaimed(ctx, severity):
    for start, ins in ctx.accepted.items():
        if ctx.stops_execution(ins):
            continue
        landing = ins.end
        if landing < len(ctx.text) \
                and ctx.claim_at(landing) == ByteClaim.UNCLAIMED:
            yield Diagnostic(
                "fallthrough-unclaimed", severity, start, landing + 1,
                f"instruction at {start:#x} falls through into bytes "
                f"claimed neither code nor data")


def check_string_as_code(ctx, severity):
    for run in ctx.ascii_runs:
        if not run.terminated or run.length < MIN_STRING_RUN:
            continue
        span = range(run.start, min(run.end, len(ctx.text)))
        if all(ctx.claim_at(i) in (ByteClaim.CODE_START,
                                   ByteClaim.CODE_INTERIOR)
               for i in span):
            yield Diagnostic(
                "string-as-code", severity, run.start, run.end,
                f"{run.length}-byte NUL-terminated ASCII run at "
                f"{run.start:#x} is fully accepted as instructions",
                suggestion="data")


def check_pointer_run_as_code(ctx, severity):
    for table in ctx.table_candidates:
        span = range(table.start, min(table.end, len(ctx.text)))
        if len(span) < 12:
            continue
        if all(ctx.claim_at(i) in (ByteClaim.CODE_START,
                                   ByteClaim.CODE_INTERIOR)
               for i in span):
            yield Diagnostic(
                "pointer-run-as-code", severity, table.start, table.end,
                f"{table.entry_count}-entry pointer run at "
                f"{table.start:#x} ({table.entry_size}-byte entries, all "
                f"targeting this section) is fully accepted as "
                f"instructions", suggestion="data")


def check_orphan_code(ctx, severity):
    blocks, predecessors = ctx.cfg
    referenced = ctx.referenced_targets
    for block_start in sorted(blocks):
        if block_start == 0:
            continue
        if predecessors[block_start]:
            continue
        if block_start in referenced:
            continue
        end = blocks[block_start][-1].end
        yield Diagnostic(
            "orphan-code", severity, block_start, end,
            f"accepted block {block_start:#x}-{end:#x} has no "
            f"incoming branch, fall-through, table entry, or claimed "
            f"function entry", suggestion="data")


def check_padding_as_code(ctx, severity):
    for start, end in ctx.padding_runs:
        if end - start < MIN_INT3_RUN or ctx.text[start] != 0xCC:
            continue
        span = range(start, min(end, len(ctx.text)))
        accepted = sum(1 for i in span
                       if ctx.claim_at(i) in (ByteClaim.CODE_START,
                                              ByteClaim.CODE_INTERIOR))
        if accepted == len(span):
            yield Diagnostic(
                "padding-as-code", severity, start, end,
                f"{end - start}-byte int3 padding run at {start:#x} is "
                f"accepted as instructions", suggestion="data")


def check_padding_as_data(ctx, severity):
    for start, end in ctx.padding_runs:
        if end - start < MIN_PADDING_RUN:
            continue
        span = range(start, min(end, len(ctx.text)))
        if all(ctx.is_data(i) for i in span):
            yield Diagnostic(
                "padding-as-data", severity, start, end,
                f"{end - start}-byte padding run at {start:#x} is "
                f"claimed as data (conventionally neutral)")


ORACLE_RULES = {
    "code-data-overlap": check_code_data_overlap,
    "branch-into-instruction": check_branch_into_instruction,
    "branch-into-data": check_branch_into_data,
    "dangling-fallthrough": check_dangling_fallthrough,
    "fallthrough-unclaimed": check_fallthrough_unclaimed,
    "string-as-code": check_string_as_code,
    "pointer-run-as-code": check_pointer_run_as_code,
    "orphan-code": check_orphan_code,
    "padding-as-code": check_padding_as_code,
    "padding-as-data": check_padding_as_data,
}


def _oracle_registry() -> RuleRegistry:
    registry = RuleRegistry()
    for rule in DEFAULT_REGISTRY:
        registry.register(rule.id, rule.severity, rule.description)(
            ORACLE_RULES.get(rule.id, rule.check))
    return registry


ORACLE_REGISTRY = _oracle_registry()


def oracle_report(result, superset, *, hints=None, text_addr: int = 0,
                  facts=None, provenance=None) -> LintReport:
    """The default battery's report, computed by the reference views."""
    context = OracleContext(result=result, superset=superset,
                            text=superset.text, hints=hints,
                            text_addr=text_addr, facts=facts)
    return Linter(registry=ORACLE_REGISTRY).run(context,
                                                provenance=provenance)
