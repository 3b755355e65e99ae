"""Built-in oracle-free invariant rules.

Each rule checks one structural property that a *correct* disassembly
of a conventionally compiled binary must satisfy -- no ground truth is
consulted.  ERROR-severity rules are sound by design: on a perfect
disassembly they stay silent (the property-test suite enforces this on
the synthetic corpus); WARNING/INFO rules are heuristics with known
benign triggers.

The battery follows the invariant catalog of the binary-only
error-detection literature (Wijayadi et al.; Pang et al.'s SoK): branch
targets must land on instruction starts, code must not overlap data,
fall-through must not run into data, tables must target code, and
data-shaped byte runs (NUL-terminated strings, aligned pointer arrays)
must not be claimed as instructions.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..analysis.idioms import prologue_score
from ..isa.opcodes import FlowKind
from ..stats.scoring import terminated_ascii_runs
from .context import CODE, DATA, PAST_END, ByteClaim, LintContext
from .diagnostics import Diagnostic, Severity
from .registry import DEFAULT_REGISTRY as R

#: Minimum NUL-terminated printable run treated as a definite string.
MIN_STRING_RUN = 8

#: Minimum int3 run whose acceptance as code is suspicious.
MIN_INT3_RUN = 4

#: Minimum padding run surfaced by the informational padding rule.
MIN_PADDING_RUN = 8

#: Fall-through chain probed past an unaccepted call target.
CALL_PROBE_DEPTH = 4


# ----------------------------------------------------------------------
# Self-consistency of the accepted instruction set
# ----------------------------------------------------------------------

@R.register("undecodable-instruction", Severity.ERROR,
            "accepted instruction does not decode at its claimed length")
def check_undecodable(ctx: LintContext,
                     severity: Severity) -> Iterator[Diagnostic]:
    superset = ctx.superset
    decoded = superset.views.length
    for start in ctx.sorted_starts:
        length = ctx.result.instructions[start]
        if not superset.is_valid(start):
            yield Diagnostic(
                "undecodable-instruction", severity, start, start + length,
                f"accepted instruction at {start:#x} does not decode",
                suggestion="data")
        elif decoded[start] != length:
            yield Diagnostic(
                "undecodable-instruction", severity, start, start + length,
                f"accepted instruction at {start:#x} claims {length} bytes "
                f"but decodes to {decoded[start]}")


@R.register("instruction-overlap", Severity.ERROR,
            "two accepted instructions overlap")
def check_overlap(ctx: LintContext,
                  severity: Severity) -> Iterator[Diagnostic]:
    previous_start = previous_end = -1
    for start in ctx.sorted_starts:
        if start < previous_end:
            yield Diagnostic(
                "instruction-overlap", severity, start, previous_end,
                f"accepted instruction at {start:#x} starts inside the "
                f"accepted instruction at {previous_start:#x}")
        end = start + ctx.result.instructions[start]
        if end > previous_end:
            previous_start, previous_end = start, end


@R.register("code-data-overlap", Severity.ERROR,
            "byte range claimed as both code and data")
def check_code_data_overlap(ctx: LintContext,
                            severity: Severity) -> Iterator[Diagnostic]:
    covering = ctx.covering_start
    for region_start, region_end in ctx.result.data_regions:
        overlap = [i for i in range(max(region_start, 0),
                                    min(region_end, len(ctx.text)))
                   if covering[i] is not None]
        if overlap:
            yield Diagnostic(
                "code-data-overlap", severity, overlap[0], overlap[-1] + 1,
                f"data region {region_start:#x}-{region_end:#x} overlaps "
                f"{len(overlap)} bytes of accepted instructions")


@R.register("function-entry-not-code", Severity.ERROR,
            "claimed function entry is not an accepted instruction start")
def check_function_entries(ctx: LintContext,
                           severity: Severity) -> Iterator[Diagnostic]:
    for entry in sorted(ctx.result.function_entries):
        if not 0 <= entry < len(ctx.text):
            continue
        if not ctx.is_accepted_start(entry):
            yield Diagnostic(
                "function-entry-not-code", severity, entry, entry + 1,
                f"function entry {entry:#x} is not an accepted "
                f"instruction start", suggestion="code")


# ----------------------------------------------------------------------
# Control-flow cross-references
# ----------------------------------------------------------------------

@R.register("branch-into-instruction", Severity.ERROR,
            "direct branch/call target lands inside an accepted "
            "instruction")
def check_branch_into_instruction(ctx: LintContext,
                                  severity: Severity) -> Iterator[Diagnostic]:
    covering = ctx.covering_start
    for site, ins, target in ctx.branch_sites:
        if not 0 <= target < len(ctx.text):
            continue
        start = covering[target]
        if start is not None and start != target:
            yield Diagnostic(
                "branch-into-instruction", severity, target, target + 1,
                f"{ins.display_mnemonic} at {site:#x} targets {target:#x}, "
                f"inside the accepted instruction at {start:#x}")


@R.register("branch-into-data", Severity.ERROR,
            "direct branch/call target lands in a claimed data region")
def check_branch_into_data(ctx: LintContext,
                           severity: Severity) -> Iterator[Diagnostic]:
    for site, ins, target in ctx.branch_sites:
        if not 0 <= target < len(ctx.text):
            continue
        if ctx.is_data(target):
            region = ctx.data_region_at(target)
            yield Diagnostic(
                "branch-into-data", severity, target, target + 1,
                f"{ins.display_mnemonic} at {site:#x} targets {target:#x}, "
                f"inside the data region {region[0]:#x}-{region[1]:#x}",
                suggestion="code")


@R.register("dangling-fallthrough", Severity.ERROR,
            "accepted instruction falls through into data or into the "
            "middle of another instruction")
def check_dangling_fallthrough(ctx: LintContext,
                               severity: Severity) -> Iterator[Diagnostic]:
    starts, landings, claims = ctx.fallthroughs
    hits = np.isin(claims, (PAST_END, ByteClaim.DATA,
                            ByteClaim.CODE_INTERIOR))
    for start, landing, claim in zip(starts[hits].tolist(),
                                     landings[hits].tolist(),
                                     claims[hits].tolist()):
        if claim == PAST_END:
            yield Diagnostic(
                "dangling-fallthrough", severity, start, len(ctx.text),
                f"instruction at {start:#x} falls through past the end "
                f"of the section")
        elif claim == ByteClaim.DATA:
            region = ctx.data_region_at(landing)
            yield Diagnostic(
                "dangling-fallthrough", severity, start, landing + 1,
                f"instruction at {start:#x} falls through into the data "
                f"region {region[0]:#x}-{region[1]:#x} with no "
                f"intervening terminator")
        else:
            covering = ctx.covering_start[landing]
            yield Diagnostic(
                "dangling-fallthrough", severity, start, landing + 1,
                f"instruction at {start:#x} falls through into the "
                f"middle of the accepted instruction at {covering:#x}")


@R.register("fallthrough-unclaimed", Severity.WARNING,
            "accepted instruction falls through into unclaimed bytes")
def check_fallthrough_unclaimed(ctx: LintContext,
                                severity: Severity) -> Iterator[Diagnostic]:
    starts, landings, claims = ctx.fallthroughs
    hits = claims == ByteClaim.UNCLAIMED
    for start, landing in zip(starts[hits].tolist(),
                              landings[hits].tolist()):
        yield Diagnostic(
            "fallthrough-unclaimed", severity, start, landing + 1,
            f"instruction at {start:#x} falls through into bytes "
            f"claimed neither code nor data")


# ----------------------------------------------------------------------
# Call-target plausibility
# ----------------------------------------------------------------------

@R.register("call-target-garbage", Severity.ERROR,
            "direct call target does not decode to a plausible opening")
def check_call_target_garbage(ctx: LintContext,
                              severity: Severity) -> Iterator[Diagnostic]:
    for site, ins, target in ctx.branch_sites:
        if ins.flow is not FlowKind.CALL:
            continue
        if not 0 <= target < len(ctx.text):
            continue
        if ctx.claim_at(target) != ByteClaim.UNCLAIMED:
            continue     # accepted / data / interior handled elsewhere
        if ctx.superset.at(target) is None:
            yield Diagnostic(
                "call-target-garbage", severity, target, target + 1,
                f"call at {site:#x} targets {target:#x}, which does not "
                f"decode to any instruction")
            continue
        chain = ctx.superset.fallthrough_chain(target, CALL_PROBE_DEPTH)
        last = chain[-1]
        if len(chain) < CALL_PROBE_DEPTH and last.falls_through \
                and last.flow is not FlowKind.TRAP \
                and last.end < len(ctx.text):
            yield Diagnostic(
                "call-target-garbage", severity, target, last.end,
                f"call at {site:#x} targets {target:#x}, whose "
                f"instruction chain hits undecodable bytes after "
                f"{len(chain)} instructions")


@R.register("call-target-non-prologue", Severity.WARNING,
            "unaccepted direct call target does not look like a "
            "function opening")
def check_call_target_non_prologue(ctx: LintContext,
                                   severity: Severity
                                   ) -> Iterator[Diagnostic]:
    for site, ins, target in ctx.branch_sites:
        if ins.flow is not FlowKind.CALL:
            continue
        if not 0 <= target < len(ctx.text):
            continue
        if ctx.claim_at(target) != ByteClaim.UNCLAIMED:
            continue
        if ctx.superset.at(target) is None:
            continue     # call-target-garbage reports it
        if prologue_score(ctx.superset, target) == 0:
            yield Diagnostic(
                "call-target-non-prologue", severity, target, target + 1,
                f"call at {site:#x} targets unaccepted {target:#x}, "
                f"which does not open like a function",
                suggestion="code")


# ----------------------------------------------------------------------
# Table shape consistency
# ----------------------------------------------------------------------

@R.register("jump-table-target-misaligned", Severity.ERROR,
            "jump-table entry does not target an accepted instruction "
            "start")
def check_table_targets(ctx: LintContext,
                        severity: Severity) -> Iterator[Diagnostic]:
    for table in ctx.data_table_candidates:
        good = [i for i, t in enumerate(table.targets)
                if ctx.is_accepted_start(t)]
        if not good:
            continue     # probably a misdetected literal pool, not a table
        # Entries past the last code-targeting one are detector
        # over-extension into neighboring bytes, not table entries.
        for index, target in enumerate(table.targets[:good[-1]]):
            if ctx.is_accepted_start(target):
                continue
            entry = table.start + index * table.entry_size
            yield Diagnostic(
                "jump-table-target-misaligned", severity, entry,
                entry + table.entry_size,
                f"table {table.start:#x}-{table.end:#x} entry {index} "
                f"targets {target:#x}, not an accepted instruction start")


# ----------------------------------------------------------------------
# Data-shaped byte runs accepted as code
# ----------------------------------------------------------------------

@R.register("string-as-code", Severity.ERROR,
            "NUL-terminated ASCII run fully accepted as instructions")
def check_string_as_code(ctx: LintContext,
                         severity: Severity) -> Iterator[Diagnostic]:
    for run in terminated_ascii_runs(ctx.text):
        if run.length >= MIN_STRING_RUN \
                and ctx.only(run.start, run.end, CODE):
            yield Diagnostic(
                "string-as-code", severity, run.start, run.end,
                f"{run.length}-byte NUL-terminated ASCII run at "
                f"{run.start:#x} is fully accepted as instructions",
                suggestion="data")


@R.register("pointer-run-as-code", Severity.ERROR,
            "aligned pointer-array run fully accepted as instructions")
def check_pointer_run_as_code(ctx: LintContext,
                              severity: Severity) -> Iterator[Diagnostic]:
    for table in ctx.superset.table_candidates:
        if min(table.end, len(ctx.text)) - table.start >= 12 \
                and ctx.only(table.start, table.end, CODE):
            yield Diagnostic(
                "pointer-run-as-code", severity, table.start, table.end,
                f"{table.entry_count}-entry pointer run at "
                f"{table.start:#x} ({table.entry_size}-byte entries, all "
                f"targeting this section) is fully accepted as "
                f"instructions", suggestion="data")


# ----------------------------------------------------------------------
# Reachability
# ----------------------------------------------------------------------

@R.register("orphan-code", Severity.WARNING,
            "accepted code with no incoming reference")
def check_orphan_code(ctx: LintContext,
                      severity: Severity) -> Iterator[Diagnostic]:
    cfg = ctx.cfg
    starts = cfg.starts
    referenced = ctx.referenced_targets
    for index in np.flatnonzero(cfg.leaders & ~cfg.entered
                                & (starts != 0)).tolist():
        start = int(starts[index])
        if start in referenced:
            continue
        end = int(cfg.ends[cfg.walk(index)[-1]])
        yield Diagnostic(
            "orphan-code", severity, start, end,
            f"accepted block {start:#x}-{end:#x} has no "
            f"incoming branch, fall-through, table entry, or claimed "
            f"function entry", suggestion="data")


# ----------------------------------------------------------------------
# Padding conventions
# ----------------------------------------------------------------------

@R.register("padding-as-code", Severity.WARNING,
            "int3 padding run accepted as instructions")
def check_padding_as_code(ctx: LintContext,
                         severity: Severity) -> Iterator[Diagnostic]:
    for start, end in ctx.padding_runs:
        if end - start >= MIN_INT3_RUN and ctx.text[start] == 0xCC \
                and ctx.only(start, end, CODE):
            yield Diagnostic(
                "padding-as-code", severity, start, end,
                f"{end - start}-byte int3 padding run at {start:#x} is "
                f"accepted as instructions", suggestion="data")


@R.register("padding-as-data", Severity.INFO,
            "inter-function padding run claimed as data")
def check_padding_as_data(ctx: LintContext,
                         severity: Severity) -> Iterator[Diagnostic]:
    for start, end in ctx.padding_runs:
        if end - start >= MIN_PADDING_RUN and ctx.only(start, end, DATA):
            yield Diagnostic(
                "padding-as-data", severity, start, end,
                f"{end - start}-byte padding run at {start:#x} is "
                f"claimed as data (conventionally neutral)")


# ----------------------------------------------------------------------
# Container-metadata cross-checks (only when the loader supplied hints)
# ----------------------------------------------------------------------

@R.register("hint-disagreement", Severity.INFO,
            "container metadata contradicts the claimed classification")
def check_hint_disagreement(ctx: LintContext,
                            severity: Severity) -> Iterator[Diagnostic]:
    """Residual ELF/PE metadata vs the metadata-free claim.

    When a real container was ingested, its unwind/exception metadata
    (PE ``RUNTIME_FUNCTION`` ranges, ELF ``DT_INIT``/``DT_FINI``)
    names offsets that *should* be function code.  A claim marking
    such an offset as data -- or not starting an instruction there --
    disagrees with the compiler's own records.  Metadata is advisory
    (and occasionally wrong in the wild), so this stays INFO: it
    annotates, it never fails a build.
    """
    if ctx.hints is None or ctx.hints.empty:
        return
    for offset in ctx.hint_function_starts:
        claim = ctx.claim_at(offset)
        if claim == ByteClaim.CODE_START:
            continue
        what = {ByteClaim.DATA: "claimed as data",
                ByteClaim.CODE_INTERIOR: "inside another instruction",
                ByteClaim.UNCLAIMED: "left unclaimed"}[claim]
        yield Diagnostic(
            "hint-disagreement", severity, offset, offset + 1,
            f"{ctx.hints.format} metadata marks {offset:#x} as a "
            f"function start but it is {what}", suggestion="code")


# ----------------------------------------------------------------------
# Correction-engine cross-checks (only when the fact store is supplied)
# ----------------------------------------------------------------------

@R.register("rule-disagreement", Severity.INFO,
            "correction rules of comparable strength disagreed over a "
            "byte range")
def check_rule_disagreement(ctx: LintContext,
                            severity: Severity) -> Iterator[Diagnostic]:
    """Contested classifications inside the correction fixpoint.

    The fact engine exports one :class:`RegionFact` per mark-code /
    mark-data projection.  A lower-priority fact overwritten by a
    higher-priority one is the priority lattice working as designed and
    stays silent; a fact overwritten by an *equal-or-weaker* one with
    the opposite label means two rules of comparable strength genuinely
    disagreed about the bytes -- exactly the regions worth a second
    look.  Requires the producing run's fact store
    (``lint_disassembly(..., facts=...)``); silent without it.
    """
    if ctx.facts is None:
        return
    seen: set[tuple] = set()
    for fact in ctx.facts:
        winner = ctx.facts.classifier_of(fact.start, fact.end)
        if winner is None or winner is fact:
            continue
        if winner.label == fact.label or fact.priority < winner.priority:
            continue
        lo = max(fact.start, winner.start)
        hi = min(fact.end, winner.end)
        key = (lo, hi, fact.rule, winner.rule)
        if key in seen:
            continue
        seen.add(key)
        yield Diagnostic(
            "rule-disagreement", severity, lo, hi,
            f"rule {fact.rule} marked [{lo:#x}, {hi:#x}) as "
            f"{fact.label} ({fact.priority.name}) but {winner.rule} "
            f"finally marked it {winner.label} "
            f"({winner.priority.name})", suggestion=winner.label)
