"""The correction rules of the declarative fact/rule engine.

Each correction pass is a :class:`Rule`.  The driver in
:mod:`repro.core.engine.driver` runs them in four strata, each run to
fixpoint before the next starts; set-valued rules consult the store's
per-relation version counters so they never re-derive from an
unchanged input set.

==  ==========================================================
0   ingestion -- detected tables become data plus target claims
    (``TableRule``); ``FactEngine.ingest`` pushes the entry-point
    and prologue claims itself
1   propagation -- claims are traced, dispatch tables retried,
    call continuations released (``TraceRule``, ``DataRule``,
    ``DispatchRetryRule``, ``CallContinuationRule``)
2   gap completion (``GapRule``, ``GapSealRule``)
3   residue realignment (``RealignRule``)
==  ==========================================================

Golden digests (``tests/engine/test_golden.py``) pin what the rules
produce: results and correction logs on the evaluation corpus, results
under every ablation config, one provenance event stream, one
lint-feedback run and one run's region facts.
"""

from __future__ import annotations

from ...analysis.idioms import FUNCTION_ALIGNMENT, prologue_score
from ...analysis.noreturn import compute_returning
from ...isa.columns import FLOW_CODES
from ...isa.opcodes import FlowKind
from ...obs.metrics import REGISTRY
from ...stats.datamodel import TableCandidate
from ..evidence import Classification, Priority
from ..tables import ResolvedTable, resolve_dispatch
from .facts import (CodeClaim, DataClaim, PendingCall, RegionFact,
                    TraceResult)

#: A trace hitting a contradiction within this many BFS steps of its
#: seed is refuted and rolled back (beyond it, only SOFT seeds stay
#: strict).
STRICT_DEPTH = 8

#: Maximum gap-completion rounds before everything left is sealed as
#: data.
GAP_ROUNDS = 25

#: Gap candidates whose behavioral score falls at or below this floor
#: are rejected outright, however code-like their bytes look
#: statistically ("behavioral properties of code to flag data").
BEHAVIOR_VETO = 0.0

#: Instruction budget of the clean-termination gate applied to soft gap
#: candidates.
CHAIN_LIMIT = 40

#: Largest soft-data residue the realignment pass will consider
#: converting back into code.
REALIGN_MAX_SIZE = 15

#: Flow codes of the superset's ``flow`` column that tracing branches on.
_CALL, _JUMP, _CJUMP, _IJUMP, _ICALL, _TRAP = (
    FLOW_CODES[kind] for kind in (FlowKind.CALL, FlowKind.JUMP,
                                  FlowKind.CJUMP, FlowKind.IJUMP,
                                  FlowKind.ICALL, FlowKind.TRAP))

#: Pipeline metrics, registered with the process-global registry on
#: import.
_TRACES = REGISTRY.counter(
    "repro_traces_total",
    "Control-flow traces processed by the correction engine, by outcome")
_RECLASSIFIED = REGISTRY.counter(
    "repro_bytes_reclassified_total",
    "Bytes whose existing classification a correction pass overwrote")
_GAP_CANDIDATES = REGISTRY.counter(
    "repro_gap_candidates_total",
    "Gap-completion code candidates, by screening outcome")


class Rule:
    """Base class: a named inference rule bound to one engine."""

    name = "rule"

    def __init__(self, engine) -> None:
        self.engine = engine


# ----------------------------------------------------------------------
# Ingestion
# ----------------------------------------------------------------------

class TableRule(Rule):
    """Detected table t => data over t's bytes, CodeClaim per target.

    Statistical detection is strong but not proof (a literal pool can
    mimic a table), so targets carry STRUCTURAL priority: traced code
    (ANCHOR) may override them.
    """

    name = "table"

    def fire(self, table: TableCandidate) -> None:
        engine = self.engine
        engine.state.mark_data(table.start, table.end, Priority.STRUCTURAL)
        engine.store.bump("state")
        engine.store.add_region(RegionFact(
            table.start, table.end, "data", Priority.STRUCTURAL,
            "jump-table", self.name))
        engine.log.append(f"table {table.start:#x}-{table.end:#x} "
                          f"({table.entry_size}-byte entries)")
        engine.note("mark-data", table.start, table.end,
                    source="jump-table", priority=Priority.STRUCTURAL,
                    detail=f"detected {table.entry_size}-byte-"
                           f"entry table with "
                           f"{len(table.targets)} targets")
        for target in sorted(set(table.targets)):
            engine.push_claim(CodeClaim(target, Priority.STRUCTURAL,
                                        1.0, "table-target"))


# ----------------------------------------------------------------------
# Propagation
# ----------------------------------------------------------------------

class DataRule(Rule):
    """DataClaim(r) + no stronger code over r => data over r."""

    name = "data-claim"

    def fire(self, claim: DataClaim) -> None:
        engine = self.engine
        if engine.state.can_mark_data(claim.start, claim.end,
                                      claim.priority):
            engine.state.mark_data(claim.start, claim.end, claim.priority)
            engine.store.bump("state")
            engine.store.add_region(RegionFact(
                claim.start, claim.end, "data", claim.priority,
                claim.source, self.name))
            engine.log.append(f"data {claim.start:#x}-{claim.end:#x}"
                              f" <- {claim.source}")
            engine.note("mark-data", claim.start, claim.end,
                        source=claim.source, priority=claim.priority,
                        detail=f"{claim.end - claim.start} bytes "
                               f"marked data")
        else:
            engine.log.append(f"rejected data {claim.start:#x} "
                              f"({claim.source}): stronger code there")
            engine.note("reject-data", claim.start, claim.end,
                        source=claim.source, priority=claim.priority,
                        detail="stronger code evidence already covers "
                               "the range")


class TraceRule(Rule):
    """CodeClaim(o) => instructions reachable from o, unless refuted.

    Follows fall-through and direct jumps, collects direct call targets
    as new ANCHOR claims, defers call continuations as PendingCall
    facts, and resolves dispatch tables along the way.  A trace that
    contradicts equal-or-stronger evidence near its seed is rolled back
    entirely (the error-correction heart of the paper).
    """

    name = "trace"

    def fire(self, claim: CodeClaim) -> None:
        engine = self.engine
        if engine.state.is_code_start(claim.offset):
            _TRACES.inc(outcome="joined")
            return
        result = self.derive(claim.offset, claim.priority, claim.source)
        if result.aborted:
            engine.log.append(f"aborted trace from {claim.offset:#x} "
                              f"({claim.source})")
            _TRACES.inc(outcome="refuted")
            if engine.provenance is not None:
                start, end = result.touched or (claim.offset,
                                                claim.offset + 1)
                derail = (result.derailed_at
                          if result.derailed_at is not None
                          else claim.offset)
                engine.note(
                    "refute-trace", start, end,
                    source=claim.source, priority=claim.priority,
                    detail=f"refuted {Priority(claim.priority).name} "
                           f"trace seeded at {claim.offset:#x} "
                           f"({claim.source} {claim.weight:.2f}): "
                           f"derailed at +{derail - claim.offset:#x} "
                           f"(depth {result.derail_depth}), "
                           f"{result.derail_hit}",
                    seed=claim.offset, weight=claim.weight,
                    derailed_at=derail, depth=result.derail_depth)
            return
        _TRACES.inc(outcome="accepted")
        if result.reclassified:
            _RECLASSIFIED.inc(result.reclassified,
                              pass_id=engine.pass_id)
        if result.accepted:
            engine.store.bump("state")
            start, end = result.touched or (claim.offset,
                                            claim.offset + 1)
            engine.store.add_region(RegionFact(
                start, end, "code", claim.priority, claim.source,
                self.name))
            if engine.provenance is not None:
                engine.note(
                    "accept-trace", start, end,
                    source=claim.source, priority=claim.priority,
                    detail=f"trace from {claim.offset:#x} accepted "
                           f"{len(result.accepted)} instruction(s)"
                           + (f", overwrote {result.reclassified} byte(s)"
                              if result.reclassified else ""),
                    seed=claim.offset, weight=claim.weight,
                    instructions=len(result.accepted),
                    reclassified=result.reclassified)
        # Derived claims: direct call targets found in confirmed code
        # are anchors themselves.
        for target in sorted(result.call_targets):
            if not engine.state.is_code_start(target):
                engine.push_claim(CodeClaim(
                    target, Priority.ANCHOR, 1.0,
                    f"call-target@{claim.offset:#x}"))
        # Resolved dispatch tables: their bytes are data (when in
        # text), their targets are code.
        for table in result.resolved_tables:
            apply_resolved_table(engine, table)
        for offset in sorted(result.unresolved_dispatches):
            engine.store.add_unresolved_dispatch(offset)

    def derive(self, seed: int, priority: Priority,
               source: str) -> TraceResult:
        """The traversal itself (the rule body's premise evaluation)."""
        engine = self.engine
        result = TraceResult()
        state = engine.state
        # (offset, labels, priorities) per accepted instruction.  The
        # spans are disjoint: can_mark_instruction refuses a start
        # inside or straddling one this trace already marked.
        undo: list[tuple[int, bytearray, bytearray]] = []
        lo, hi = seed, 0
        worklist: list[tuple[int, int]] = [(seed, 0)]
        visited: set[int] = set()
        # Soft seeds have no corroborating evidence, so for them *any*
        # contradiction refutes the whole trace; stronger seeds keep
        # the strict-depth window (genuine code may legitimately abut
        # older wrong decisions far from the seed).
        strict_everywhere = priority <= Priority.SOFT

        def contradiction(depth: int) -> bool:
            return strict_everywhere or depth <= STRICT_DEPTH

        superset = engine.superset
        views = superset.views
        lengths, flows, falls = views.length, views.flow, views.falls
        has_target, targets = views.has_target, views.target
        while worklist:
            offset, depth = worklist.pop()
            if offset in visited:
                continue
            visited.add(offset)
            if state.is_code_start(offset):
                continue   # joins already-confirmed code
            if not superset.is_valid(offset) or \
                    not state.can_mark_instruction(offset, lengths[offset],
                                                   priority):
                if contradiction(depth):
                    for o, labels, priorities in reversed(undo):
                        state.labels[o:o + len(labels)] = labels
                        state.priorities[o:o + len(priorities)] = priorities
                    result.aborted = True
                    result.derailed_at = offset
                    result.derail_depth = depth
                    result.derail_hit = describe_conflict(
                        engine, offset, superset.at(offset), priority)
                    if undo:
                        result.touched = (lo, hi)
                    else:
                        result.touched = (min(seed, offset),
                                          max(seed, offset) + 1)
                    return result
                continue   # prune this path only

            length = lengths[offset]
            end = min(offset + length, state.size)
            labels = state.labels[offset:end]
            undo.append((offset, labels, state.priorities[offset:end]))
            # Non-UNKNOWN bytes are real overwrites.
            result.reclassified += end - offset - labels.count(0)
            lo = min(lo, offset)
            hi = max(hi, end)
            state.mark_instruction(offset, length, priority)
            result.accepted.add(offset)

            flow = flows[offset]
            if flow == _CALL:
                target = targets[offset]
                if has_target[offset] and 0 <= target < state.size:
                    result.call_targets.add(target)
                    # Defer the continuation: traced only once the
                    # callee is known to return.
                    result.pending_calls.append((offset + length, target))
                    continue
            elif flow == _JUMP or flow == _CJUMP:
                target = targets[offset]
                if has_target[offset] and 0 <= target < state.size:
                    worklist.append((target, depth + 1))
            elif (flow == _IJUMP or flow == _ICALL) \
                    and engine.config.use_table_resolution:
                table = resolve_dispatch(superset, engine.image,
                                         state.is_code_start,
                                         superset.at(offset))
                if table is not None:
                    result.resolved_tables.append(table)
                else:
                    result.unresolved_dispatches.add(offset)

            if flow == _TRAP:
                continue   # padding trap: execution never proceeds here
            if falls[offset] and offset + length < state.size:
                worklist.append((offset + length, depth + 1))

        if undo:
            result.touched = (lo, hi)
        engine.resolved_tables.extend(result.resolved_tables)
        for fall, target in result.pending_calls:
            engine.store.add_pending_call(PendingCall(fall, target))
        return result


def describe_conflict(engine, offset: int, instruction,
                      priority: Priority) -> str:
    """Why marking ``offset`` failed, for the audit trail."""
    if instruction is None:
        return f"undecodable byte at {offset:#x}"
    state = engine.state
    for i in range(offset, min(offset + instruction.length,
                               state.size)):
        label = Classification(state.labels[i])
        if label == Classification.UNKNOWN:
            continue
        existing = Priority(state.priorities[i]).name \
            if state.priorities[i] else "unset"
        if label == Classification.DATA and \
                state.priorities[i] >= priority:
            return (f"contradicts {existing} data at {i:#x}")
        if i > offset and label == Classification.CODE_START and \
                state.priorities[i] >= priority:
            return (f"would straddle {existing} instruction "
                    f"start at {i:#x}")
        if i == offset and label == Classification.CODE_INTERIOR \
                and state.priorities[i] >= priority:
            return (f"joins {existing} code mid-instruction "
                    f"at {i:#x}")
    return f"conflict with equal-or-stronger evidence at {offset:#x}"


def apply_resolved_table(engine, table: ResolvedTable) -> None:
    """Dataflow-resolved table => data bytes + ANCHOR target claims."""
    if table.in_text and engine.state.can_mark_data(
            table.address, table.end, Priority.STRUCTURAL):
        engine.state.mark_data(table.address, table.end,
                               Priority.STRUCTURAL)
        engine.store.bump("state")
        engine.store.add_region(RegionFact(
            table.address, table.end, "data", Priority.STRUCTURAL,
            f"{table.kind}-table", "dispatch-resolve"))
        engine.log.append(f"resolved {table.kind} table "
                          f"{table.address:#x}-{table.end:#x}")
    for target in sorted(set(table.targets)):
        if not engine.state.is_code_start(target):
            engine.push_claim(CodeClaim(target, Priority.ANCHOR, 1.0,
                                        f"{table.kind}-table-target"))


class DispatchRetryRule(Rule):
    """Unresolved dispatch + new confirmed code => retry resolution.

    Worklist order can visit a dispatch before its defining
    instructions, leaving the backward dataflow without context; once
    surrounding code is confirmed, resolution usually succeeds.
    Semi-naive: skipped outright unless the classification state or the
    dispatch set changed since the last barren attempt.
    """

    name = "dispatch-retry"

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self._barren_at: tuple[int, int] | None = None

    def fire(self) -> bool:
        engine = self.engine
        if not engine.config.use_table_resolution:
            return False
        store = engine.store
        key = (store.versions["state"], store.versions["dispatches"])
        if key == self._barren_at:
            return False
        progressed = False
        for offset in sorted(store.unresolved_dispatches):
            instruction = engine.superset.at(offset)
            if instruction is None or \
                    not engine.state.is_code_start(offset):
                continue
            table = resolve_dispatch(engine.superset, engine.image,
                                     engine.state.is_code_start, instruction)
            if table is not None:
                store.unresolved_dispatches.discard(offset)
                store.bump("dispatches")
                engine.resolved_tables.append(table)
                store.bump("resolved")
                apply_resolved_table(engine, table)
                progressed = True
        if not progressed:
            self._barren_at = key
        return progressed


class CallContinuationRule(Rule):
    """PendingCall(fall, t) + t returns => CodeClaim(fall).

    A call's fall-through is only traced once its (fully traced)
    callee is known to return, so data placed after noreturn calls is
    never swallowed as code.  Continuations of provably-noreturn
    callees stay pending; if nothing ever proves them returning, their
    bytes are left to gap completion (i.e. data).  Semi-naive: skipped
    unless the state, the pending set, or the resolved-table set
    changed since the last barren attempt.  Returning-ness walks stay
    memoized for the engine's lifetime.
    """

    name = "call-continuation"

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self._barren_at: tuple[int, int, int] | None = None
        self._walks: dict = {}

    def fire(self) -> bool:
        engine = self.engine
        store = engine.store
        if not store.pending_calls:
            return False
        key = (store.versions["state"], store.versions["pending_calls"],
               store.versions["resolved"])
        if key == self._barren_at:
            return False
        targets = {fact.target for fact in store.pending_calls}
        resolved_jumps = {table.dispatch: table.targets
                          for table in engine.resolved_tables
                          if table.kind == "jump" and table.dispatch >= 0}
        returning = compute_returning(
            engine.superset, targets, resolved_jumps=resolved_jumps,
            resolve_dispatch=engine.speculative_dispatch_targets,
            walks=self._walks)
        engine.noreturn_entries = {t for t, ok in returning.items()
                                   if not ok}
        still_pending = []
        pushed = False
        for fact in store.pending_calls:
            if not engine.state.is_code_start(fact.target):
                # Callee not traced yet: no verdict is possible, and
                # releasing now would lose the continuation forever.
                still_pending.append(fact)
                continue
            if not returning.get(fact.target, True):
                still_pending.append(fact)
                continue
            if not engine.state.is_code_start(fact.fall):
                engine.push_claim(CodeClaim(
                    fact.fall, Priority.ANCHOR, 1.0,
                    f"call-fallthrough@{fact.target:#x}"))
                pushed = True
        if len(still_pending) != len(store.pending_calls):
            store.bump("pending_calls")
        store.pending_calls = still_pending
        engine.noreturn_fall_sites = {fact.fall for fact in still_pending}
        if not pushed:
            self._barren_at = (store.versions["state"],
                               store.versions["pending_calls"],
                               store.versions["resolved"])
        return pushed


# ----------------------------------------------------------------------
# Gap completion
# ----------------------------------------------------------------------

class GapRule(Rule):
    """Unknown gap + surviving scored candidate => SOFT CodeClaim.

    Each round scores all gap candidates and accepts them best-first
    (a confident gap decision can create call-target anchors that
    settle weaker gaps before their own soft scores are consulted),
    at most one acceptance per gap per round.
    """

    name = "gap"

    def run_rounds(self) -> None:
        engine = self.engine
        from ...obs.trace import current_tracer
        tracer = current_tracer()
        for round_index in range(GAP_ROUNDS):
            gaps = engine.state.unknown_gaps()
            if not gaps:
                break
            engine.pass_id = f"gaps-{round_index + 1}"
            round_span = (tracer.start(engine.pass_id, gaps=len(gaps))
                          if tracer is not None else None)
            candidates = []
            for gap_id, (start, end) in enumerate(gaps):
                for score, offset in self.candidates(start, end):
                    candidates.append((score, offset, gap_id))
            progressed = False
            settled_gaps: set[int] = set()
            for score, offset, gap_id in sorted(candidates, reverse=True):
                if gap_id in settled_gaps:
                    continue
                if not engine.state.is_unknown(offset):
                    settled_gaps.add(gap_id)
                    continue   # an earlier trace already settled it
                engine.push_claim(CodeClaim(offset, Priority.SOFT,
                                            score, "gap-score"))
                engine.drain()
                if engine.state.is_code_start(offset):
                    progressed = True
                    settled_gaps.add(gap_id)
            if round_span is not None and tracer is not None:
                tracer.finish(round_span, candidates=len(candidates),
                              progressed=progressed)
            if not progressed:
                # No acceptable code candidate anywhere: everything
                # left is data.
                break

    def run_single_pass(self) -> None:
        """Ablation path: gaps decided once, in address order."""
        engine = self.engine
        for start, end in engine.state.unknown_gaps():
            for score, offset in self.candidates(start, end):
                if not engine.state.is_unknown(offset):
                    break
                engine.push_claim(CodeClaim(offset, Priority.SOFT,
                                            score, "gap-score"))
                engine.drain()
                if engine.state.is_code_start(offset):
                    break

    def candidates(self, start: int, end: int) -> list[tuple[float, int]]:
        """Code-like candidate starts within a gap, best first."""
        engine = self.engine
        if start in engine.noreturn_fall_sites:
            # The gap is the continuation of a call to a proven-
            # noreturn function: unreachable by construction, hence
            # data.  (Any real code in it would be a branch target, and
            # branch targets are traced as anchors before gaps are
            # scored.)
            engine.note("reject-candidate", start, end,
                        source="noreturn-continuation",
                        detail=f"gap at {start:#x} is the continuation "
                               f"of a call to a proven-noreturn function; "
                               f"unreachable, no candidates scored")
            _GAP_CANDIDATES.inc(outcome="noreturn-continuation")
            return []
        ranked = []
        vetoed = below = unclean = 0
        recording = engine.provenance is not None
        for offset in self.candidate_offsets(start, end):
            if not engine.superset.is_valid(offset):
                continue
            if engine.behavior_scores is not None and \
                    engine.behavior_scores[offset] <= BEHAVIOR_VETO:
                vetoed += 1
                if recording:
                    engine.note("reject-candidate", offset, offset + 1,
                                source="behavior-veto",
                                detail=f"behavioral score "
                                       f"{float(engine.behavior_scores[offset]):.2f}"
                                       f" <= veto floor "
                                       f"{BEHAVIOR_VETO:.2f}",
                                score=float(engine.behavior_scores[offset]))
                continue   # behavioral veto: behaves like data
            score = float(engine.scores[offset])
            score += 0.5 * prologue_score(engine.superset, offset)
            if score <= engine.config.code_threshold:
                below += 1
                if recording:
                    engine.note("reject-candidate", offset, offset + 1,
                                source="gap-score",
                                detail=f"gap-score {score:.2f} <= "
                                       f"threshold "
                                       f"{engine.config.code_threshold:.2f}",
                                score=score)
                continue
            if not self.chain_terminates_cleanly(offset):
                unclean += 1
                if recording:
                    engine.note("reject-candidate", offset, offset + 1,
                                source="chain-termination",
                                detail=f"refuted SOFT trace seeded at "
                                       f"{offset:#x} (gap-score "
                                       f"{score:.2f}): its decode chain "
                                       f"does not terminate cleanly (runs "
                                       f"into padding, data, or a "
                                       f"mid-instruction join) -- strict "
                                       f"soft-trace gate",
                                score=score)
                continue
            ranked.append((score, offset))
        if vetoed:
            _GAP_CANDIDATES.inc(vetoed, outcome="behavior-veto")
        if below:
            _GAP_CANDIDATES.inc(below, outcome="below-threshold")
        if unclean:
            _GAP_CANDIDATES.inc(unclean, outcome="unclean-termination")
        if ranked:
            _GAP_CANDIDATES.inc(len(ranked), outcome="ranked")
        return sorted(ranked, reverse=True)

    def chain_terminates_cleanly(self, offset: int) -> bool:
        """Hard gate for soft gap candidates.

        Real leftover code (jump-table case blocks, indirect-only
        functions) either ends at a control-flow terminator or flows
        into confirmed code *at an instruction boundary*.  Data that
        happens to decode runs into padding traps, undecodable bytes,
        classified data, or mid-instruction joins instead.
        """
        engine = self.engine
        state = engine.state
        current = offset
        for _ in range(CHAIN_LIMIT):
            instruction = engine.superset.at(current)
            if instruction is None:
                return False
            if instruction.flow in (FlowKind.TRAP, FlowKind.HALT):
                return False     # real code does not fall into padding
            stop = min(instruction.end, state.size)
            if state.labels[current + 1:stop].translate(None, b"\x00\x03"):
                # Dropping UNKNOWN/DATA leaves the code bytes.  Code past
                # the first byte: the "join" would straddle an existing
                # instruction start, which real leftover code never does.
                return False
            if any(label == Classification.DATA and prio > Priority.SOFT
                   for label, prio in zip(state.labels[current:stop],
                                          state.priorities[current:stop])):
                return False
            if not instruction.falls_through:
                return True
            nxt = instruction.end
            if nxt >= state.size:
                return False
            if state.is_code_start(nxt):
                return True
            if state.is_code(nxt):
                return False     # joins confirmed code mid-instruction
            current = nxt
        return True

    def candidate_offsets(self, start: int, end: int) -> list[int]:
        engine = self.engine
        padding = engine.store.padding
        offsets = set()
        cursor = start
        while cursor < end and padding[cursor]:
            cursor += 1
        # Every offset in the first bytes after leading padding: gaps
        # usually begin exactly at a real instruction, but misdecoded
        # neighbors can shift the boundary by a few bytes.
        offsets.update(range(start, min(end, start + 2)))
        offsets.update(range(cursor, min(end, cursor + 12)))
        aligned = start + (-start % FUNCTION_ALIGNMENT)
        for candidate in range(aligned,
                               min(end, aligned + 4 * FUNCTION_ALIGNMENT),
                               FUNCTION_ALIGNMENT):
            offsets.add(candidate)
        return sorted(o for o in offsets if start <= o < end)


class GapSealRule(Rule):
    """Unknown gap + no surviving candidate => SOFT data."""

    name = "gap-seal"

    def fire(self) -> None:
        engine = self.engine
        for start, end in engine.state.unknown_gaps():
            engine.state.mark_data(start, end, Priority.SOFT)
            engine.store.bump("state")
            engine.store.add_region(RegionFact(
                start, end, "data", Priority.SOFT, "gap-completion",
                self.name))
            engine.note("gap-data", start, end, source="gap-completion",
                        priority=Priority.SOFT,
                        detail=f"no surviving code candidate in the "
                               f"{end - start}-byte gap; classified data")


# ----------------------------------------------------------------------
# Residue realignment
# ----------------------------------------------------------------------

class RealignRule(Rule):
    """Tiny soft-data residue that tiles cleanly into code => code.

    A wrong early decision sometimes leaves a short unclaimed residue
    directly in front of confirmed code (x86 decoding self-synchronizes
    after a few bytes).  When the residue decodes as a clean
    instruction run ending exactly at the following confirmed
    instruction, the correct fix is to accept it as code.
    """

    name = "realign"

    def fire(self) -> None:
        engine = self.engine
        engine.pass_id = "realign"
        for start, end in engine.state.data_regions():
            if end - start > REALIGN_MAX_SIZE:
                continue
            if end >= engine.state.size or \
                    not engine.state.is_code_start(end):
                continue
            if engine.store.is_pure_padding(start, end):
                # A pure padding run in front of a function entry is
                # data by convention; int3/nop bytes always tile
                # cleanly, so without this guard they'd be "realigned"
                # into code.
                engine.note("skip-realign", start, end,
                            source="padding-guard",
                            detail=f"residue {start:#x}-{end:#x} is a pure "
                                   f"int3/nop/zero padding run kept as "
                                   f"data (padding-as-code guard); "
                                   f"padding always tiles cleanly, so "
                                   f"realignment would misclassify it")
                continue
            if any(fall <= start < fall + 32
                   for fall in engine.noreturn_fall_sites):
                # Unreachable continuation of a noreturn call.
                engine.note("skip-realign", start, end,
                            source="noreturn-continuation",
                            detail=f"residue {start:#x}-{end:#x} sits in "
                                   f"the unreachable continuation of a "
                                   f"proven-noreturn call")
                continue
            if max(engine.state.priorities[start:end]) > Priority.SOFT:
                engine.note("skip-realign", start, end,
                            source="priority-guard",
                            detail=f"residue {start:#x}-{end:#x} carries "
                                   f"stronger-than-SOFT data evidence; "
                                   f"realignment only overrides soft "
                                   f"decisions")
                continue
            run = self._clean_tile(start, end)
            if run is None:
                continue
            for offset, length in run:
                engine.state.mark_instruction(offset, length,
                                              Priority.SOFT)
            engine.store.bump("state")
            engine.store.add_region(RegionFact(
                start, end, "code", Priority.SOFT, "clean-tile",
                self.name))
            engine.log.append(f"realigned residue {start:#x}-{end:#x}")
            engine.note("realign", start, end, source="clean-tile",
                        priority=Priority.SOFT,
                        detail=f"residue {start:#x}-{end:#x} decodes as "
                               f"{len(run)} instruction(s) tiling exactly "
                               f"to the confirmed code at {end:#x}; "
                               f"accepted as code")

    def _clean_tile(self, start: int, end: int
                    ) -> list[tuple[int, int]] | None:
        """Instructions exactly tiling [start, end), or None."""
        engine = self.engine
        run = []
        cursor = start
        while cursor < end:
            instruction = engine.superset.at(cursor)
            if instruction is None or instruction.end > end:
                return None
            if not instruction.falls_through and instruction.end != end:
                return None
            run.append((cursor, instruction.length))
            cursor = instruction.end
        return run if cursor == end else None
