"""The correction tail's slice undo and memoized returning-ness walks.

A trace records one ``(offset, labels, priorities)`` slice per accepted
instruction instead of a per-byte undo dict, and
``CallContinuationRule`` keeps returning-ness walks across firings.
These tests hold both to the per-byte / memo-free references on the
evaluation corpus.
"""

from __future__ import annotations

import pytest

from repro.analysis.noreturn import _reaches_return, compute_returning
from repro.core import Disassembler
from repro.core.engine import FactEngine
from repro.core.engine.rules import TraceRule
from repro.eval.dataset import evaluation_corpus
from repro.isa.opcodes import FlowKind

CORPUS = evaluation_corpus()


def undo_dict_reference(engine, before_labels, seed, result):
    """``reclassified`` and ``touched`` as the per-byte undo dict gave
    them: every byte of an accepted instruction, first-seen values."""
    size = engine.state.size
    undo = {}
    for offset in result.accepted:
        length = engine.superset.at(offset).length
        for i in range(offset, min(offset + length, size)):
            undo.setdefault(i, before_labels[i])
    reclassified = sum(1 for label in undo.values() if label)
    if undo:
        touched = (min(min(undo), seed), max(undo) + 1)
    elif result.aborted:
        touched = (min(seed, result.derailed_at),
                   max(seed, result.derailed_at) + 1)
    else:
        touched = None
    return reclassified, touched


@pytest.fixture(scope="module")
def traced_runs(models):
    """Every corpus case disassembled with each trace checked; yields
    ``{name: (engine, traces, refuted)}``."""
    original = TraceRule.derive
    runs = {}
    current = {}

    def checked(self, seed, priority, source):
        state = self.engine.state
        labels, priorities = bytes(state.labels), bytes(state.priorities)
        result = original(self, seed, priority, source)
        current["engine"] = self.engine
        current["traces"] += 1
        if result.aborted:
            # Count the refutations that had marks to roll back.
            current["refuted"] += bool(result.accepted)
            assert state.labels == labels, f"labels moved (seed {seed:#x})"
            assert state.priorities == priorities, \
                f"priorities moved (seed {seed:#x})"
        assert (result.reclassified, result.touched) == \
            undo_dict_reference(self.engine, labels, seed, result)
        return result

    disassembler = Disassembler(models=models)
    TraceRule.derive = checked
    try:
        for case in CORPUS:
            current.update(traces=0, refuted=0)
            disassembler.disassemble_rich(case)
            runs[case.name] = (current["engine"], current["traces"],
                               current["refuted"])
    finally:
        TraceRule.derive = original
    return runs


class TestSliceUndo:
    def test_every_corpus_case_checked(self, traced_runs):
        assert len(traced_runs) == 9
        assert all(traces for _, traces, _ in traced_runs.values())

    def test_refuted_traces_were_exercised(self, traced_runs):
        assert sum(refuted for _, _, refuted in traced_runs.values()) > 0


def memo_free(superset, targets, resolved_jumps, resolve_dispatch):
    """The greatest fixpoint, re-walking every live target each round."""
    returning = {target: True for target in targets}
    changed = True
    while changed:
        changed = False
        for target in targets:
            if returning[target] and not _reaches_return(
                    superset, target, returning, resolved_jumps,
                    resolve_dispatch, []):
                returning[target] = False
                changed = True
    return returning


class TestReturningMemo:
    @pytest.mark.parametrize("name", [case.name for case in CORPUS])
    def test_memo_matches_memo_free_walks(self, traced_runs, name):
        engine = traced_runs[name][0]
        superset = engine.superset
        candidates = map(superset.at, range(len(superset)))
        calls = sorted({ins.branch_target for ins in candidates
                        if ins is not None and ins.flow is FlowKind.CALL
                        and ins.branch_target is not None
                        and 0 <= ins.branch_target < len(superset)})
        tables = [table for table in engine.resolved_tables
                  if table.kind == "jump" and table.dispatch >= 0]
        resolve = engine.speculative_dispatch_targets
        walks: dict = {}
        steps = 6
        for step in range(steps + 1):
            # Targets shrink from every call target to a sixth of them;
            # resolved jumps grow from none to all.
            targets = set(calls[:len(calls) * (steps + 1 - step)
                                // (steps + 1)])
            resolved = {table.dispatch: table.targets
                        for table in tables[:len(tables) * step // steps]}
            assert compute_returning(superset, targets,
                                     resolved_jumps=resolved,
                                     resolve_dispatch=resolve,
                                     walks=walks) == \
                memo_free(superset, targets, resolved, resolve)
        assert walks

    def test_speculative_targets_ignore_the_state(self, traced_runs):
        """The memo's premise: dispatch resolution for verdicts reads
        the superset only, never how far tracing has got."""
        checked = 0
        for engine, _, _ in traced_runs.values():
            empty = FactEngine(engine.superset, engine.scores,
                               engine.config, image=engine.image)
            traced = FactEngine(engine.superset, engine.scores,
                                engine.config, image=engine.image)
            traced.state = engine.state
            for offset in range(len(engine.superset)):
                ins = engine.superset.at(offset)
                if ins is None or ins.flow is not FlowKind.IJUMP:
                    continue
                targets = empty.speculative_dispatch_targets(offset)
                assert targets == traced.speculative_dispatch_targets(offset)
                checked += targets is not None
        assert checked
