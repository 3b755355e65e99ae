"""Function-boundary identification over the final classification.

Entry candidates come from four sources: the program entry point,
direct call targets observed in accepted code, targets of resolved
pointer (function) tables, and prologue idioms at aligned offsets that
no predecessor falls through into.  Extents follow the standard
contiguous-layout assumption (a function spans from its entry to the
next entry).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.idioms import (FUNCTION_ALIGNMENT, PROLOGUE_THRESHOLD,
                               prologue_score)
from ..isa.columns import FLOW_CODES
from ..isa.opcodes import FlowKind
from ..superset.superset import Superset

_CALL, _JUMP = FLOW_CODES[FlowKind.CALL], FLOW_CODES[FlowKind.JUMP]


@dataclass(frozen=True)
class FunctionSpan:
    entry: int
    end: int


def _falls_into(superset: Superset, starts: set[int], offset: int) -> bool:
    """Does confirmed code fall through into ``offset``?

    Padding instructions (nop runs, int3) between functions are skipped:
    a nop sled that "falls into" a function start does not make the
    start an internal label.
    """
    current = offset
    while current > 0:
        previous = None
        for back in range(1, 16):
            candidate = current - back
            if candidate < 0:
                break
            if candidate in starts:
                ins = superset.at(candidate)
                if ins is not None and ins.end == current:
                    previous = ins
                break
        if previous is None:
            return False           # preceded by data/padding bytes
        if previous.is_nop or previous.flow is FlowKind.TRAP:
            current = previous.offset
            continue
        return previous.falls_through
    return False


def identify_functions(superset: Superset, starts: set[int], entry: int, *,
                       pointer_table_targets: frozenset[int] = frozenset()
                       ) -> list[FunctionSpan]:
    """Derive function entries and extents from accepted code."""
    entries: set[int] = set()
    if entry in starts:
        entries.add(entry)

    # Direct call targets, and tail-jump targets that open like functions.
    columns = superset.columns
    sites = np.fromiter(starts, np.int64, len(starts))
    sites = sites[columns.has_target[sites]]
    flows = columns.flow[sites]
    for flow, target in zip(flows.tolist(), columns.target[sites].tolist()):
        if target not in starts:
            continue
        if flow == _CALL:
            entries.add(target)
        elif flow == _JUMP and target % FUNCTION_ALIGNMENT == 0 \
                and prologue_score(superset, target) >= PROLOGUE_THRESHOLD:
            entries.add(target)    # likely tail call

    # Pointer (function) tables point at function entries by definition.
    for target in pointer_table_targets:
        if target in starts:
            entries.add(target)

    # Aligned prologues that nothing falls through into.
    for offset in starts:
        if offset % FUNCTION_ALIGNMENT:
            continue
        if prologue_score(superset, offset) < PROLOGUE_THRESHOLD:
            continue
        if _falls_into(superset, starts, offset):
            continue
        entries.add(offset)

    ordered = sorted(entries)
    spans = []
    for i, fn_entry in enumerate(ordered):
        end = ordered[i + 1] if i + 1 < len(ordered) else len(superset)
        spans.append(FunctionSpan(entry=fn_entry, end=end))
    return spans
