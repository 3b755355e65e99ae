"""Per-offset reference for the branch edges the probabilistic baseline
reads.

``successors``, ``direct_predecessors`` and ``direct_call_targets`` are
the per-candidate walks the superset once offered; ``hint_inputs``
rebuilds :func:`repro.baselines.probabilistic._hint_inputs` from them,
one offset at a time, so the column derivation can be checked against
it value for value.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.behavior import chain_counts
from repro.isa.opcodes import FlowKind
from repro.superset import Superset


def candidates(superset: Superset):
    """``(offset, instruction or None)`` at every offset."""
    return ((offset, superset.at(offset)) for offset in range(len(superset)))


def successors(superset: Superset, offset: int) -> list[int]:
    """Fall-through (if any) plus the in-section direct target (if any)."""
    ins = superset.at(offset)
    if ins is None:
        return []
    result = []
    if ins.falls_through:
        result.append(ins.end)
    target = ins.branch_target
    if target is not None and 0 <= target < len(superset.text):
        result.append(target)
    return result


def direct_predecessors(superset: Superset) -> dict[int, list[int]]:
    """offset -> candidates that branch directly to it."""
    preds: dict[int, list[int]] = {}
    for offset, ins in candidates(superset):
        if ins is None:
            continue
        target = ins.branch_target
        if target is not None and 0 <= target < len(superset.text):
            preds.setdefault(target, []).append(offset)
    return preds


def direct_call_targets(superset: Superset) -> dict[int, int]:
    """target offset -> number of candidate call sites reaching it."""
    counts: dict[int, int] = {}
    for _, ins in candidates(superset):
        if ins is None or ins.flow is not FlowKind.CALL:
            continue
        target = ins.branch_target
        if target is not None and 0 <= target < len(superset.text):
            counts[target] = counts.get(target, 0) + 1
    return counts


def hint_inputs(superset: Superset, dead: np.ndarray):
    """``_hint_inputs`` from the per-offset walks above."""
    size = len(superset)
    alive = [o for o in superset.valid_offsets.tolist() if not dead[o]]
    predecessors = direct_predecessors(superset)
    call_targets = direct_call_targets(superset)
    windows = superset.windows
    defuse = dict(zip(windows.roots.tolist(),
                      chain_counts(windows).defuse_pairs.tolist()))
    edges = [(offset, s) for offset in alive
             for s in successors(superset, offset)
             if s < size and not dead[s]]
    return (np.array(alive, np.int64),
            np.array([len(predecessors.get(o, ())) for o in alive],
                     np.int64),
            np.array([o in call_targets for o in alive], bool),
            np.array([defuse[o] for o in alive], np.int64),
            edges)
