"""Probabilistic disassembly (a reimplementation of the Miller et al.
NDSS'19 algorithmic core).

The algorithm assigns each superset candidate a *data probability*:

1. **Invalid closure** -- candidates that must reach an undecodable
   offset through forced control flow cannot be code (probability 1).
2. **Hints** -- independent observations that an offset behaves like
   code lower its data probability multiplicatively: control-flow
   convergence (two or more direct branches landing on it), direct call
   targets, and register def-use chains along its fall-through window.
3. **Forward propagation** -- if a candidate is likely code, its forced
   successors are at least as likely.
4. **Occlusion normalization** -- candidates covering the same byte
   compete; probability mass is shared within each occlusion set.

Offsets whose final data probability falls below a threshold are
emitted as code.  Like the original, this over-approximates: it keeps
high recall but accepts data whose accidental structure produces hints,
and it does not enforce a single non-overlapping instruction tiling.
"""

from __future__ import annotations

import numpy as np

from ..analysis.behavior import chain_counts
from ..isa.opcodes import FlowKind
from ..result import DisassemblyResult
from ..superset.superset import Superset, cached_superset

#: Hint strengths from the original paper's formulation.
HINT_CONVERGENCE = 0.9
HINT_CALL_TARGET = 0.95
HINT_DEFUSE = 0.6

DEFAULT_THRESHOLD = 0.5


def probabilistic_disassembly(text: bytes, entry: int = 0, *,
                              threshold: float = DEFAULT_THRESHOLD,
                              superset: Superset | None = None
                              ) -> DisassemblyResult:
    """Disassemble with hint-propagated data probabilities."""
    if superset is None:
        superset = cached_superset(text)
    size = len(text)

    dead = _invalid_closure(superset)
    p_data = np.ones(size)
    alive = [offset for offset in superset.valid_offsets
             if not dead[offset]]
    windows = superset.windows
    defuse_pairs = dict(zip(windows.roots.tolist(),
                            chain_counts(windows).defuse_pairs.tolist()))

    # Hint collection.
    for offset in alive:
        strength = 1.0
        convergence = len(superset.direct_predecessors.get(offset, ()))
        if convergence >= 2:
            strength *= (1 - HINT_CONVERGENCE)
        if offset in superset.direct_call_targets:
            strength *= (1 - HINT_CALL_TARGET)
        strength *= (1 - HINT_DEFUSE) ** min(defuse_pairs[offset], 3)
        p_data[offset] = strength
    if 0 <= entry < size and not dead[entry]:
        p_data[entry] = 0.0

    # Forward propagation along forced flow (a few passes suffice).
    # Successor sets and ``dead`` are static during propagation, so the
    # (in-range, non-dead) successor lists are computed once up front.
    forced = [tuple(s for s in superset.successors(offset)
                    if s < size and not dead[s])
              for offset in alive]
    for _ in range(3):
        changed = False
        for offset, successors in zip(alive, forced):
            value = p_data[offset]
            for successor in successors:
                if p_data[successor] > value:
                    p_data[successor] = value
                    changed = True
        if not changed:
            break

    # Occlusion competition: a candidate is kept when its data
    # probability clears the threshold and no candidate covering the
    # same first byte is strictly more code-like (local winner-take-all
    # over the occlusion set).
    p_code = 1.0 - p_data
    p_code[dead] = 0.0
    instructions = superset.instructions
    accepted = {}
    for offset in alive:
        if p_data[offset] >= threshold:
            continue
        mine = p_code[offset]
        overshadowed = False
        for o in range(max(0, offset - 14), offset):
            covering = instructions[o]
            if covering is not None and not dead[o] \
                    and covering.end > offset and p_code[o] > mine:
                overshadowed = True
                break
        if overshadowed:
            continue
        accepted[offset] = instructions[offset].length

    covered = set()
    for start, length in accepted.items():
        covered.update(range(start, start + length))
    data_regions = _uncovered(size, covered)

    return DisassemblyResult(tool="probabilistic",
                             instructions=accepted,
                             data_regions=data_regions,
                             function_entries=set())


#: Flows whose successors the decoder cannot enumerate; such candidates
#: never join the closure (they are unconstrained, hence alive).
_UNCONSTRAINED = frozenset((FlowKind.IJUMP, FlowKind.ICALL,
                            FlowKind.RET, FlowKind.HALT))


def _invalid_closure(superset: Superset) -> np.ndarray:
    """True where a candidate must reach an undecodable offset.

    Fixpoint: an instruction is dead when *all* of its execution
    successors are dead (no successors => terminator, alive).  Computed
    with a reverse-dependency worklist -- when an offset dies, only its
    forced predecessors are re-examined -- so the closure costs one pass
    plus O(edges) instead of repeated full sweeps over the section.
    """
    size = len(superset)
    dead = np.zeros(size, dtype=bool)
    live_successors = [0] * size            # constrained candidates only
    predecessors: dict[int, list[int]] = {}
    worklist: list[int] = []

    def kill(offset: int) -> None:
        dead[offset] = True
        worklist.append(offset)

    for offset, instruction in enumerate(superset.instructions):
        if instruction is None:
            kill(offset)
            continue
        target = instruction.branch_target
        if target is not None and not 0 <= target < size:
            # Direct branch outside the section: treat as invalid.
            kill(offset)
            continue
        if instruction.flow in _UNCONSTRAINED:
            continue
        successors = []
        if instruction.falls_through:
            successors.append(instruction.end)
        if target is not None:
            successors.append(target)
        if not successors:
            continue
        if successors[0] >= size:
            # Fall-through off the end of the section.
            kill(offset)
            continue
        live_successors[offset] = len(successors)
        for successor in successors:
            predecessors.setdefault(successor, []).append(offset)

    while worklist:
        victim = worklist.pop()
        for offset in predecessors.get(victim, ()):
            if dead[offset]:
                continue
            live_successors[offset] -= 1
            if live_successors[offset] == 0:
                kill(offset)
    return dead


def _uncovered(size: int, covered: set[int]) -> list[tuple[int, int]]:
    regions = []
    start = None
    for i in range(size):
        if i not in covered and start is None:
            start = i
        elif i in covered and start is not None:
            regions.append((start, i))
            start = None
    if start is not None:
        regions.append((start, size))
    return regions
