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
from ..isa.columns import FLOW_CODES, flow_in
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
    alive, convergence, calls, defuse, edges = _hint_inputs(superset, dead)

    # Hint collection: one factor per hint, multiplied in a fixed order
    # (convergence, call target, def-use) so rounding never varies.
    p_data[alive] = (np.where(convergence >= 2, 1 - HINT_CONVERGENCE, 1.0)
                     * np.where(calls, 1 - HINT_CALL_TARGET, 1.0)
                     * _DEFUSE_FACTORS[np.minimum(defuse, 3)])
    if 0 <= entry < size and not dead[entry]:
        p_data[entry] = 0.0

    # Forward propagation along forced flow (a few passes suffice).
    for _ in range(3):
        changed = False
        for offset, successor in edges:
            if p_data[successor] > p_data[offset]:
                p_data[successor] = p_data[offset]
                changed = True
        if not changed:
            break

    # Occlusion competition: a candidate is kept when its data
    # probability clears the threshold and no candidate covering the
    # same first byte is strictly more code-like (local winner-take-all
    # over the occlusion set).
    p_code = 1.0 - p_data
    p_code[dead] = 0.0
    lengths = superset.views.length
    accepted = {}
    for offset in alive.tolist():
        if p_data[offset] >= threshold:
            continue
        mine = p_code[offset]
        overshadowed = False
        for o in range(max(0, offset - 14), offset):
            # Dead candidates include every undecodable offset.
            if not dead[o] and o + lengths[o] > offset and p_code[o] > mine:
                overshadowed = True
                break
        if overshadowed:
            continue
        accepted[offset] = lengths[offset]

    covered = set()
    for start, length in accepted.items():
        covered.update(range(start, start + length))
    data_regions = _uncovered(size, covered)

    return DisassemblyResult(tool="probabilistic",
                             instructions=accepted,
                             data_regions=data_regions,
                             function_entries=set())


#: ``(1 - HINT_DEFUSE) ** k`` for the 0-3 def-use pairs that count.
_DEFUSE_FACTORS = np.array([(1 - HINT_DEFUSE) ** k for k in range(4)])


def _hint_inputs(superset: Superset, dead: np.ndarray):
    """What the hints and the propagation read, from the superset's
    chain-window columns.

    Returns the alive offsets (decodable, not dead) in order, and per
    alive offset the number of in-section direct branches landing on
    it, whether a direct call lands on it, and its def-use pair count;
    then the forced edges ``(offset, successor)`` out of alive offsets
    into live in-section ones -- fall-through first, then the direct
    target -- in offset order.
    """
    size = len(superset)
    columns = superset.columns
    windows = superset.windows
    starts = windows.offsets
    m = len(starts)
    targets = columns.target[starts]
    branches = columns.has_target[starts] & (targets >= 0) & (targets < size)
    calls = np.zeros(size, bool)
    calls[targets[branches & (columns.flow[starts]
                              == FLOW_CODES[FlowKind.CALL])]] = True
    convergence = np.bincount(targets[branches], minlength=size)

    live = ~dead[starts]
    alive = starts[live]
    blocked = np.append(dead, True)     # the section end is no successor
    ends = windows.ends[:m]
    jumps = np.where(branches, targets, size)
    falls = live & windows.falls[:m] & ~blocked[ends]
    jumped = live & ~blocked[jumps]
    sources = np.concatenate([starts[falls], starts[jumped]])
    successors = np.concatenate([ends[falls], jumps[jumped]])
    order = np.argsort(sources, kind="stable")
    edges = list(zip(sources[order].tolist(), successors[order].tolist()))
    return (alive, convergence[alive], calls[alive],
            chain_counts(windows).defuse_pairs[live], edges)


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
    columns = superset.columns
    size = len(superset)
    offsets = np.arange(size)
    valid, falls = columns.valid, columns.falls
    has_target, target = columns.has_target, columns.target
    ends = offsets + columns.length
    # A direct branch outside the section is treated as invalid.
    outside = has_target & ((target < 0) | (target >= size))
    constrained = (valid & ~outside & (falls | has_target)
                   & ~flow_in(columns.flow, _UNCONSTRAINED))
    # Falling through off the end of the section is fatal too.
    off_end = constrained & (np.where(falls, ends, target) >= size)
    dead = ~valid | outside | off_end
    linked = constrained & ~off_end
    live_successors = ((falls.astype(np.int64) + has_target) * linked).tolist()
    sources = np.concatenate([offsets[linked & falls],
                              offsets[linked & has_target]])
    successors = np.concatenate([ends[linked & falls],
                                 target[linked & has_target]])
    order = np.argsort(successors, kind="stable")
    predecessors = sources[order].tolist()
    bounds = np.searchsorted(successors[order],
                             np.arange(size + 1)).tolist()

    dead = dead.tolist()
    worklist = [o for o in range(size) if dead[o]]
    while worklist:
        victim = worklist.pop()
        for offset in predecessors[bounds[victim]:bounds[victim + 1]]:
            if dead[offset]:
                continue
            live_successors[offset] -= 1
            if live_successors[offset] == 0:
                dead[offset] = True
                worklist.append(offset)
    return np.array(dead, dtype=bool)


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
