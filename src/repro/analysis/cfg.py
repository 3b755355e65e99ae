"""Control-flow graph construction over an accepted instruction set.

Once the correction algorithm has settled on a set of instruction
starts, the CFG organizes them into basic blocks for function-boundary
identification, for the linter, and for downstream consumers of the
library (the same structure a binary-rewriting client would use).  It
holds the accepted set as columns, so leaders and incoming edges are
whole-set array passes, and blocks are walked only where asked for.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..isa.columns import flow_in
from ..isa.instruction import Instruction
from ..isa.opcodes import FlowKind
from ..superset.superset import Superset

#: Flows that end a basic block (the next start becomes a leader).
BLOCK_ENDS = (FlowKind.JUMP, FlowKind.CJUMP, FlowKind.IJUMP, FlowKind.RET,
              FlowKind.HALT)

#: Flows whose direct target is an intraprocedural edge.
JUMPS = (FlowKind.JUMP, FlowKind.CJUMP)


@dataclass
class BasicBlock:
    """A maximal straight-line run of accepted instructions."""

    start: int
    instructions: list[Instruction] = field(default_factory=list)

    @property
    def end(self) -> int:
        return self.instructions[-1].end

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]


class ControlFlowGraph:
    """The basic blocks of an accepted set and the edges among them.

    ``starts`` are the decodable accepted starts in offset order;
    ``ends``, ``flows`` (flow codes), ``falls``, ``targets`` (where
    ``branches``) and ``rips`` (where ``has_rip``) are read from the
    superset's columns.  Leaders are
    direct-branch targets, starts after a block-ending flow, and starts
    with no sequential fall-through predecessor.  Calls fall through;
    their targets lead blocks, but call edges are not CFG edges.
    """

    def __init__(self, superset: Superset, starts: list[int]) -> None:
        self.superset = superset
        columns = superset.columns
        self.starts = starts = np.asarray(starts, dtype=np.int64)
        self.ends = ends = starts + columns.length[starts]
        self.flows = flows = columns.flow[starts]
        self.falls = falls = columns.falls[starts]
        self.branches = columns.has_target[starts]
        self.targets = columns.target[starts]
        self.has_rip = columns.has_rip[starts]
        self.rips = columns.rip[starts]
        ends_block = flow_in(flows, BLOCK_ENDS)
        #: Per start: it leads a block.
        self.leaders = (np.isin(starts, self.targets[self.branches])
                        | np.isin(starts, ends[ends_block])
                        | ~np.isin(starts, ends[falls & ~ends_block]))
        jumps = self.branches & flow_in(flows, JUMPS)
        #: Per start: it leads a block that an edge enters -- a
        #: fall-through from any accepted instruction, or a direct jump.
        self.entered = self.leaders & (np.isin(starts, ends[falls])
                                       | np.isin(starts, self.targets[jumps]))
        following = np.searchsorted(starts, ends)
        clipped = np.minimum(following, len(starts) - 1)
        continues = (falls & (following < len(starts))
                     & (starts[clipped] == ends) & ~self.leaders[clipped])
        #: Per start: the index its block continues with, or -1.
        self._next = np.where(continues, following, -1).tolist()

    def walk(self, index: int) -> list[int]:
        """The indices into ``starts`` of the block led by ``index``."""
        block = [index]
        while self._next[block[-1]] >= 0:
            block.append(self._next[block[-1]])
        return block

    @cached_property
    def blocks(self) -> dict[int, BasicBlock]:
        starts = self.starts.tolist()
        at = self.superset.at
        return {starts[i]: BasicBlock(starts[i], [at(starts[j])
                                                  for j in self.walk(i)])
                for i in np.flatnonzero(self.leaders).tolist()}

    @cached_property
    def succ(self) -> dict[int, set[int]]:
        """Block start -> the block starts it has an edge to."""
        succ: dict[int, set[int]] = {start: set() for start in self.blocks}
        for start, block in self.blocks.items():
            last = block.terminator
            targets = [last.end] if last.falls_through else []
            if last.flow in JUMPS:
                targets.append(last.branch_target)
            succ[start].update(t for t in targets if t in succ)
        return succ

    @cached_property
    def pred(self) -> dict[int, set[int]]:
        """Block start -> the block starts with an edge to it."""
        pred: dict[int, set[int]] = {start: set() for start in self.succ}
        for start, targets in self.succ.items():
            for target in targets:
                pred[target].add(start)
        return pred

    def successors(self, start: int) -> list[int]:
        return sorted(self.succ[start])

    def predecessors(self, start: int) -> list[int]:
        return sorted(self.pred[start])

    def reachable_from(self, roots: Iterable[int]) -> set[int]:
        """Block starts reachable from any root (intraprocedural edges).

        ``roots`` may be any iterable of offsets (list, set, generator);
        offsets that are not block starts are ignored.
        """
        seen: set[int] = set()
        stack = [r for r in roots if r in self.blocks]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.succ[node])
        return seen


def build_cfg(superset: Superset, accepted: Iterable[int]
              ) -> ControlFlowGraph:
    """Partition the decodable accepted starts into basic blocks."""
    return ControlFlowGraph(superset, sorted(
        o for o in accepted if superset.is_valid(o)))
