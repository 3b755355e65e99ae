"""Behavioral scoring: does the candidate chain *behave* like code?

This is the "behavioral properties of code to flag data" half of the
paper.  For every superset candidate we examine its bounded
fall-through window and combine hard structural violations (falling
through into undecodable bytes) with soft behavioral signals (rare
opcodes, traps mid-stream, def-use discipline) into a single additive
score: positive means code-like, negative means data-like.

Real code computes values before consuming them.  Per window we count
**def-use pairs** (a register written earlier and read later),
**register anomalies** (reads of registers neither conventionally live
nor defined in the window) and **flag anomalies** (flag consumers with
no producer earlier in the window); all are soft, since a window may
begin mid-function.  Every window is scored at once, one array pass
per window step over per-instruction columns.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from ..isa.columns import flow_in
from ..isa.opcodes import FlowKind
from ..isa.registers import (R8, R9, RAX, RBP, RBX, RCX, RDI, RDX, RSI, RSP,
                             R12, R13, R14, R15)
from ..superset.superset import CHAIN_WINDOW, ChainWindows, Superset

#: Weights of the behavioral score components.  These are coarse,
#: hand-calibrated log-odds-like contributions; the prioritized
#: correction algorithm only relies on their ordering being sensible.
#: ``INVALID_FALLTHROUGH`` is also the score of an undecodable offset.
INVALID_FALLTHROUGH = -4.0
TRAP_IN_CHAIN = -1.5
RARE_INSTRUCTION = -1.0
DEFUSE_PAIR = 0.35
FLAG_PAIR = 0.25
REGISTER_ANOMALY = -0.8
FLAG_ANOMALY = -0.4
TERMINATED_CHAIN = 0.3

#: Registers plausibly live at an arbitrary program point: arguments,
#: stack registers, the return register, and callee-saved registers.
CONVENTIONALLY_LIVE = frozenset({
    RDI, RSI, RDX, RCX, R8, R9,   # System V argument registers
    RSP, RBP,                     # stack
    RAX,                          # return value
    RBX, R12, R13, R14, R15,      # callee-saved
})


@functools.cache
def _mask(registers: frozenset[int]) -> int:
    return sum(1 << register for register in registers)


_LIVE = np.uint16(_mask(CONVENTIONALLY_LIVE))
#: After a call only the return value and the frame are known-defined.
_CALL_DEFINED = np.uint16(_mask(frozenset({RAX, RSP, RBP})))


class ChainCounts(NamedTuple):
    """Per-root integer counts over each chain window."""

    length: np.ndarray
    traps: np.ndarray
    rare: np.ndarray
    defuse_pairs: np.ndarray
    flag_pairs: np.ndarray
    register_anomalies: np.ndarray
    flag_anomalies: np.ndarray


def chain_counts(windows: ChainWindows) -> ChainCounts:
    """Def-use, flag, trap and rare counts of every window."""
    # A zeroing idiom defines its register without reading it.
    reads = np.where(windows.column("zeroing"), 0, windows.column("reads"))
    writes = windows.column("writes")
    # The sentinel row's flow code (SEQ) is neither a call nor a trap.
    flows = windows.column("flow")
    is_call = flow_in(flows, (FlowKind.CALL, FlowKind.ICALL))
    trap = flow_in(flows, (FlowKind.TRAP, FlowKind.HALT))
    rare = windows.column("rare")
    reads_flags = windows.column("reads_flags")
    writes_flags = windows.column("writes_flags")

    defined = np.zeros(len(windows.roots), np.uint16)
    flags_defined = np.zeros(len(windows.roots), np.bool_)
    counts = ChainCounts(windows.length,
                         *np.zeros((6, len(windows.roots)), np.int64))
    _, traps, rares, pairs, flag_pairs, anomalies, flag_anomalies = counts
    for step in windows.steps:
        read = reads[step]
        pairs += np.bitwise_count(read & defined)
        anomalies += np.bitwise_count(read & ~(defined | _LIVE))
        read_flags = reads_flags[step]
        flag_pairs += read_flags & flags_defined
        flag_anomalies += read_flags & ~flags_defined
        flags_defined |= writes_flags[step]
        defined = np.where(is_call[step], _CALL_DEFINED | (defined & _LIVE),
                           defined | writes[step])
        traps += trap[step]
        rares += rare[step]
    return counts


def _window_scores(superset: Superset, windows: ChainWindows) -> np.ndarray:
    """Behavioral score of every root's window."""
    counts = chain_counts(windows)
    terminated = ~windows.falls[windows.last]
    # A chain shorter than the window that still falls through inside
    # the section was cut by undecodable bytes.
    cut = (~terminated & (counts.length < CHAIN_WINDOW)
           & (windows.ends[windows.last] < len(superset)))
    # One sum, left to right: the terms' order fixes every float bit.
    total = (np.where(cut, INVALID_FALLTHROUGH, 0.0)
             + TRAP_IN_CHAIN * counts.traps
             + RARE_INSTRUCTION * counts.rare
             + DEFUSE_PAIR * counts.defuse_pairs
             + FLAG_PAIR * counts.flag_pairs
             + REGISTER_ANOMALY * counts.register_anomalies
             + FLAG_ANOMALY * counts.flag_anomalies)
    total = np.where(terminated, total + TERMINATED_CHAIN, total)
    return total / counts.length


class BehaviorAnalyzer:
    """Computes behavioral scores over a superset."""

    def score_all(self, superset: Superset) -> np.ndarray:
        """Vector of behavioral scores for every offset of the section."""
        scores = np.full(len(superset), INVALID_FALLTHROUGH)
        windows = superset.windows
        scores[windows.roots] = _window_scores(superset, windows)
        return scores

    def rescore(self, superset: Superset, offsets,
                scores: np.ndarray) -> None:
        """Recompute ``scores[o]`` in place for a subset of offsets.

        Behavioral scores depend only on the bounded fall-through
        window, so incremental re-disassembly rescores just the offsets
        whose window touches changed bytes, with the same kernel over
        their window closure: each value is bit-identical to
        :meth:`score_all`.
        """
        offsets = list(offsets)
        scores[offsets] = INVALID_FALLTHROUGH
        valid = [o for o in offsets if superset.is_valid(o)]
        scores[valid] = _window_scores(superset, superset.windows_of(valid))
