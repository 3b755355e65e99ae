"""Behavioral scoring: does the candidate chain *behave* like code?

This is the "behavioral properties of code to flag data" half of the
paper.  For every superset candidate we examine its bounded
fall-through window and combine hard structural violations (falling
through into undecodable bytes) with soft behavioral signals (rare
opcodes, traps mid-stream, def-use discipline) into a single additive
score: positive means code-like, negative means data-like.
"""

from __future__ import annotations

import numpy as np

from ..isa.opcodes import FlowKind
from ..superset.superset import CHAIN_WINDOW, Superset
from .defuse import analyze_chain

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


def _chain_score(superset: Superset, offset: int) -> float:
    """Behavioral score of the candidate chain starting at ``offset``."""
    chain = superset.fallthrough_chain(offset, CHAIN_WINDOW)
    if not chain:
        return INVALID_FALLTHROUGH
    last = chain[-1]
    terminated = not last.falls_through
    total = 0.0
    # A chain is cut by invalid bytes when it is shorter than the
    # window, still falls through, and its next offset is inside the
    # section but undecodable.
    if not terminated and len(chain) < CHAIN_WINDOW:
        nxt = last.end
        if nxt < len(superset) and not superset.is_valid(nxt):
            total += INVALID_FALLTHROUGH
    traps = sum(1 for ins in chain
                if ins.flow in (FlowKind.TRAP, FlowKind.HALT))
    rare = sum(1 for ins in chain if ins.rare)
    signals = analyze_chain(chain)
    total += TRAP_IN_CHAIN * traps
    total += RARE_INSTRUCTION * rare
    total += DEFUSE_PAIR * signals.defuse_pairs
    total += FLAG_PAIR * signals.flag_pairs
    total += REGISTER_ANOMALY * signals.register_anomalies
    total += FLAG_ANOMALY * signals.flag_anomalies
    if terminated:
        total += TERMINATED_CHAIN
    return total / len(chain)


class BehaviorAnalyzer:
    """Computes behavioral scores over a superset."""

    def score_all(self, superset: Superset) -> np.ndarray:
        """Vector of behavioral scores for every offset of the section."""
        scores = np.full(len(superset), INVALID_FALLTHROUGH)
        for offset in superset.valid_offsets:
            scores[offset] = _chain_score(superset, offset)
        return scores

    def rescore(self, superset: Superset, offsets,
                scores: np.ndarray) -> None:
        """Recompute ``scores[o]`` in place for a subset of offsets.

        Behavioral scores depend only on the bounded fall-through
        window, so incremental re-disassembly recomputes just the
        offsets whose window touches changed bytes; each value is
        bit-identical to a full :meth:`score_all` (same per-offset
        path).
        """
        for offset in offsets:
            scores[offset] = _chain_score(superset, offset)
