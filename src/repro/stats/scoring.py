"""Per-offset statistical code-vs-data scoring.

For every superset candidate we compare two hypotheses for the bytes it
covers (together with its fall-through window): "this is real code"
(scored by the instruction n-gram model) versus "this is data" (scored
by the data byte model).  The per-byte log-likelihood ratio is the
paper's soft statistical evidence; large positive values say *code*,
large negative values say *data*.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..superset.superset import CHAIN_WINDOW, Superset
from .datamodel import AsciiRun, DataByteModel, find_ascii_runs
from .ngram import NgramModel, START, token_of

#: Score assigned to offsets with no valid candidate at all.
UNDECODABLE_SCORE = -10.0

#: Per-byte penalty applied inside NUL-terminated printable runs: a
#: C-string-shaped region is data no matter how well it decodes.
ASCII_PENALTY = 3.0


@functools.lru_cache(maxsize=16)
def terminated_ascii_runs(text: bytes) -> tuple[AsciiRun, ...]:
    """NUL-terminated printable runs of ``text`` (cached per section).

    Incremental re-disassembly compares the penalty arrays of the old
    and the new text to find offsets whose run membership flipped, and
    :meth:`StatisticalScorer.rescore` then builds the new text's array
    again; the cache keeps that to one scan per distinct text (the old
    text was usually scanned by the run that produced the snapshot).
    """
    return tuple(run for run in find_ascii_runs(text) if run.terminated)


@dataclass
class StatisticalScorer:
    """Combines the code n-gram model and the data byte model."""

    code_model: NgramModel
    data_model: DataByteModel

    def score_all(self, superset: Superset) -> np.ndarray:
        """Vector of per-offset scores for a whole section.

        Chains overlap heavily, so token and single-step scores are
        computed once per offset and chains walk precomputed arrays.
        """
        size = len(superset)
        tokens: list[str | None] = [None] * size
        for offset in superset.valid_offsets:
            tokens[offset] = token_of(superset.instructions[offset])

        data_lp_byte = self._data_lp_bytes(superset.text)
        ascii_penalty = self._ascii_penalty(superset.text)

        scores = np.full(size, UNDECODABLE_SCORE)
        for offset in superset.valid_offsets:
            scores[offset] = self._chain_score(superset, offset, tokens,
                                               data_lp_byte, ascii_penalty)
        return scores

    def rescore(self, superset: Superset, offsets, scores: np.ndarray
                ) -> None:
        """Recompute ``scores[o]`` in place for a subset of offsets.

        Incremental re-disassembly calls this for the offsets whose
        score support (decode window, fall-through chain, ASCII-run
        membership) touches changed bytes; every value written is
        bit-identical to what :meth:`score_all` would produce on the
        same superset, because both run the same per-offset body and
        the data-model term is summed per chain span (a span of
        unchanged bytes sums to the identical float either way).
        """
        data_lp_byte = self._data_lp_bytes(superset.text)
        ascii_penalty = self._ascii_penalty(superset.text)
        for offset in offsets:
            if superset.is_valid(offset):
                scores[offset] = self._chain_score(superset, offset, None,
                                                   data_lp_byte,
                                                   ascii_penalty)
            else:
                scores[offset] = UNDECODABLE_SCORE

    def _chain_score(self, superset: Superset, offset: int,
                     tokens: list | None, data_lp_byte: np.ndarray,
                     ascii_penalty: np.ndarray) -> float:
        """The shared per-offset scoring body (valid offsets only)."""
        chain = superset.fallthrough_chain(offset, CHAIN_WINDOW)
        context = (START, START)
        code_lp = 0.0
        for ins in chain:
            token = tokens[ins.offset] if tokens is not None \
                else token_of(ins)
            code_lp += self.code_model.log_prob(token, context)
            context = (context[1], token)
        span = chain[-1].end - offset
        data_lp = data_lp_byte[offset:offset + span].sum()
        return (code_lp - data_lp) / span - ascii_penalty[offset]

    def _data_lp_bytes(self, text: bytes) -> np.ndarray:
        return np.array(
            [self.data_model.log_prob_byte(b) for b in text])

    @staticmethod
    def _ascii_penalty(text: bytes) -> np.ndarray:
        penalty = np.zeros(len(text))
        for run in terminated_ascii_runs(text):
            penalty[run.start:run.end] = ASCII_PENALTY
        return penalty
