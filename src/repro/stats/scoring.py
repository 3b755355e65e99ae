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

from ..isa.columns import token_names
from ..superset.superset import ChainWindows, Superset
from .datamodel import AsciiRun, DataByteModel, find_ascii_runs
from .ngram import NgramModel, START

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


#: Floats gathered per chunk when summing spans (2 MiB of float64).
_SPAN_CHUNK = 1 << 18


def _span_sums(values: np.ndarray, starts: np.ndarray,
               lengths: np.ndarray) -> np.ndarray:
    """``values[s:s + n].sum()`` for every pair ``(s, n)``, bit for bit:
    spans of one length are rows of a 2-D gather, and a row sum runs the
    1-D slice's pairwise summation."""
    sums = np.empty(len(starts))
    for length in np.unique(lengths).tolist():
        group = np.flatnonzero(lengths == length)
        rows = max(1, _SPAN_CHUNK // length)
        for i in range(0, len(group), rows):
            chunk = group[i:i + rows]
            sums[chunk] = values[starts[chunk, None]
                                 + np.arange(length)].sum(axis=1)
    return sums


@dataclass
class StatisticalScorer:
    """Combines the code n-gram model and the data byte model."""

    code_model: NgramModel
    data_model: DataByteModel

    def score_all(self, superset: Superset) -> np.ndarray:
        """Vector of per-offset scores for a whole section."""
        scores = np.full(len(superset), UNDECODABLE_SCORE)
        windows = superset.windows
        scores[windows.roots] = self._window_scores(superset.text, windows)
        return scores

    def rescore(self, superset: Superset, offsets, scores: np.ndarray
                ) -> None:
        """Recompute ``scores[o]`` in place for a subset of offsets.

        Incremental re-disassembly calls this for the offsets whose
        score support (decode window, fall-through chain, ASCII-run
        membership) touches changed bytes; every value written is
        bit-identical to :meth:`score_all`: the same kernel runs over
        the offsets' window closure, and the data-model term is summed
        per chain span.
        """
        offsets = list(offsets)
        scores[offsets] = UNDECODABLE_SCORE
        valid = [o for o in offsets if superset.is_valid(o)]
        scores[valid] = self._window_scores(superset.text,
                                            superset.windows_of(valid))

    def _window_scores(self, text: bytes, windows: ChainWindows
                       ) -> np.ndarray:
        """Per-byte code-vs-data log-likelihood ratio of every window."""
        roots = windows.roots
        span = windows.ends[windows.last] - roots
        code_lp = self._code_log_probs(windows)
        data_lp = _span_sums(self._data_lp_bytes(text), roots, span)
        return (code_lp - data_lp) / span - self._ascii_penalty(text)[roots]

    def _code_log_probs(self, windows: ChainWindows) -> np.ndarray:
        """n-gram log-probability of every window's token sequence.

        The context restarts at ``(START, START)`` at each root, so per
        position ``p`` three terms cover every window: ``p`` after two
        STARTs, ``succ p`` after ``(START, p)`` and ``succ² p`` after
        ``(p, succ p)``.  They are summed along the window in the order
        the terms occur; a term past a chain's end is 0.0.
        """
        tokens = windows.column("token", -1).astype(np.int64)
        names = [*token_names(), START]
        start = np.full_like(tokens, len(names) - 1)
        after = tokens[windows.succ]
        first, second, third = (np.zeros(len(tokens)) for _ in range(3))
        for term, context, token in ((first, (start, start), tokens),
                                     (second, (start, tokens), after),
                                     (third, (tokens, after),
                                      after[windows.succ])):
            known = token >= 0      # then its context ids are known too
            term[known] = self.code_model.log_probs(
                names, context[0][known], context[1][known], token[known])
        s = windows.steps
        return (first[s[0]] + second[s[0]] + third[s[0]] + third[s[1]]
                + third[s[2]] + third[s[3]])

    def _data_lp_bytes(self, text: bytes) -> np.ndarray:
        table = np.array([self.data_model.log_prob_byte(b)
                          for b in range(256)])
        return table[np.frombuffer(text, np.uint8)]

    @staticmethod
    def _ascii_penalty(text: bytes) -> np.ndarray:
        penalty = np.zeros(len(text))
        for run in terminated_ascii_runs(text):
            penalty[run.start:run.end] = ASCII_PENALTY
        return penalty
