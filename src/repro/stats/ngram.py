"""Instruction-sequence n-gram language model.

Real machine code is extremely regular at the level of *normalized*
instructions: ``push rbp`` is followed by ``mov rbp, rsp`` far more often
than chance, ALU results feed stores, compares feed branches.  Byte
sequences that happen to decode (data, or mid-instruction starts)
produce token sequences with very low probability under a model trained
on real code.  This is the "statistical properties" half of the paper's
detector.

Tokens normalize away immediates, displacement values and exact
registers, keeping the mnemonic, coarse operand shapes, and width --
enough structure to be predictive, little enough to generalize.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterable
from itertools import repeat

import numpy as np

from ..isa.instruction import Instruction
from ..isa.operands import ImmOp, MemOp, RegOp, RelOp

#: Pseudo-tokens marking sequence boundaries.
START = "<s>"
END = "</s>"


def token_of(instruction: Instruction) -> str:
    """Normalize an instruction to its model token."""
    shapes = []
    for operand in instruction.operands:
        if isinstance(operand, RegOp):
            shapes.append(f"r{operand.register.width}")
        elif isinstance(operand, ImmOp):
            shapes.append("i")
        elif isinstance(operand, MemOp):
            shapes.append("M" if operand.rip_relative else "m")
        elif isinstance(operand, RelOp):
            shapes.append("rel")
    return instruction.mnemonic + ":" + "".join(shapes)


class NgramModel:
    """An interpolated trigram model over instruction tokens.

    Probabilities interpolate trigram, bigram, unigram and a uniform
    floor so unseen sequences score low but never -inf.
    """

    def __init__(self, weights: tuple[float, float, float, float]
                 = (0.55, 0.30, 0.14, 0.01)) -> None:
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("interpolation weights must sum to 1")
        self.weights = weights
        self.unigrams: Counter[str] = Counter()
        self.bigrams: Counter[tuple[str, str]] = Counter()
        self.trigrams: Counter[tuple[str, str, str]] = Counter()
        self.bigram_context: Counter[str] = Counter()
        self.trigram_context: Counter[tuple[str, str]] = Counter()
        self.total = 0

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(self, sequences: Iterable[list[str]]) -> None:
        for sequence in sequences:
            padded = [START, START] + list(sequence) + [END]
            for i in range(2, len(padded)):
                t1, t2, t3 = padded[i - 2], padded[i - 1], padded[i]
                self.unigrams[t3] += 1
                self.bigrams[(t2, t3)] += 1
                self.trigrams[(t1, t2, t3)] += 1
                self.bigram_context[t2] += 1
                self.trigram_context[(t1, t2)] += 1
                self.total += 1

    @property
    def vocabulary_size(self) -> int:
        return max(len(self.unigrams), 1)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def log_prob(self, token: str, context: tuple[str, str]) -> float:
        """log P(token | context) under the interpolated model."""
        ids = np.arange(3)[:, None]
        return float(self.log_probs([*context, token], *ids)[0])

    def log_probs(self, names: list[str], t1: np.ndarray, t2: np.ndarray,
                  token: np.ndarray) -> np.ndarray:
        """log P(``names[token]`` | ``names[t1]``, ``names[t2]``) over
        arrays of ids into ``names``, computed once per distinct triple
        (a fixed float order and ``math.log``: batching never moves a bit).
        """
        base = len(names)
        unique, inverse = np.unique((t1 * base + t2) * base + token,
                                    return_inverse=True)
        t1, t2, token = unique // base**2, unique // base % base, unique % base
        w3, w2, w1, w0 = self.weights
        p = np.full(len(unique), w0 / self.vocabulary_size)
        if self.total:
            p += w1 * _counts(self.unigrams, names, token) / self.total
        c2 = _counts(self.bigram_context, names, t2)
        seen = c2 > 0
        p[seen] += w2 * _counts(self.bigrams, names, t2[seen],
                                token[seen]) / c2[seen]
        c3 = _counts(self.trigram_context, names, t1, t2)
        seen = c3 > 0
        p[seen] += w3 * _counts(self.trigrams, names, t1[seen], t2[seen],
                                token[seen]) / c3[seen]
        return np.array(list(map(math.log, p.tolist())))[inverse]

    def score_sequence(self, tokens: list[str]) -> float:
        """Total log-probability of a token sequence (without END)."""
        context = (START, START)
        total = 0.0
        for token in tokens:
            total += self.log_prob(token, context)
            context = (context[1], token)
        return total

    def score_instructions(self, instructions: list[Instruction]) -> float:
        return self.score_sequence([token_of(i) for i in instructions])

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "weights": list(self.weights),
            "total": self.total,
            "unigrams": dict(self.unigrams),
            "bigrams": {f"{a}\t{b}": c
                        for (a, b), c in self.bigrams.items()},
            "trigrams": {f"{a}\t{b}\t{c}": n
                         for (a, b, c), n in self.trigrams.items()},
        })

    @classmethod
    def from_json(cls, text: str) -> NgramModel:
        raw = json.loads(text)
        model = cls(weights=tuple(raw["weights"]))
        model.total = raw["total"]
        model.unigrams = Counter(raw["unigrams"])
        for key, count in raw["bigrams"].items():
            a, b = key.split("\t")
            model.bigrams[(a, b)] = count
            model.bigram_context[a] += count
        for key, count in raw["trigrams"].items():
            a, b, c = key.split("\t")
            model.trigrams[(a, b, c)] = count
            model.trigram_context[(a, b)] += count
        return model


def _counts(counts: Counter, names: list[str], *ids: np.ndarray
            ) -> np.ndarray:
    """``counts[key]`` per element, ``key`` the name (or the tuple of
    names) of the ids, looked up once per distinct key."""
    base = len(names)
    keys = ids[0]
    for more in ids[1:]:
        keys = keys * base + more
    unique, inverse = np.unique(keys, return_inverse=True)
    named = np.array(names, dtype=object)
    columns = []
    for _ in ids:
        unique, digit = np.divmod(unique, base)
        columns.append(named[digit].tolist())
    keyed = zip(*reversed(columns)) if len(ids) > 1 else columns[0]
    return np.array(list(map(counts.get, keyed, repeat(0))),
                    dtype=np.int64)[inverse]
