"""Model training from ground-truth-labeled binaries.

The paper's models are data driven: they are fit on binaries *other*
than those under evaluation.  Here the training corpus is generated with
dedicated seeds (:data:`TRAINING_SEEDS`) that the evaluation corpus
never uses, preserving the train/test separation.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass

from ..binary.loader import TestCase
from ..isa.decoder import try_decode
from .datamodel import DataByteModel
from .ngram import NgramModel, token_of

#: Seeds reserved for training binaries (evaluation uses small seeds).
TRAINING_SEEDS = (90001, 90002, 90003)

#: Function count per training binary of the standard corpus.
TRAINING_FUNCTIONS = 40


@dataclass
class Models:
    """The trained model pair used by the disassembler."""

    code: NgramModel
    data: DataByteModel


def token_sequences(case: TestCase) -> list[list[str]]:
    """Per-function normalized token sequences from ground truth."""
    text = case.text
    truth = case.truth
    starts = sorted(truth.instruction_starts)
    sequences = []
    for function in truth.functions:
        tokens = []
        for offset in starts[bisect_left(starts, function.entry):
                             bisect_left(starts, function.end)]:
            instruction = try_decode(text, offset)
            if instruction is not None:
                tokens.append(token_of(instruction))
        if tokens:
            sequences.append(tokens)
    return sequences


def data_regions(case: TestCase) -> list[bytes]:
    """Raw bytes of every ground-truth data region."""
    text = case.text
    return [text[start:end] for start, end in case.truth.data_regions()]


def train_models(cases: list[TestCase]) -> Models:
    """Fit the code n-gram model and data byte model on labeled cases."""
    code = NgramModel()
    data = DataByteModel()
    for case in cases:
        code.train(token_sequences(case))
        data.train(data_regions(case))
    if data.total == 0:
        # Clean training corpus: fall back to a mildly informative prior
        # (zeros and printable bytes are the dominant data populations).
        data.train([bytes(64), b" " * 16,
                    bytes(range(0x41, 0x7B)) * 2])
    return Models(code=code, data=data)


def default_training_key() -> str:
    """Disk-cache key of the standard training configuration."""
    from .cache import training_key

    return training_key(TRAINING_SEEDS, TRAINING_FUNCTIONS,
                        NgramModel().weights,
                        DataByteModel.UNIFORM_WEIGHT)


@functools.lru_cache(maxsize=1)
def default_models() -> Models:
    """Models trained on the standard training corpus.

    Cached twice over: in-process via ``lru_cache``, and on disk (see
    :mod:`repro.stats.cache`) so fresh processes -- in particular the
    workers of the parallel evaluation driver -- load in milliseconds
    instead of regenerating the training corpus.
    """
    from . import cache

    key = default_training_key()
    use_disk = not cache.cache_disabled()
    if use_disk:
        loaded = cache.load_models(key)
        if loaded is not None:
            return Models(code=loaded[0], data=loaded[1])

    # Imported here to avoid a package cycle (synth does not depend on
    # stats, but stats' default training data comes from synth).
    from ..synth.corpus import generate_corpus

    cases = generate_corpus(seeds=TRAINING_SEEDS,
                            function_count=TRAINING_FUNCTIONS)
    models = train_models(cases)
    if use_disk:
        try:
            cache.save_models(key, models.code, models.data)
        except OSError:
            pass   # read-only cache dir: still usable, just untrained-cached
    return models
