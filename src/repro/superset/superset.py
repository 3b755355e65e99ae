"""Superset disassembly: a candidate instruction at every byte offset.

The true disassembly of a text section is a subset of the superset
(every real instruction start decodes successfully), so computing the
superset first and then *deleting* wrong candidates -- rather than
guessing a single linear or recursive traversal -- is the foundation of
the paper's approach.
"""

from __future__ import annotations

import functools
from functools import cached_property

import numpy as np

from ..isa.columns import COLUMNS, Columns, decode_columns
from ..isa.decoder import decoder_backend, try_decode
from ..isa.instruction import Instruction
from ..isa.tables import MAX_INSTRUCTION_LENGTH
from ..obs.metrics import REGISTRY

#: Bytes the decoder may read from an offset before it commits to a
#: result: the architectural limit plus a bounded overrun of
#: prefix/immediate bytes, doubled to stay safely conservative.
#: Changing a byte changes no candidate further than this behind it.
DECODE_WINDOW = 2 * MAX_INSTRUCTION_LENGTH + 2

#: Instructions in the fall-through window (:class:`ChainWindows`) that
#: statistical and behavioral scoring examine per candidate.
CHAIN_WINDOW = 6


class Superset:
    """All candidate instructions of a text section, indexed by offset.

    The candidates are held as per-offset columns (see
    :mod:`repro.isa.columns`); :meth:`at` builds an
    :class:`Instruction` only when a caller asks for one.
    """

    def __init__(self, text: bytes, columns: Columns,
                 built: dict[int, Instruction] | None = None) -> None:
        self.text = text
        self.columns = columns
        #: The columns as memoryviews, for per-offset reads in Python
        #: loops (an item is a Python scalar, not a numpy one).
        self.views = Columns(**{name: memoryview(getattr(columns, name))
                                for name in COLUMNS})
        self._valid = self.views.valid
        #: The instructions :meth:`at` has built so far, by offset.
        self.built = {} if built is None else built

    @classmethod
    def build(cls, text: bytes) -> Superset:
        """Decode the candidate at every offset, in whole-section array
        passes."""
        _DECODED_OFFSETS.inc(len(text), backend=decoder_backend())
        return cls(text, decode_columns(text))

    def __len__(self) -> int:
        return len(self.text)

    def at(self, offset: int) -> Instruction | None:
        """The candidate starting at ``offset`` (None if undecodable).

        Built on first use through this module's ``try_decode``, read at
        call time, so the ``REPRO_DECODER`` seam and test doubles apply.
        """
        if 0 <= offset < len(self._valid) and self._valid[offset]:
            instruction = self.built.get(offset)
            if instruction is None:
                instruction = self.built[offset] = try_decode(self.text,
                                                              offset)
            return instruction
        return None

    def is_valid(self, offset: int) -> bool:
        return 0 <= offset < len(self._valid) and self._valid[offset]

    @cached_property
    def valid_offsets(self) -> np.ndarray:
        return np.flatnonzero(self.columns.valid)

    def fallthrough_chain(self, offset: int, limit: int) -> list[Instruction]:
        """Up to ``limit`` candidates following only fall-through edges.

        The chain stops at non-fall-through flow, at undecodable bytes,
        or at the end of the section.
        """
        chain: list[Instruction] = []
        ins = self.at(offset)
        while ins is not None and len(chain) < limit:
            chain.append(ins)
            ins = self.at(ins.end) if ins.falls_through else None
        return chain

    @cached_property
    def table_candidates(self) -> list:
        """Pointer-table candidates with decodable targets, scanned
        once per section for every claim linted over it.  A
        disassembly of this superset stores its own scan here."""
        from ..stats.datamodel import find_jump_tables
        return find_jump_tables(self.text, is_plausible_target=self.is_valid)

    @cached_property
    def windows(self) -> ChainWindows:
        """The chain windows of every valid offset (built once)."""
        return ChainWindows(self, self.valid_offsets, self.valid_offsets)

    def windows_of(self, roots: list[int]) -> ChainWindows:
        """The chain windows of ``roots`` alone (an undecodable root
        gets an empty one), read from their window closure only: at
        most :data:`CHAIN_WINDOW` instructions per root."""
        columns = self.columns
        roots = np.asarray(roots, dtype=np.int64)
        step = roots[columns.valid[roots]]
        reached = [step]
        for _ in range(1, CHAIN_WINDOW):
            ends = step + columns.length[step]
            step = ends[columns.falls[step] & (ends < len(self))]
            step = step[columns.valid[step]]
            reached.append(step)
        return ChainWindows(self, np.unique(np.concatenate(reached)), roots)


class ChainWindows:
    """The fall-through windows of some roots, as index arrays.

    A reached candidate's *position* is its rank in ``offsets``;
    position ``m = len(offsets)`` is the chain-end sentinel.  ``succ``
    maps a position to its fall-through successor (``m`` where the
    chain stops) and ``steps[k, i]`` is the k-th window instruction of
    root ``i``, so a window term is at most :data:`CHAIN_WINDOW` gathers
    of per-position columns (:meth:`column`) whose sentinel row is
    neutral.
    """

    def __init__(self, superset: Superset, offsets: np.ndarray,
                 roots: np.ndarray) -> None:
        self.columns = superset.columns
        self.offsets = offsets
        self.roots = roots
        m = len(offsets)
        self.ends = self.column("length").astype(np.int64)
        self.ends[:m] += offsets
        self.falls = self.column("falls")
        position = np.full(len(superset) + 1, m)
        position[offsets] = np.arange(m)
        self.succ = np.where(self.falls, position[self.ends], m)
        steps = [position[roots]]
        for _ in range(1, CHAIN_WINDOW):
            steps.append(self.succ[steps[-1]])
        self.steps = np.array(steps)
        #: Instructions in each root's window, and the last one's position.
        self.length = (self.steps < m).sum(axis=0)
        self.last = self.steps[self.length - 1, np.arange(len(roots))]

    def column(self, name: str, sentinel=0) -> np.ndarray:
        """Per-position values of the superset column ``name``, with a
        ``sentinel`` row."""
        values = getattr(self.columns, name)
        return np.append(values[self.offsets], values.dtype.type(sentinel))


_SUPERSET_CACHE = REGISTRY.counter(
    "repro_superset_cache_total",
    "Process-wide superset-construction cache lookups, by outcome")


_DECODED_OFFSETS = REGISTRY.counter(
    "repro_superset_decoded_offsets_total",
    "Superset offsets swept, by decoder backend")


_DECODE_ERRORS = REGISTRY.counter(
    "repro_decode_errors_total",
    "Superset offsets at which no instruction decodes")


@functools.lru_cache(maxsize=4)
def _cached_build(text: bytes) -> Superset:
    _SUPERSET_CACHE.inc(outcome="miss")
    superset = Superset.build(text)
    _DECODE_ERRORS.inc(len(text) - len(superset.valid_offsets))
    return superset


def cached_superset(text: bytes) -> Superset:
    """A process-wide :meth:`Superset.build` cache keyed by section bytes.

    Evaluating a corpus runs several tools over the *same* text section,
    and superset construction is the single most expensive step each of
    them shares.  Consumers treat the superset as read-only, so handing
    every tool the same instance is safe.  The small LRU bound keeps at
    most a few sections' candidate lists alive.
    """
    misses = _cached_build.cache_info().misses
    result = _cached_build(text)
    if _cached_build.cache_info().misses == misses:
        _SUPERSET_CACHE.inc(outcome="hit")
    return result


cached_superset.cache_clear = _cached_build.cache_clear  # type: ignore[attr-defined]
cached_superset.cache_info = _cached_build.cache_info    # type: ignore[attr-defined]
