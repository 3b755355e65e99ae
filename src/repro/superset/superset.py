"""Superset disassembly: a candidate instruction at every byte offset.

The true disassembly of a text section is a subset of the superset
(every real instruction start decodes successfully), so computing the
superset first and then *deleting* wrong candidates -- rather than
guessing a single linear or recursive traversal -- is the foundation of
the paper's approach.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import attrgetter

import numpy as np

from ..isa.decoder import decoder_backend, try_decode
from ..isa.instruction import Instruction
from ..isa.opcodes import NO_FALLTHROUGH
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


@dataclass
class Superset:
    """All candidate instructions of a text section, indexed by offset."""

    text: bytes
    instructions: list[Instruction | None]

    @classmethod
    def build(cls, text: bytes) -> Superset:
        """Decode a candidate at every offset (None where decoding fails).

        The decoder is read through this module's ``try_decode`` at
        call time, so the ``REPRO_DECODER`` seam and test doubles apply.
        """
        instructions = list(map(try_decode, repeat(text), range(len(text))))
        _DECODED_OFFSETS.inc(len(text), backend=decoder_backend())
        return cls(text=text, instructions=instructions)

    def __len__(self) -> int:
        return len(self.text)

    def at(self, offset: int) -> Instruction | None:
        """The candidate starting at ``offset`` (None if undecodable)."""
        if 0 <= offset < len(self.instructions):
            return self.instructions[offset]
        return None

    def is_valid(self, offset: int) -> bool:
        return self.at(offset) is not None

    @cached_property
    def valid_offsets(self) -> list[int]:
        return [o for o, ins in enumerate(self.instructions)
                if ins is not None]

    @cached_property
    def invalid_offsets(self) -> frozenset[int]:
        return frozenset(o for o, ins in enumerate(self.instructions)
                         if ins is None)

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
        reached = {ins.offset for root in roots
                   for ins in self.fallthrough_chain(root, CHAIN_WINDOW)}
        return ChainWindows(self, sorted(reached), roots)


class ChainWindows:
    """The fall-through windows of some roots, as index arrays.

    A reached candidate's *position* is its rank in ``offsets``;
    position ``m = len(offsets)`` is the chain-end sentinel.  ``succ``
    maps a position to its fall-through successor (``m`` where the
    chain stops) and ``steps[k, i]`` is the k-th window instruction of
    root ``i``, so a window term is at most :data:`CHAIN_WINDOW` gathers
    of per-position columns whose sentinel row is neutral.  Decoding is
    a pure function of the encoded bytes, so instruction properties are
    read once per distinct encoding and spread through ``kinds``.
    """

    def __init__(self, superset: Superset, offsets: list[int],
                 roots: list[int]) -> None:
        reached = list(map(superset.instructions.__getitem__, offsets))
        raws = list(map(attrgetter("raw"), reached))
        encoding = dict(zip(raws, reached))
        index = dict(zip(encoding, range(len(encoding))))
        self.encodings = list(encoding.values())
        self.kinds = np.append(np.fromiter(map(index.__getitem__, raws),
                                           np.int64, len(raws)), len(index))
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.roots = (self.offsets if roots is offsets
                      else np.asarray(roots, dtype=np.int64))
        m = len(offsets)
        # An instruction's length is the size of its encoding.
        self.ends = self.column(np.fromiter(map(len, encoding), np.int64,
                                            len(encoding)))
        self.ends[:m] += self.offsets
        self.flows = self.attribute("flow", object)
        self.falls = self.column(~np.logical_or.reduce(
            [self.flows == kind for kind in NO_FALLTHROUGH]))
        position = np.full(len(superset) + 1, m)
        position[self.offsets] = np.arange(m)
        self.succ = np.where(self.falls, position[self.ends], m)
        steps = [position[self.roots]]
        for _ in range(1, CHAIN_WINDOW):
            steps.append(self.succ[steps[-1]])
        self.steps = np.array(steps)
        #: Instructions in each root's window, and the last one's position.
        self.length = (self.steps < m).sum(axis=0)
        self.last = self.steps[self.length - 1, np.arange(len(roots))]

    @cached_property
    def relative_targets(self) -> tuple[np.ndarray, ...]:
        """Per encoding: has a direct jump/call target, that target minus
        the offset, has a RIP-relative target, that one minus the offset
        (0 where absent; decoding is position independent)."""
        columns = []
        for targets in ([ins.branch_target if ins.is_direct_branch else None
                         for ins in self.encodings],
                        list(map(attrgetter("rip_target"), self.encodings))):
            columns += [np.array([t is not None for t in targets], bool),
                        np.array([0 if t is None else t - ins.offset for t, ins
                                  in zip(targets, self.encodings)], np.int64)]
        return tuple(columns)

    def attribute(self, name: str, dtype, convert=None) -> np.ndarray:
        """Attribute ``name`` (through ``convert``) of every encoding."""
        values = map(attrgetter(name), self.encodings)
        if convert is not None:
            values = map(convert, values)
        return np.fromiter(values, dtype, len(self.encodings))

    def column(self, values: np.ndarray) -> np.ndarray:
        """Per-position column of per-encoding ``values``, with a zero
        sentinel row."""
        return np.append(values, values.dtype.type(0))[self.kinds]


def no_overlap(starts: set[int], superset: Superset) -> bool:
    """True when the chosen instruction starts are mutually non-overlapping."""
    covered_until = -1
    for start in sorted(starts):
        ins = superset.at(start)
        if ins is None:
            return False
        if start < covered_until:
            return False
        covered_until = ins.end
    return True


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
    _DECODE_ERRORS.inc(superset.instructions.count(None))
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
