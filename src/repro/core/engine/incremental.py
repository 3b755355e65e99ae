"""Incremental re-disassembly: recompute only inputs changed bytes reach.

A :class:`FactBase` snapshots the byte-supported inputs of one
disassembly -- the text, the superset candidates, and the raw
statistical/behavioral score components.  Given a near-identical
resubmission (patch workflows, rewrite round-trips, serve ``base``
requests), :func:`disassemble_incremental` diffs the bytes,
recomputes exactly the per-offset inputs whose support window touches
a changed span, through the same per-offset code paths a cold run
uses, and re-runs correction in full on them.

The support windows are conservative byte bounds:

* a superset candidate at ``o`` reads at most ``DECODE_WINDOW``
  bytes ahead of ``o`` (the superset's columns are re-decoded, and
  its built instructions dropped, only within that window of a
  change);
* a statistical or behavioral score at ``o`` examines a fall-through
  chain of at most ``CHAIN_WINDOW`` instructions plus one decode
  window -- ``CHAIN_WINDOW * MAX_INSTRUCTION_LENGTH +
  DECODE_WINDOW`` bytes;
* ASCII-run membership can shift far from a patch (a new NUL
  terminates a long printable run), so penalty arrays of old and new
  text are compared directly and differing offsets are rescored too.

Everything retained is bit-identical to what a cold run would compute
(same objects, or values produced by the same float expressions over
unchanged bytes), so the correction phase -- re-run in full on the
patched inputs -- yields a byte-identical result.  The Hypothesis
property suite asserts exactly that for random byte patches.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from ...isa.tables import MAX_INSTRUCTION_LENGTH
from ...obs.metrics import REGISTRY
from ...obs.provenance import ProvenanceLog
from ...obs.trace import current_tracer, phase_span
from ...isa.columns import decode_columns
from ...superset.superset import CHAIN_WINDOW, DECODE_WINDOW, Superset
from ..config import DisassemblerConfig

_INCREMENTAL = REGISTRY.counter(
    "repro_incremental_total",
    "Incremental re-disassembly attempts, by outcome")


@dataclass
class FactBase:
    """The byte-supported inputs of one disassembly, kept for reuse."""

    text: bytes
    superset: Superset
    stat_scores: np.ndarray | None
    behavior_scores: np.ndarray | None
    config: DisassemblerConfig
    prologues: list[int] | None = None

    @classmethod
    def from_run(cls, disassembly, config: DisassemblerConfig) -> FactBase:
        """Snapshot a finished :class:`~repro.core.Disassembly`."""
        return cls(text=disassembly.superset.text,
                   superset=disassembly.superset,
                   stat_scores=disassembly.stat_scores,
                   behavior_scores=disassembly.behavior_scores,
                   config=config,
                   prologues=disassembly.prologues)


@dataclass
class IncrementalStats:
    """What an incremental run reused versus recomputed."""

    total: int
    cold: bool = False
    reason: str = ""
    changed_bytes: int = 0
    spans: int = 0
    redecoded: int = 0
    stat_rescored: int = 0
    behavior_rescored: int = 0
    dirty_ranges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def reused_fraction(self) -> float:
        """Fraction of superset candidates carried over unchanged."""
        if self.cold or not self.total:
            return 0.0
        return 1.0 - self.redecoded / self.total

    def as_dict(self) -> dict:
        return {"cold": self.cold, "reason": self.reason,
                "total": self.total, "changed_bytes": self.changed_bytes,
                "spans": self.spans, "redecoded": self.redecoded,
                "stat_rescored": self.stat_rescored,
                "behavior_rescored": self.behavior_rescored,
                "reused_fraction": round(self.reused_fraction, 4)}


def diff_spans(old: bytes, new: bytes) -> list[tuple[int, int]]:
    """Maximal [start, end) spans where the two texts differ."""
    if len(old) != len(new):
        raise ValueError("diff_spans requires equal-length texts")
    if not old:
        return []
    a = np.frombuffer(old, dtype=np.uint8)
    b = np.frombuffer(new, dtype=np.uint8)
    changed = np.flatnonzero(a != b)
    if changed.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(changed) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [changed.size - 1]))
    return [(int(changed[s]), int(changed[e]) + 1)
            for s, e in zip(starts, ends)]


def _dirty_ranges(spans: list[tuple[int, int]], back: int,
                  size: int) -> list[tuple[int, int]]:
    """Widen each changed span ``back`` bytes left, then merge overlaps."""
    merged: list[tuple[int, int]] = []
    for start, end in spans:
        lo, hi = max(0, start - back), min(end, size)
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _range_offsets(ranges: list[tuple[int, int]]):
    for start, end in ranges:
        yield from range(start, end)


def _grow(array: np.ndarray, size: int) -> np.ndarray:
    """A writable copy of ``array`` zero-extended to ``size`` entries.

    The extension is always inside a dirty range (the grown tail is a
    changed span), so its placeholder values are fully recomputed.
    """
    out = np.zeros(size, dtype=array.dtype)
    out[:len(array)] = array
    return out


def _patch_prologues(old: list[int], superset: Superset,
                     ranges: list[tuple[int, int]]) -> list[int]:
    """Re-test the prologue idiom only at dirty aligned offsets.

    ``prologue_score`` reads a fall-through chain of at most
    ``PROLOGUE_LOOKAHEAD`` instructions (< one score dirty window), so
    aligned offsets outside ``ranges`` keep their old verdict.
    """
    from ...analysis.idioms import (FUNCTION_ALIGNMENT, PROLOGUE_THRESHOLD,
                                    prologue_score)
    dirty: set[int] = set()
    for start, end in ranges:
        first = max(0, start - start % FUNCTION_ALIGNMENT)
        dirty.update(range(first, end, FUNCTION_ALIGNMENT))
    kept = [o for o in old if o not in dirty]
    kept.extend(o for o in sorted(dirty)
                if o < len(superset) and superset.is_valid(o)
                and prologue_score(superset, o) >= PROLOGUE_THRESHOLD)
    return sorted(kept)


def _patch_superset(old: Superset, text: bytes,
                    spans: list[tuple[int, int]],
                    stats: IncrementalStats) -> Superset:
    """Re-decode only offsets whose decode window touches a change.

    Columns outside the windows are carried over: their bytes are
    identical, and decoding is a pure function of the bounded byte
    window.  Each window is re-decoded in one array pass and spliced
    in, and the old superset's built instructions are kept only
    outside the windows.
    """
    columns = old.columns.resized(len(text))
    dirty = np.zeros(len(text), bool)
    for start, end in _dirty_ranges(spans, DECODE_WINDOW - 1, len(text)):
        columns.assign(start, decode_columns(text, start, end))
        dirty[start:end] = True
        stats.redecoded += end - start
    kept = {offset: instruction
            for offset, instruction in old.built.items()
            if not dirty[offset]}
    return Superset(text, columns, kept)


def disassemble_incremental(disassembler, base: FactBase, target,
                            entry: int | None = None, *,
                            timings: dict[str, float] | None = None):
    """Re-disassemble ``target`` reusing ``base`` where bytes agree.

    Returns ``(disassembly, stats)``.  Falls back to a full cold run
    (and says so in ``stats.reason``) when the snapshot cannot be
    reused exactly: different config, a shrunk text, or a snapshot
    missing a score component the config needs.  A *grown* text is
    handled incrementally (the extension is treated as changed bytes).
    """
    from ..disassembler import _extract, combine_scores
    config = disassembler.config
    text, resolved_entry, image = _extract(target, entry)
    stats = IncrementalStats(total=len(text))

    def cold(reason: str):
        stats.cold = True
        stats.reason = reason
        _INCREMENTAL.inc(outcome=f"cold-{reason}")
        disassembly = disassembler.disassemble_rich(target, entry=entry,
                                                    timings=timings)
        return disassembly, stats

    if config != base.config:
        return cold("config")
    if len(text) < len(base.text):
        return cold("shrunk")
    if config.use_statistics and base.stat_scores is None:
        return cold("no-stat-snapshot")
    if config.use_behavior and base.behavior_scores is None:
        return cold("no-behavior-snapshot")

    # A grown text (rewrite round-trips: the pinned-data layout keeps
    # the original image as a prefix and appends relocated code) is the
    # equal-length case plus one changed span covering the extension.
    prefix = len(base.text)
    spans = diff_spans(base.text, text[:prefix])
    if len(text) > prefix:
        spans.append((prefix, len(text)))
    stats.spans = len(spans)
    stats.changed_bytes = sum(end - start for start, end in spans)
    _INCREMENTAL.inc(outcome="incremental")

    timings = timings if timings is not None else {}
    provenance = ProvenanceLog() if config.record_provenance else None
    score_back = CHAIN_WINDOW * MAX_INSTRUCTION_LENGTH + DECODE_WINDOW
    score_ranges = _dirty_ranges(spans, score_back, len(text))
    stats.dirty_ranges = score_ranges

    with ExitStack() as stack:
        tracer = current_tracer()
        if tracer is not None:
            stack.enter_context(tracer.span(
                "disassemble", bytes=len(text), entry=resolved_entry,
                incremental=True, changed=stats.changed_bytes))

        with phase_span("superset", timings):
            superset = (_patch_superset(base.superset, text, spans, stats)
                        if spans else base.superset)
            prologues = None
            if base.prologues is not None:
                prologues = _patch_prologues(base.prologues, superset,
                                             score_ranges)

        with phase_span("behavior", timings):
            behavior = None
            if config.use_behavior:
                behavior = _grow(base.behavior_scores, len(text))
                offsets = list(_range_offsets(score_ranges))
                disassembler._analyzer.rescore(superset, offsets, behavior)
                stats.behavior_rescored = len(offsets)

        with phase_span("scoring", timings):
            stat = None
            if config.use_statistics:
                stat = _grow(base.stat_scores, len(text))
                dirty = set(_range_offsets(score_ranges))
                # ASCII-run membership can flip far from the patch
                # (terminators appear or vanish); retract every offset
                # whose penalty differs between the two texts.
                scorer = disassembler._scorer
                old_penalty = scorer._ascii_penalty(base.text)
                new_penalty = scorer._ascii_penalty(text)
                dirty.update(
                    int(o) for o in
                    np.flatnonzero(old_penalty != new_penalty[:prefix]))
                offsets = sorted(dirty)
                scorer.rescore(superset, offsets, stat)
                stats.stat_rescored = len(offsets)
            scores = combine_scores(config, superset, stat, behavior)

        return disassembler._correct(text, resolved_entry, image,
                                     superset, stat, behavior, scores,
                                     timings, provenance,
                                     prologues=prologues), stats
