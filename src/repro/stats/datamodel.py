"""Statistical models of *data*, and structural data detectors.

Two complementary mechanisms:

* :class:`DataByteModel` -- a smoothed byte-unigram distribution trained
  on true data regions.  Embedded data is dominated by a few byte
  populations (zero bytes of wide constants, printable ASCII, small
  offsets), so even a unigram model separates it well from the much more
  uniform byte distribution of code.

* Structure detectors -- :func:`find_jump_tables` and
  :func:`find_ascii_runs` locate the high-confidence shapes: runs of
  aligned pointers into the text section (absolute or self-relative
  jump/pointer tables) and printable-string runs.  Per the paper's key
  idea, a detected table is simultaneously strong *data* evidence for
  its own bytes and strong *code* evidence for its targets.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from collections.abc import Iterable


class DataByteModel:
    """Smoothed byte unigram distribution for data regions.

    The distribution is a mixture of the trained unigram and a uniform
    component.  The uniform share matters: embedded data includes
    high-entropy literal pools whose bytes are individually rare in the
    training data (which is dominated by zero-heavy pointer tables), and
    without the mixture such pools would look *less* data-like than
    code.
    """

    #: Weight of the uniform mixture component.
    UNIFORM_WEIGHT = 0.5

    def __init__(self) -> None:
        self.counts = [0] * 256
        self.total = 0

    def train(self, regions: Iterable[bytes]) -> None:
        for region in regions:
            for byte in region:
                self.counts[byte] += 1
            self.total += len(region)

    def log_prob_byte(self, byte: int) -> float:
        unigram = (self.counts[byte] + 1) / (self.total + 256)
        w = self.UNIFORM_WEIGHT
        return math.log((1 - w) * unigram + w / 256)

    def log_prob(self, blob: bytes) -> float:
        return sum(self.log_prob_byte(b) for b in blob)

    def to_json(self) -> str:
        return json.dumps({"counts": self.counts, "total": self.total})

    @classmethod
    def from_json(cls, text: str) -> DataByteModel:
        raw = json.loads(text)
        model = cls()
        model.counts = list(raw["counts"])
        model.total = raw["total"]
        return model


# ----------------------------------------------------------------------
# Structural detectors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TableCandidate:
    """A detected jump/pointer table in the text section."""

    start: int
    end: int
    entry_size: int          # 8 (absolute) or 4 (self-relative)
    targets: tuple[int, ...]  # referenced text offsets

    @property
    def entry_count(self) -> int:
        return (self.end - self.start) // self.entry_size


#: Fewest consecutive plausible entries that make a table candidate.
MIN_TABLE_ENTRIES = 3


def _read(blob: bytes, offset: int, size: int) -> int:
    return int.from_bytes(blob[offset:offset + size], "little")


def find_jump_tables(text: bytes, *,
                     is_plausible_target=None) -> list[TableCandidate]:
    """Detect runs of aligned pointers into the text section.

    Absolute tables: >= :data:`MIN_TABLE_ENTRIES` consecutive 8-byte
    little-endian values each inside [0, len(text)).  Self-relative
    tables: 4-byte values v such that start+v lies inside the section.
    An optional ``is_plausible_target`` predicate (e.g. "decodes to a
    valid instruction") filters noise.

    Overlapping candidates are resolved greedily, longest-first.
    """
    limit = len(text)
    candidates: list[TableCandidate] = []

    def plausible(target: int) -> bool:
        if not 0 <= target < limit:
            return False
        return is_plausible_target is None or is_plausible_target(target)

    # Absolute 8-byte entries, 8-aligned.
    offset = 0
    while offset + 8 <= limit:
        if offset % 8:
            offset += 8 - offset % 8
            continue
        targets = []
        cursor = offset
        while cursor + 8 <= limit:
            value = _read(text, cursor, 8)
            if not plausible(value):
                break
            targets.append(value)
            cursor += 8
        if len(targets) >= MIN_TABLE_ENTRIES:
            candidates.append(TableCandidate(offset, cursor, 8,
                                             tuple(targets)))
            offset = cursor
        else:
            offset += 8

    # Self-relative 4-byte entries, 4-aligned.
    offset = 0
    while offset + 4 <= limit:
        if offset % 4:
            offset += 4 - offset % 4
            continue
        table_base = offset
        targets = []
        cursor = offset
        while cursor + 4 <= limit:
            value = _read(text, cursor, 4)
            if value >= 2 ** 31:
                value -= 2 ** 32
            target = table_base + value
            # Self-relative entries of real tables are never tiny
            # positive values pointing inside the table itself.
            if not plausible(target) or table_base <= target < cursor + 4:
                break
            targets.append(target)
            cursor += 4
        if len(targets) >= MIN_TABLE_ENTRIES:
            candidates.append(TableCandidate(offset, cursor, 4,
                                             tuple(targets)))
            offset = cursor
        else:
            offset += 4

    return _resolve_overlaps(candidates)


def _resolve_overlaps(candidates: list[TableCandidate]
                      ) -> list[TableCandidate]:
    chosen: list[TableCandidate] = []
    taken: set[int] = set()
    for candidate in sorted(candidates,
                            key=lambda c: (c.start - c.end, c.start)):
        span = range(candidate.start, candidate.end)
        if any(b in taken for b in span):
            continue
        taken.update(span)
        chosen.append(candidate)
    return sorted(chosen, key=lambda c: c.start)


@dataclass(frozen=True)
class AsciiRun:
    start: int
    end: int
    terminated: bool = False   # ends in a NUL byte (C-string shaped)

    @property
    def length(self) -> int:
        return self.end - self.start


#: Maximal printable-ASCII runs (printable bytes plus tab, LF and CR).
_PRINTABLE_RUN = re.compile(rb"[\x20-\x7e\t\n\r]+")


def find_ascii_runs(text: bytes, *, min_length: int = 6) -> list[AsciiRun]:
    """Maximal printable-ASCII runs.

    Runs ending in a NUL byte are flagged ``terminated``: real code can
    contain printable byte runs (push sequences spell "UATAUAV"), but a
    NUL-terminated printable run is almost always a C string.  The
    terminator counts toward the run's length.
    """
    runs = []
    for match in _PRINTABLE_RUN.finditer(text):
        start, end = match.span()
        terminated = end < len(text) and text[end] == 0
        if terminated:
            end += 1
        if end - start >= min_length:
            runs.append(AsciiRun(start, end, terminated=terminated))
    return runs


def find_padding_runs(text: bytes, *, min_length: int = 2,
                      padding_bytes: tuple[int, ...] = (0xCC, 0x00)
                      ) -> list[tuple[int, int]]:
    """Maximal runs of one repeated padding byte (int3, zero)."""
    pattern = b"|".join(re.escape(bytes((byte,))) + b"+"
                        for byte in padding_bytes)
    return [match.span() for match in re.finditer(pattern, text)
            if match.end() - match.start() >= min_length]
