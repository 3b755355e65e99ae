"""Classification state and evidence priorities for prioritized correction.

The correction engine maintains a per-byte classification with the
priority of the evidence that produced it.  Stronger evidence may
overwrite weaker decisions (that is the "error correction"); equal or
weaker evidence that contradicts an existing decision is rejected.
The evidence itself travels as the engine's claims
(:mod:`repro.core.engine.facts`).

Scans and marks are C-level passes: compiled regexes over the labels,
slice assignment, and ``bytes.translate`` for the priority maximum.
"""

from __future__ import annotations

import enum
import re


class Classification(enum.IntEnum):
    UNKNOWN = 0
    CODE_START = 1
    CODE_INTERIOR = 2
    DATA = 3


class Priority(enum.IntEnum):
    """Strength classes of correction evidence, strongest last."""

    SOFT = 1         # statistical / behavioral scores
    IDIOM = 2        # prologue patterns at aligned offsets
    STRUCTURAL = 3   # detected tables, long padding runs
    ANCHOR = 4       # the entry point and propagation from anchors


_UNKNOWN_RUNS = re.compile(rb"\x00+")
_DATA_RUNS = re.compile(rb"\x03+")
_CODE_STARTS = re.compile(rb"\x01")
#: ``_RAISE[p]`` translates each priority byte ``b`` to ``max(b, p)``.
_RAISE = tuple(bytes([p]) * p + bytes(range(p, 256)) for p in range(256))
#: Labels that refute an instruction start at its first byte, past it.
_NO_START_AT = (Classification.CODE_INTERIOR, Classification.DATA)
_NO_START_OVER = (Classification.CODE_START, Classification.DATA)
_CODE = (Classification.CODE_START, Classification.CODE_INTERIOR)


class ClassificationState:
    """Per-byte labels plus the priority that fixed each byte.

    Ranges clamp to ``[0, size)``."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.labels = bytearray(size)        # Classification values
        self.priorities = bytearray(size)    # Priority values (0 = none)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def is_unknown(self, offset: int) -> bool:
        return self.labels[offset] == Classification.UNKNOWN

    def is_code_start(self, offset: int) -> bool:
        return self.labels[offset] == Classification.CODE_START

    def is_code(self, offset: int) -> bool:
        return self.labels[offset] in _CODE

    def is_data(self, offset: int) -> bool:
        return self.labels[offset] == Classification.DATA

    def instruction_starts(self) -> set[int]:
        return {m.start() for m in _CODE_STARTS.finditer(self.labels)}

    def unknown_gaps(self) -> list[tuple[int, int]]:
        """Maximal [start, end) runs still unclassified."""
        return [m.span() for m in _UNKNOWN_RUNS.finditer(self.labels)]

    def data_regions(self) -> list[tuple[int, int]]:
        return [m.span() for m in _DATA_RUNS.finditer(self.labels)]

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def can_mark_instruction(self, offset: int, length: int,
                             priority: Priority) -> bool:
        """Would marking this instruction contradict stronger evidence?"""
        for i in range(max(offset, 0), min(offset + length, self.size)):
            if self.priorities[i] >= priority and self.labels[i] in (
                    _NO_START_AT if i == offset else _NO_START_OVER):
                return False
        return True

    def mark_instruction(self, offset: int, length: int,
                         priority: Priority) -> None:
        """Record an accepted instruction; caller checked for conflicts."""
        start, end = max(offset, 0), min(offset + length, self.size)
        if start < end:
            head = b"\x01" if start == offset else b"\x02"
            self._mark(start, end, head + b"\x02" * (end - start - 1),
                       priority)

    def can_mark_data(self, start: int, end: int,
                      priority: Priority) -> bool:
        start, end = max(start, 0), min(end, self.size)
        return start >= end or not any(
            prio >= priority and label in _CODE
            for label, prio in zip(self.labels[start:end],
                                   self.priorities[start:end]))

    def mark_data(self, start: int, end: int, priority: Priority) -> None:
        start, end = max(start, 0), min(end, self.size)
        if start < end:
            self._mark(start, end, b"\x03" * (end - start), priority)

    def _mark(self, start: int, end: int, labels: bytes,
              priority: Priority) -> None:
        self.labels[start:end] = labels
        self.priorities[start:end] = \
            self.priorities[start:end].translate(_RAISE[priority])
