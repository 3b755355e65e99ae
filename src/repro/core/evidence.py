"""Classification state and evidence priorities for prioritized correction.

The correction engine maintains a per-byte classification with the
priority of the evidence that produced it.  Stronger evidence may
overwrite weaker decisions (that is the "error correction"); equal or
weaker evidence that contradicts an existing decision is rejected.
The evidence itself travels as the engine's claims
(:mod:`repro.core.engine.facts`).
"""

from __future__ import annotations

import enum


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


class ClassificationState:
    """Per-byte labels plus the priority that fixed each byte."""

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
        return self.labels[offset] in (Classification.CODE_START,
                                       Classification.CODE_INTERIOR)

    def is_data(self, offset: int) -> bool:
        return self.labels[offset] == Classification.DATA

    def instruction_starts(self) -> set[int]:
        return {i for i, label in enumerate(self.labels)
                if label == Classification.CODE_START}

    def unknown_gaps(self) -> list[tuple[int, int]]:
        """Maximal [start, end) runs still unclassified."""
        gaps = []
        start = None
        for i, label in enumerate(self.labels):
            if label == Classification.UNKNOWN and start is None:
                start = i
            elif label != Classification.UNKNOWN and start is not None:
                gaps.append((start, i))
                start = None
        if start is not None:
            gaps.append((start, self.size))
        return gaps

    def data_regions(self) -> list[tuple[int, int]]:
        regions = []
        start = None
        for i, label in enumerate(self.labels):
            if label == Classification.DATA and start is None:
                start = i
            elif label != Classification.DATA and start is not None:
                regions.append((start, i))
                start = None
        if start is not None:
            regions.append((start, self.size))
        return regions

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def can_mark_instruction(self, offset: int, length: int,
                             priority: Priority) -> bool:
        """Would marking this instruction contradict stronger evidence?"""
        end = min(offset + length, self.size)
        if self.labels[offset] == Classification.CODE_INTERIOR \
                and self.priorities[offset] >= priority:
            return False
        for i in range(offset, end):
            label = self.labels[i]
            if label == Classification.DATA \
                    and self.priorities[i] >= priority:
                return False
            if i > offset and label == Classification.CODE_START \
                    and self.priorities[i] >= priority:
                return False
        return True

    def mark_instruction(self, offset: int, length: int,
                         priority: Priority) -> None:
        """Record an accepted instruction; caller checked for conflicts."""
        end = min(offset + length, self.size)
        self.labels[offset] = Classification.CODE_START
        self.priorities[offset] = max(self.priorities[offset], priority)
        for i in range(offset + 1, end):
            self.labels[i] = Classification.CODE_INTERIOR
            self.priorities[i] = max(self.priorities[i], priority)

    def can_mark_data(self, start: int, end: int,
                      priority: Priority) -> bool:
        for i in range(start, min(end, self.size)):
            if self.labels[i] in (Classification.CODE_START,
                                  Classification.CODE_INTERIOR) \
                    and self.priorities[i] >= priority:
                return False
        return True

    def mark_data(self, start: int, end: int, priority: Priority) -> None:
        for i in range(start, min(end, self.size)):
            self.labels[i] = Classification.DATA
            self.priorities[i] = max(self.priorities[i], priority)
