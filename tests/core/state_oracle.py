"""Per-byte reference for :class:`repro.core.evidence.ClassificationState`.

These are the straightforward one-byte-at-a-time bodies the state's
regex, slice and ``translate`` kernels replaced.  They exist only so the
tests can check the kernels against them; ranges clamp to ``[0, size)``
exactly as the kernels do.
"""

from __future__ import annotations

from repro.core.evidence import Classification, Priority


class OracleState:
    """Per-byte labels plus the priority that fixed each byte."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.labels = bytearray(size)
        self.priorities = bytearray(size)

    def _runs(self, label: int) -> list[tuple[int, int]]:
        runs = []
        start = None
        for i, value in enumerate(self.labels):
            if value == label and start is None:
                start = i
            elif value != label and start is not None:
                runs.append((start, i))
                start = None
        if start is not None:
            runs.append((start, self.size))
        return runs

    def instruction_starts(self) -> set[int]:
        return {i for i, label in enumerate(self.labels)
                if label == Classification.CODE_START}

    def unknown_gaps(self) -> list[tuple[int, int]]:
        return self._runs(Classification.UNKNOWN)

    def data_regions(self) -> list[tuple[int, int]]:
        return self._runs(Classification.DATA)

    def can_mark_instruction(self, offset: int, length: int,
                             priority: Priority) -> bool:
        for i in range(max(offset, 0), min(offset + length, self.size)):
            label = self.labels[i]
            if self.priorities[i] < priority:
                continue
            if label == Classification.DATA:
                return False
            if i == offset and label == Classification.CODE_INTERIOR:
                return False
            if i > offset and label == Classification.CODE_START:
                return False
        return True

    def mark_instruction(self, offset: int, length: int,
                         priority: Priority) -> None:
        for i in range(max(offset, 0), min(offset + length, self.size)):
            self.labels[i] = (Classification.CODE_START if i == offset
                              else Classification.CODE_INTERIOR)
            self.priorities[i] = max(self.priorities[i], priority)

    def can_mark_data(self, start: int, end: int,
                      priority: Priority) -> bool:
        for i in range(max(start, 0), min(end, self.size)):
            if self.labels[i] in (Classification.CODE_START,
                                  Classification.CODE_INTERIOR) \
                    and self.priorities[i] >= priority:
                return False
        return True

    def mark_data(self, start: int, end: int, priority: Priority) -> None:
        for i in range(max(start, 0), min(end, self.size)):
            self.labels[i] = Classification.DATA
            self.priorities[i] = max(self.priorities[i], priority)
