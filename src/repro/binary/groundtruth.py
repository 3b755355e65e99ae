"""Ground-truth labels for a generated binary.

The synthetic compiler knows exactly what every byte of the text section
is; the evaluation harness compares disassembler output against these
labels.  (The original paper had to reconstruct ground truth from a
second, metadata-rich build of each binary; the synthetic setting gives
it to us exactly.)

Labels are per byte of the text section:

* ``INSN_START``  -- first byte of a real instruction,
* ``INSN_INTERIOR`` -- continuation byte of a real instruction,
* ``DATA`` -- embedded data (jump tables, literals, strings),
* ``PADDING`` -- alignment filler between functions; by convention
  padding counts as neither code nor data for accuracy metrics (tools
  are not penalized either way), matching common practice.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field


class ByteKind(enum.IntEnum):
    INSN_START = 0
    INSN_INTERIOR = 1
    DATA = 2
    PADDING = 3


@dataclass(frozen=True)
class FunctionInfo:
    """Ground-truth extent of one generated function."""

    name: str
    entry: int
    end: int   # one past the last byte belonging to the function

    def __contains__(self, offset: int) -> bool:
        return self.entry <= offset < self.end


@dataclass
class GroundTruth:
    """Exact labels for every byte of a text section.

    Offsets are relative to the start of the text section.
    """

    size: int
    labels: bytearray = field(default=None)  # type: ignore[assignment]
    functions: list[FunctionInfo] = field(default_factory=list)
    jump_tables: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.labels is None:
            self.labels = bytearray(bytes([ByteKind.PADDING]) * self.size)
        if len(self.labels) != self.size:
            raise ValueError("label array size mismatch")

    # ------------------------------------------------------------------
    # Label writing (used by the generator)
    # ------------------------------------------------------------------

    def mark_instruction(self, offset: int, length: int) -> None:
        self._fill(offset, offset + length, ByteKind.INSN_INTERIOR)
        self._fill(offset, offset + 1, ByteKind.INSN_START)

    def mark_data(self, start: int, end: int) -> None:
        self._fill(start, end, ByteKind.DATA)

    def mark_padding(self, start: int, end: int) -> None:
        self._fill(start, end, ByteKind.PADDING)

    def _fill(self, start: int, end: int, kind: ByteKind) -> None:
        """Label [start, end), clamped to the section."""
        start, end = max(start, 0), min(end, self.size)
        if start < end:
            self.labels[start:end] = bytes([kind]) * (end - start)

    def add_function(self, name: str, entry: int, end: int) -> None:
        self.functions.append(FunctionInfo(name, entry, end))

    def add_jump_table(self, start: int, end: int) -> None:
        self.jump_tables.append((start, end))
        self.mark_data(start, end)

    # ------------------------------------------------------------------
    # Queries (used by the evaluation harness)
    # ------------------------------------------------------------------

    @property
    def instruction_starts(self) -> set[int]:
        return {m.start() for m in re.finditer(
            re.escape(bytes([ByteKind.INSN_START])), self.labels)}

    @property
    def code_bytes(self) -> int:
        return self.labels.count(ByteKind.INSN_START) + \
            self.labels.count(ByteKind.INSN_INTERIOR)

    @property
    def data_bytes(self) -> int:
        return self.labels.count(ByteKind.DATA)

    @property
    def padding_bytes(self) -> int:
        return self.labels.count(ByteKind.PADDING)

    @property
    def function_entries(self) -> set[int]:
        return {f.entry for f in self.functions}

    def kind_at(self, offset: int) -> ByteKind:
        return ByteKind(self.labels[offset])

    def is_code(self, offset: int) -> bool:
        return self.labels[offset] in (ByteKind.INSN_START,
                                       ByteKind.INSN_INTERIOR)

    def data_regions(self) -> list[tuple[int, int]]:
        """Maximal [start, end) runs labeled DATA."""
        return self._runs(ByteKind.DATA)

    def padding_regions(self) -> list[tuple[int, int]]:
        return self._runs(ByteKind.PADDING)

    def _runs(self, kind: ByteKind) -> list[tuple[int, int]]:
        return [m.span() for m in re.finditer(
            re.escape(bytes([kind])) + b"+", self.labels)]

    # ------------------------------------------------------------------
    # Serialization (JSON sidecar, kept separate from the binary)
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "size": self.size,
            "labels": self.labels.hex(),
            "functions": [[f.name, f.entry, f.end] for f in self.functions],
            "jump_tables": list(self.jump_tables),
        })

    @classmethod
    def from_json(cls, text: str) -> GroundTruth:
        raw = json.loads(text)
        gt = cls(size=raw["size"], labels=bytearray.fromhex(raw["labels"]))
        gt.functions = [FunctionInfo(n, e, x) for n, e, x in raw["functions"]]
        gt.jump_tables = [tuple(t) for t in raw["jump_tables"]]
        return gt
