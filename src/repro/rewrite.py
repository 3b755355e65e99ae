"""Static binary rewriting on top of the disassembler.

Accurate disassembly is the prerequisite for binary instrumentation --
the application that motivates the paper.  This module closes the loop:
given a disassembled binary it produces a *rewritten* binary in which

* every instruction is relocated (direct branches re-encoded as near
  forms, RIP-relative displacements re-anchored),
* jump/pointer tables are moved and their entries retargeted,
* data and padding are preserved,
* and, optionally, every function entry is instrumented with a
  profiling counter (``inc qword [rip -> counter]``).

Correctness is checkable end to end: the rewritten binary can be
disassembled again and *executed* in :mod:`repro.emulator`, where it
must behave identically to the original (same return value, same path)
while the counters record function call counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binary.container import Binary, Section
from .core.disassembler import Disassembly
from .core.evidence import Priority
from .isa.decoder import try_decode
from .isa.instruction import Instruction
from .isa.opcodes import FlowKind
from .isa.operands import ImmOp, MemOp

#: Where the counters section of an instrumented binary is placed.
COUNTERS_BASE = 0x400000

#: The near-branch encodings used for all re-emitted direct branches.
_NEAR_JMP_LENGTH = 5     # e9 rel32
_NEAR_JCC_LENGTH = 6     # 0f 8x rel32
_NEAR_CALL_LENGTH = 5    # e8 rel32

#: inc qword [rip+disp32] -- the entry-counter instrumentation.
_COUNTER_STUB_LENGTH = 7   # 48 ff 05 disp32


class RewriteError(RuntimeError):
    """The binary cannot be rewritten from this disassembly."""


def _align16(value: int) -> int:
    return (value + 15) & ~15


@dataclass
class RewrittenBinary:
    """Result of a rewrite: the new binary plus the address maps."""

    binary: Binary
    address_map: dict[int, int]          # old instruction start -> new
    counters: dict[int, int]             # function entry -> counter addr

    @property
    def text(self) -> bytes:
        return self.binary.text.data


@dataclass
class _Piece:
    """One relocatable unit of the original text section."""

    kind: str                 # "insn" | "data" | "counter"
    old_offset: int
    old_length: int
    new_offset: int = 0
    new_length: int = 0
    instruction: Instruction | None = None
    table_entry_size: int = 0          # for retargeted table pieces
    counter_address: int = 0
    #: Copy the piece's bytes untouched (speculative-code pinning).
    verbatim: bool = False


class Rewriter:
    """Relocates one disassembled text section."""

    def __init__(self, disassembly: Disassembly, binary: Binary, *,
                 instrument_entries: bool = True) -> None:
        self.disassembly = disassembly
        self.binary = binary
        self.instrument = instrument_entries
        self.result = disassembly.result
        self.text = binary.text.data
        # Tables we know how to retarget: statistically detected plus
        # resolved-at-trace-time ones, keyed by start offset.
        self.tables: dict[int, tuple[int, int]] = {}
        for table in disassembly.tables:
            self.tables[table.start] = (table.entry_size, table.end)
        for table in (disassembly.resolved_tables or []):
            if table.in_text:
                self.tables.setdefault(table.address,
                                       (table.entry_size, table.end))
        self.pinned = self._speculative_code_ranges()

    # ------------------------------------------------------------------

    def _speculative_code_ranges(self) -> list[tuple[int, int]]:
        """Ranges of SOFT-priority code to be copied byte-for-byte.

        Gap completion and residue realignment accept code
        *speculatively*: no trace from an anchor ever reached those
        bytes.  When the speculation is wrong, the bytes are really
        data -- a string such as ``"warning"`` decodes as short
        conditional branches (``0x77 'w'``, ``0x72 'r'``) -- and
        re-encoding those "branches" as near forms corrupts it for
        whatever reads it through a leaked pointer.  Verbatim emission
        preserves behavior both ways: misread data survives exactly,
        and real-but-unreachable code keeps the bytes it had.

        A range is only pinned when no accepted instruction *outside*
        it branches into it and it contains no identified function
        entry, so everything the rewriter must retarget stays on the
        re-encoding path.
        """
        facts = self.disassembly.facts
        candidates = [f for f in facts
                      if f.label == "code"
                      and f.priority <= Priority.SOFT
                      and facts.classifier_of(f.start, f.end) is f]
        if not candidates:
            return []
        edges = []
        for offset in self.result.instructions:
            instruction = try_decode(self.text, offset)
            if instruction is not None and \
                    instruction.branch_target is not None:
                edges.append((offset, instruction.branch_target))
        entries = self.result.function_entries
        ranges = []
        for fact in candidates:
            if any(fact.start <= t < fact.end for o, t in edges
                   if not fact.start <= o < fact.end):
                continue
            if any(fact.start <= e < fact.end for e in entries):
                continue
            ranges.append((fact.start, fact.end))
        return sorted(ranges)

    def _is_pinned(self, offset: int) -> bool:
        import bisect
        index = bisect.bisect_right(self.pinned, (offset, len(self.text))) - 1
        return index >= 0 and \
            self.pinned[index][0] <= offset < self.pinned[index][1]

    def rewrite(self) -> RewrittenBinary:
        pieces = self._collect_pieces()
        self._layout(pieces)
        address_map = {p.old_offset: p.new_offset for p in pieces
                       if p.kind == "insn"}
        data_map = {}
        for p in pieces:
            if p.kind != "counter":
                data_map.setdefault(p.old_offset, p.new_offset)
        counters = {p.old_offset: p.counter_address for p in pieces
                    if p.kind == "counter"}
        # Branch targets at instrumented entries must hit the counter
        # stub first.
        for p in pieces:
            if p.kind == "counter":
                address_map[p.old_offset] = p.new_offset
        map_target = self._build_map(pieces, address_map, data_map)
        blob = self._emit(pieces, map_target)
        sections = [Section(".text", 0, blob, executable=True)]
        sections += [self._patch_section(s, map_target)
                     for s in self.binary.sections if not s.executable]
        if counters:
            size = 8 * len(counters)
            sections.append(Section(".counters", COUNTERS_BASE,
                                    bytes(size)))
        new_entry = address_map.get(self.binary.entry, 0)
        rewritten = Binary(sections=sections, entry=new_entry)
        return RewrittenBinary(binary=rewritten, address_map=address_map,
                               counters=counters)

    # ------------------------------------------------------------------

    def _collect_pieces(self) -> list[_Piece]:
        pieces: list[_Piece] = []
        instructions = self.result.instructions
        entries = self.result.function_entries
        data_regions = dict(self.result.data_regions)
        counter_index = 0

        offset = 0
        size = len(self.text)
        while offset < size:
            if offset in entries and self.instrument:
                pieces.append(_Piece(
                    kind="counter", old_offset=offset, old_length=0,
                    new_length=_COUNTER_STUB_LENGTH,
                    counter_address=COUNTERS_BASE + 8 * counter_index))
                counter_index += 1
            if offset in instructions:
                instruction = try_decode(self.text, offset)
                if instruction is None:
                    raise RewriteError(
                        f"accepted instruction at {offset:#x} "
                        f"does not decode")
                pinned = self._is_pinned(offset)
                pieces.append(_Piece(
                    kind="insn", old_offset=offset,
                    old_length=instruction.length,
                    new_length=(instruction.length if pinned
                                else self._new_length(instruction)),
                    instruction=instruction, verbatim=pinned))
                offset = instruction.end
                continue
            if offset in data_regions:
                end = data_regions[offset]
                for start, stop, entry_size in self._split_region(offset,
                                                                  end):
                    pieces.append(_Piece(
                        kind="data", old_offset=start,
                        old_length=stop - start, new_length=stop - start,
                        table_entry_size=entry_size))
                offset = end
                continue
            # Unclassified byte (shouldn't happen): copy verbatim.
            pieces.append(_Piece(kind="data", old_offset=offset,
                                 old_length=1, new_length=1))
            offset += 1
        return pieces

    def _split_region(self, start: int, end: int
                      ) -> list[tuple[int, int, int]]:
        """Split a data region at known table boundaries.

        Alignment padding often precedes an inline table inside one
        maximal data region; entry retargeting must begin exactly at the
        table's first entry.
        """
        marks = sorted(t for t in self.tables
                       if start <= t < end)
        segments: list[tuple[int, int, int]] = []
        cursor = start
        for table_start in marks:
            if table_start > cursor:
                segments.append((cursor, table_start, 0))
                cursor = table_start
            entry_size, table_end = self.tables[table_start]
            table_end = min(table_end, end)
            if table_end > cursor:
                segments.append((cursor, table_end, entry_size))
                cursor = table_end
        if cursor < end:
            segments.append((cursor, end, 0))
        return segments

    def _new_length(self, instruction: Instruction) -> int:
        """Re-emitted size: branches become near forms, rest verbatim."""
        target = instruction.branch_target
        if target is None:
            return instruction.length
        if not 0 <= target < len(self.text):
            # A misclassified byte sequence branching nowhere sensible;
            # copied verbatim (it is unreachable in practice).
            return instruction.length
        if instruction.flow is FlowKind.CJUMP:
            if instruction.mnemonic.startswith("j."):
                return _NEAR_JCC_LENGTH
            return instruction.length        # loop/jrcxz: keep rel8
        if instruction.flow is FlowKind.JUMP:
            return _NEAR_JMP_LENGTH
        if instruction.flow is FlowKind.CALL:
            return _NEAR_CALL_LENGTH
        return instruction.length

    def _layout(self, pieces: list[_Piece]) -> None:
        """Pinned-data layout: data never moves, code moves en bloc.

        Programs may *leak* data addresses into observable state (return
        a pointer to a string, compare pointers numerically); relocating
        data then changes behavior even when every reference is
        faithfully retargeted.  So data, padding, and speculative
        verbatim code keep their exact original offsets, while
        re-encoded instructions and counter stubs are laid out
        sequentially in an appendix after the original image.  The
        holes left behind by moved code are filled with ``0xCC`` at
        emission (stray control flow into them traps instead of
        executing stale bytes).
        """
        cursor = _align16(len(self.text))
        for piece in pieces:
            if piece.kind == "data" or piece.verbatim:
                piece.new_offset = piece.old_offset
            else:
                piece.new_offset = cursor
                cursor += piece.new_length
        for section in self.binary.sections:
            if not section.executable and section.addr < cursor and \
                    section.addr >= len(self.text):
                raise RewriteError(
                    f"code appendix (ends {cursor:#x}) would overlap "
                    f"section {section.name} at {section.addr:#x}")

    # ------------------------------------------------------------------

    @staticmethod
    def _build_map(pieces: list[_Piece], address_map: dict[int, int],
                   data_map: dict[int, int]):
        """The old-offset -> new-offset mapping used everywhere.

        Exact instruction starts map through ``address_map`` (with
        counter-stub redirects); other offsets fall back to a range map
        (data pieces keep their length, so intra-piece offsets are
        preserved).
        """
        import bisect

        spans = sorted((p.old_offset, p.old_offset + p.old_length,
                        p.new_offset)
                       for p in pieces if p.kind != "counter")
        starts = [s[0] for s in spans]

        def map_target(old: int) -> int:
            if old in address_map:
                return address_map[old]
            if old in data_map:
                return data_map[old]
            index = bisect.bisect_right(starts, old) - 1
            if index >= 0:
                old_start, old_end, new_start = spans[index]
                if old_start <= old < old_end:
                    return new_start + (old - old_start)
            raise RewriteError(f"unmapped target {old:#x}")

        return map_target

    def _patch_section(self, section: Section, map_target) -> Section:
        """Retarget out-of-text dispatch tables living in this section.

        Out-of-text jump tables hold self-relative entries and pointer
        tables hold absolute text addresses; both must follow the moved
        code.
        """
        tables = [t for t in (self.disassembly.resolved_tables or [])
                  if not t.in_text
                  and section.addr <= t.address < section.end]
        if not tables:
            return section
        data = bytearray(section.data)
        for table in tables:
            base = table.address - section.addr
            for i in range(len(table.targets)):
                position = base + i * table.entry_size
                if table.entry_size == 8:
                    old = int.from_bytes(data[position:position + 8],
                                         "little")
                    if self._inside_text(old):
                        data[position:position + 8] = map_target(
                            old).to_bytes(8, "little")
                else:
                    old_value = int.from_bytes(
                        data[position:position + 4], "little",
                        signed=True)
                    old_target = table.address + old_value
                    if self._inside_text(old_target):
                        new_value = map_target(old_target) - table.address
                        data[position:position + 4] = (
                            new_value & 0xFFFFFFFF).to_bytes(4, "little")
        return Section(section.name, section.addr, bytes(data),
                       section.executable)

    def _emit(self, pieces: list[_Piece], map_target) -> bytes:
        size = max((p.new_offset + p.new_length for p in pieces),
                   default=0)
        out = bytearray(b"\xcc" * size)
        for piece in pieces:
            if piece.kind == "counter":
                disp = piece.counter_address - (piece.new_offset
                                                + _COUNTER_STUB_LENGTH)
                blob = b"\x48\xff\x05" + (disp & 0xFFFFFFFF).to_bytes(
                    4, "little")
            elif piece.kind == "insn":
                blob = self._emit_instruction(piece, map_target)
            else:
                blob = self._emit_data(piece, map_target)
            if len(blob) != piece.new_length:
                raise RewriteError(
                    f"layout mismatch at old {piece.old_offset:#x}")
            out[piece.new_offset:piece.new_offset + len(blob)] = blob
        return bytes(out)

    def _emit_instruction(self, piece: _Piece, map_target) -> bytes:
        instruction = piece.instruction
        if piece.verbatim:
            return instruction.raw
        target = instruction.branch_target
        if target is not None:
            return self._emit_branch(piece, map_target)

        raw = bytearray(instruction.raw)
        rip_operand = next((o for o in instruction.operands
                            if isinstance(o, MemOp) and o.rip_relative),
                           None)
        if rip_operand is not None:
            self._patch_rip(raw, piece, rip_operand, map_target)
        self._patch_absolute(raw, instruction, map_target)
        return bytes(raw)

    def _emit_branch(self, piece: _Piece, map_target) -> bytes:
        instruction = piece.instruction
        if not 0 <= instruction.branch_target < len(self.text):
            return instruction.raw
        new_target = map_target(instruction.branch_target)
        end = piece.new_offset + piece.new_length
        delta = (new_target - end) & 0xFFFFFFFF

        if instruction.flow is FlowKind.CALL:
            return b"\xe8" + delta.to_bytes(4, "little")
        if instruction.flow is FlowKind.JUMP:
            return b"\xe9" + delta.to_bytes(4, "little")
        # Conditional branches.
        if instruction.mnemonic.startswith("j."):
            cc = int(instruction.mnemonic.split(".")[1])
            return bytes([0x0F, 0x80 | cc]) + delta.to_bytes(4, "little")
        # loop/loope/loopne/jrcxz keep their rel8 form; the target must
        # stay in range after relocation.
        short_delta = new_target - end
        if not -128 <= short_delta <= 127:
            raise RewriteError(
                f"rel8-only branch at {piece.old_offset:#x} "
                f"out of range after relocation")
        return instruction.raw[:-1] + (short_delta & 0xFF).to_bytes(
            1, "little")

    def _patch_rip(self, raw: bytearray, piece: _Piece,
                   operand: MemOp, map_target) -> None:
        """Re-anchor a RIP-relative displacement."""
        instruction = piece.instruction
        imm_bytes = sum(o.width // 8 for o in instruction.operands
                        if isinstance(o, ImmOp))
        disp_position = instruction.length - imm_bytes - 4
        old_target = operand.target
        if self._inside_text(old_target):
            new_target = map_target(old_target)
        else:
            new_target = old_target          # other sections stay put
        new_end = piece.new_offset + piece.new_length
        new_disp = (new_target - new_end) & 0xFFFFFFFF
        raw[disp_position:disp_position + 4] = new_disp.to_bytes(
            4, "little")

    def _patch_absolute(self, raw: bytearray, instruction: Instruction,
                        map_target) -> None:
        """Retarget absolute disp32 references into the text section
        (jump-table dispatch, pointer-table loads)."""
        for operand in instruction.operands:
            if not isinstance(operand, MemOp) or operand.rip_relative \
                    or operand.base is not None:
                continue
            if not self._inside_text(operand.disp):
                continue
            new_disp = map_target(operand.disp)
            # Encoding layout is modrm, sib, disp32, imm: the disp field
            # sits immediately before any immediate bytes.
            imm_bytes = sum(o.width // 8 for o in instruction.operands
                            if isinstance(o, ImmOp))
            position = instruction.length - imm_bytes - 4
            raw[position:position + 4] = (new_disp & 0xFFFFFFFF).to_bytes(
                4, "little")

    def _emit_data(self, piece: _Piece, map_target) -> bytes:
        blob = self.text[piece.old_offset:piece.old_offset
                         + piece.old_length]
        if piece.table_entry_size == 8:
            return self._retarget_abs64(blob, map_target)
        if piece.table_entry_size == 4:
            return self._retarget_rel32(piece, blob, map_target)
        return blob

    def _retarget_abs64(self, blob: bytes, map_target) -> bytes:
        out = bytearray()
        for i in range(0, len(blob) - len(blob) % 8, 8):
            value = int.from_bytes(blob[i:i + 8], "little")
            if self._inside_text(value):
                value = map_target(value)
            out += value.to_bytes(8, "little")
        out += blob[len(out):]
        return bytes(out)

    def _retarget_rel32(self, piece: _Piece, blob: bytes,
                        map_target) -> bytes:
        out = bytearray()
        for i in range(0, len(blob) - len(blob) % 4, 4):
            value = int.from_bytes(blob[i:i + 4], "little", signed=True)
            old_target = piece.old_offset + value
            if self._inside_text(old_target):
                new_value = map_target(old_target) - piece.new_offset
            else:
                new_value = value
            out += (new_value & 0xFFFFFFFF).to_bytes(4, "little")
        out += blob[len(out):]
        return bytes(out)

    def _inside_text(self, address: int | None) -> bool:
        return address is not None and 0 <= address < len(self.text)


def rewrite_binary(disassembly: Disassembly, binary: Binary, *,
                   instrument_entries: bool = True) -> RewrittenBinary:
    """Relocate (and optionally instrument) a disassembled binary."""
    return Rewriter(disassembly, binary,
                    instrument_entries=instrument_entries).rewrite()
