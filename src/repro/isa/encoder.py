"""A small x86-64 assembler.

The synthetic compiler (:mod:`repro.synth`) uses this to emit machine
code; the test suite uses it to round-trip instructions through the
decoder.  The API is a classic two-pass assembler: instruction methods
append bytes immediately, branch targets are labels, and :meth:`finish`
patches all fixups once every label is bound.

Registers are passed as hardware numbers (``repro.isa.registers.RAX``
etc.) with an explicit ``width`` keyword where it matters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .registers import RSP


class _FixupKind(enum.Enum):
    REL8 = "rel8"
    REL32 = "rel32"
    ABS32 = "abs32"
    ABS64 = "abs64"
    RIP32 = "rip32"


@dataclass
class _Fixup:
    kind: _FixupKind
    pos: int          # offset of the field to patch
    label: str
    anchor: int = 0   # offset the displacement is relative to


@dataclass(frozen=True)
class Mem:
    """An assembler-side memory operand: ``[base + index*scale + disp]``.

    ``base=None, index=None`` encodes an absolute disp32 address; use
    :func:`rip` for RIP-relative label references, or ``disp_label`` for
    an absolute reference to a label (jump-table dispatch).
    """

    base: int | None = None
    index: int | None = None
    scale: int = 1
    disp: int = 0
    rip_label: str | None = None
    disp_label: str | None = None


def mem(base: int | None = None, index: int | None = None, scale: int = 1,
        disp: int = 0) -> Mem:
    return Mem(base=base, index=index, scale=scale, disp=disp)


def rip(label: str, disp: int = 0) -> Mem:
    """A RIP-relative reference to ``label``."""
    return Mem(disp=disp, rip_label=label)


_ALU_CODES = {"add": 0, "or": 1, "adc": 2, "sbb": 3,
              "and": 4, "sub": 5, "xor": 6, "cmp": 7}
_SHIFT_CODES = {"rol": 0, "ror": 1, "rcl": 2, "rcr": 3,
                "shl": 4, "shr": 5, "sar": 7}
_CONDITION_NUMBERS = {
    "o": 0, "no": 1, "b": 2, "c": 2, "ae": 3, "nc": 3, "e": 4, "z": 4,
    "ne": 5, "nz": 5, "be": 6, "a": 7, "s": 8, "ns": 9, "p": 10, "np": 11,
    "l": 12, "ge": 13, "le": 14, "g": 15,
}


class AssemblyError(ValueError):
    """Raised for unencodable requests (bad width, unbound label...)."""


class Assembler:
    """Accumulates encoded instructions and data with label fixups."""

    def __init__(self, base: int = 0) -> None:
        self.base = base
        self._code = bytearray()
        self._labels: dict[str, int] = {}
        self._fixups: list[_Fixup] = []

    # ------------------------------------------------------------------
    # Position and label management
    # ------------------------------------------------------------------

    @property
    def here(self) -> int:
        """The address that the next emitted byte will occupy."""
        return self.base + len(self._code)

    def bind(self, label: str) -> int:
        """Define ``label`` at the current position."""
        if label in self._labels:
            raise AssemblyError(f"label bound twice: {label}")
        self._labels[label] = self.here
        return self.here

    def finish(self) -> bytes:
        """Resolve all fixups and return the final byte string."""
        for fixup in self._fixups:
            if fixup.label not in self._labels:
                raise AssemblyError(f"undefined label: {fixup.label}")
            target = self._labels[fixup.label]
            if fixup.kind is _FixupKind.REL8:
                delta = target - (fixup.anchor)
                if not -128 <= delta <= 127:
                    raise AssemblyError(
                        f"short branch to {fixup.label} out of range ({delta})")
                self._patch(fixup.pos, delta & 0xFF, 1)
            elif fixup.kind in (_FixupKind.REL32, _FixupKind.RIP32):
                delta = target - fixup.anchor
                self._patch(fixup.pos, delta & 0xFFFFFFFF, 4)
            elif fixup.kind is _FixupKind.ABS32:
                self._patch(fixup.pos, target & 0xFFFFFFFF, 4)
            else:
                self._patch(fixup.pos, target & (2 ** 64 - 1), 8)
        self._fixups.clear()
        return bytes(self._code)

    def _patch(self, pos: int, value: int, size: int) -> None:
        self._code[pos:pos + size] = value.to_bytes(size, "little")

    # ------------------------------------------------------------------
    # Raw emission
    # ------------------------------------------------------------------

    def db(self, data: bytes) -> None:
        """Emit raw data bytes."""
        self._code += data

    def dd(self, value: int) -> None:
        self._code += (value & 0xFFFFFFFF).to_bytes(4, "little")

    def dq(self, value: int) -> None:
        self._code += (value & (2 ** 64 - 1)).to_bytes(8, "little")

    def dq_label(self, label: str) -> None:
        """Emit an 8-byte absolute address of ``label`` (jump tables)."""
        self._fixups.append(_Fixup(_FixupKind.ABS64, len(self._code), label))
        self._code += b"\x00" * 8

    def dd_label(self, label: str) -> None:
        """Emit a 4-byte absolute address of ``label``."""
        self._fixups.append(_Fixup(_FixupKind.ABS32, len(self._code), label))
        self._code += b"\x00" * 4

    def dd_label_rel(self, label: str, anchor_label: str) -> None:
        """Emit ``label - anchor`` as 4 bytes (PIC-style table entry)."""
        # Implemented as a REL32 fixup anchored at the anchor label; the
        # anchor must already be bound when finish() runs.
        self._fixups.append(
            _Fixup(_FixupKind.REL32, len(self._code), label,
                   anchor=self._require_label_lazy(anchor_label)))
        self._code += b"\x00" * 4

    def _require_label_lazy(self, label: str) -> int:
        if label not in self._labels:
            raise AssemblyError(
                f"relative-entry anchor must be bound first: {label}")
        return self._labels[label]

    def align(self, alignment: int, fill: bytes = b"\xcc") -> None:
        """Pad with ``fill`` bytes up to the requested alignment."""
        gap = -self.here % alignment
        if gap:
            self._code += (fill * gap)[:gap]

    # ------------------------------------------------------------------
    # Encoding primitives
    # ------------------------------------------------------------------

    def _emit(self, *values: int) -> None:
        self._code += bytes(values)

    def _rex(self, w: int, r: int, x: int, b: int, *,
             force: bool = False) -> None:
        if w or r or x or b or force:
            self._emit(0x40 | (w << 3) | (r << 2) | (x << 1) | b)

    def _prefix_and_rex(self, width: int, reg: int = 0, index: int = 0,
                        base: int = 0, *, byte_regs: tuple[int, ...] = (),
                        default_64: bool = False,
                        force_rex: bool = False) -> None:
        """Emit the 0x66 prefix and/or REX byte an encoding needs."""
        if width == 16:
            self._emit(0x66)
        w = 1 if width == 64 and not default_64 else 0
        # spl/bpl/sil/dil need an empty REX to avoid the ah/ch/dh/bh forms.
        force = force_rex or (width == 8
                              and any(4 <= r <= 7 for r in byte_regs))
        self._rex(w, reg >> 3, index >> 3, base >> 3, force=force)

    def _modrm_reg(self, reg_field: int, rm: int) -> None:
        self._emit(0xC0 | ((reg_field & 7) << 3) | (rm & 7))

    def _encode_mem(self, reg_field: int, m: Mem) -> None:
        """Emit ModRM (+SIB, +disp) for a memory operand."""
        reg3 = reg_field & 7
        if m.rip_label is not None:
            self._emit((reg3 << 3) | 0x05)
            pos = len(self._code)
            self._code += b"\x00" * 4
            anchor = self.base + pos + 4
            self._fixups.append(
                _Fixup(_FixupKind.RIP32, pos, m.rip_label, anchor=anchor))
            if m.disp:
                raise AssemblyError("rip-relative with extra disp unsupported")
            return

        if m.base is None and m.index is None:
            # Absolute disp32: SIB with no base, no index.
            self._emit((reg3 << 3) | 0x04, 0x25)
            self._abs32_disp(m)
            return

        if m.index is not None and (m.index & 7) == 4 and m.index == RSP:
            raise AssemblyError("rsp cannot be an index register")

        scale_bits = {1: 0, 2: 1, 4: 2, 8: 3}.get(m.scale)
        if scale_bits is None:
            raise AssemblyError(f"bad scale: {m.scale}")

        needs_sib = m.index is not None or (m.base is not None
                                            and (m.base & 7) == 4)
        disp = m.disp
        if m.base is None:
            # Index without base: mod=0, SIB base=5, disp32 mandatory.
            self._emit((reg3 << 3) | 0x04)
            self._emit((scale_bits << 6) | ((m.index & 7) << 3) | 0x05)
            self._abs32_disp(m)
            return

        base7 = m.base & 7
        if disp == 0 and base7 != 5:
            mod = 0
        elif -128 <= disp <= 127:
            mod = 1
        else:
            mod = 2

        if needs_sib:
            self._emit((mod << 6) | (reg3 << 3) | 0x04)
            index_bits = (m.index & 7) if m.index is not None else 4
            self._emit((scale_bits << 6) | (index_bits << 3) | base7)
        else:
            self._emit((mod << 6) | (reg3 << 3) | base7)

        if mod == 1:
            self._code += (disp & 0xFF).to_bytes(1, "little")
        elif mod == 2:
            self._code += (disp & 0xFFFFFFFF).to_bytes(4, "little")

    def _abs32_disp(self, m: Mem) -> None:
        """Emit the 4-byte absolute displacement of a no-base operand."""
        if m.disp_label is not None:
            self._fixups.append(
                _Fixup(_FixupKind.ABS32, len(self._code), m.disp_label))
            self._code += (m.disp & 0xFFFFFFFF).to_bytes(4, "little")
        else:
            self._code += (m.disp & 0xFFFFFFFF).to_bytes(4, "little")

    def _imm(self, value: int, size: int) -> None:
        self._code += (value & (2 ** (size * 8) - 1)).to_bytes(size, "little")

    @staticmethod
    def _check_width(width: int) -> None:
        if width not in (8, 16, 32, 64):
            raise AssemblyError(f"bad operand width: {width}")

    # ------------------------------------------------------------------
    # Data movement
    # ------------------------------------------------------------------

    def mov_rr(self, dst: int, src: int, width: int = 64) -> None:
        self._check_width(width)
        self._prefix_and_rex(width, reg=src, base=dst,
                             byte_regs=(dst, src) if width == 8 else ())
        self._emit(0x88 if width == 8 else 0x89)
        self._modrm_reg(src, dst)

    def mov_ri(self, dst: int, value: int, width: int = 64) -> None:
        self._check_width(width)
        if width == 8:
            self._prefix_and_rex(8, base=dst, byte_regs=(dst,))
            self._emit(0xB0 | (dst & 7))
            self._imm(value, 1)
            return
        if width == 64 and -2 ** 31 <= value < 2 ** 31:
            # mov r64, imm32 sign-extended (C7 /0) is the compact form.
            self._prefix_and_rex(64, base=dst)
            self._emit(0xC7)
            self._modrm_reg(0, dst)
            self._imm(value, 4)
            return
        self._prefix_and_rex(width, base=dst)
        self._emit(0xB8 | (dst & 7))
        self._imm(value, {16: 2, 32: 4, 64: 8}[width])

    def mov_rm(self, dst: int, m: Mem, width: int = 64) -> None:
        self._check_width(width)
        self._prefix_and_rex(width, reg=dst, index=m.index or 0,
                             base=m.base or 0,
                             byte_regs=(dst,) if width == 8 else ())
        self._emit(0x8A if width == 8 else 0x8B)
        self._encode_mem(dst, m)

    def mov_mr(self, m: Mem, src: int, width: int = 64) -> None:
        self._check_width(width)
        self._prefix_and_rex(width, reg=src, index=m.index or 0,
                             base=m.base or 0,
                             byte_regs=(src,) if width == 8 else ())
        self._emit(0x88 if width == 8 else 0x89)
        self._encode_mem(src, m)

    def movzx(self, dst: int, src: int, src_width: int,
              width: int = 32) -> None:
        if src_width not in (8, 16):
            raise AssemblyError("movzx source must be 8 or 16 bits")
        force = src_width == 8 and 4 <= src <= 7
        self._prefix_and_rex(width, reg=dst, base=src, force_rex=force)
        self._emit(0x0F, 0xB6 if src_width == 8 else 0xB7)
        self._modrm_reg(dst, src)

    def movsx(self, dst: int, src: int, src_width: int,
              width: int = 32) -> None:
        if src_width == 32:
            self._prefix_and_rex(64, reg=dst, base=src)
            self._emit(0x63)
        elif src_width in (8, 16):
            force = src_width == 8 and 4 <= src <= 7
            self._prefix_and_rex(width, reg=dst, base=src,
                                 force_rex=force)
            self._emit(0x0F, 0xBE if src_width == 8 else 0xBF)
        else:
            raise AssemblyError("movsx source must be 8, 16 or 32 bits")
        self._modrm_reg(dst, src)

    def movsxd_rm(self, dst: int, m: Mem) -> None:
        """movsxd r64, dword [mem] -- the PIC jump-table load."""
        self._prefix_and_rex(64, reg=dst, index=m.index or 0, base=m.base or 0)
        self._emit(0x63)
        self._encode_mem(dst, m)

    def lea(self, dst: int, m: Mem, width: int = 64) -> None:
        self._prefix_and_rex(width, reg=dst, index=m.index or 0,
                             base=m.base or 0)
        self._emit(0x8D)
        self._encode_mem(dst, m)

    def xchg_rr(self, a: int, b: int, width: int = 64) -> None:
        self._check_width(width)
        self._prefix_and_rex(width, reg=b, base=a,
                             byte_regs=(a, b) if width == 8 else ())
        self._emit(0x86 if width == 8 else 0x87)
        self._modrm_reg(b, a)

    # ------------------------------------------------------------------
    # ALU
    # ------------------------------------------------------------------

    def alu_rr(self, op: str, dst: int, src: int, width: int = 64) -> None:
        code = _ALU_CODES[op]
        self._prefix_and_rex(width, reg=src, base=dst,
                             byte_regs=(dst, src) if width == 8 else ())
        self._emit((code << 3) | (0x00 if width == 8 else 0x01))
        self._modrm_reg(src, dst)

    def alu_ri(self, op: str, dst: int, value: int, width: int = 64) -> None:
        code = _ALU_CODES[op]
        self._prefix_and_rex(width, base=dst,
                             byte_regs=(dst,) if width == 8 else ())
        if width == 8:
            self._emit(0x80)
            self._modrm_reg(code, dst)
            self._imm(value, 1)
        elif -128 <= value <= 127:
            self._emit(0x83)
            self._modrm_reg(code, dst)
            self._imm(value, 1)
        else:
            self._emit(0x81)
            self._modrm_reg(code, dst)
            self._imm(value, 2 if width == 16 else 4)

    def test_rr(self, a: int, b: int, width: int = 64) -> None:
        self._prefix_and_rex(width, reg=b, base=a,
                             byte_regs=(a, b) if width == 8 else ())
        self._emit(0x84 if width == 8 else 0x85)
        self._modrm_reg(b, a)

    def imul_rr(self, dst: int, src: int, width: int = 64) -> None:
        self._prefix_and_rex(width, reg=dst, base=src)
        self._emit(0x0F, 0xAF)
        self._modrm_reg(dst, src)

    def imul_rri(self, dst: int, src: int, value: int,
                 width: int = 64) -> None:
        self._prefix_and_rex(width, reg=dst, base=src)
        if -128 <= value <= 127:
            self._emit(0x6B)
            self._modrm_reg(dst, src)
            self._imm(value, 1)
        else:
            self._emit(0x69)
            self._modrm_reg(dst, src)
            self._imm(value, 2 if width == 16 else 4)

    def unary(self, op: str, dst: int, width: int = 64) -> None:
        """not/neg/mul/imul1/div/idiv on a register."""
        code = {"test": 0, "not": 2, "neg": 3, "mul": 4,
                "imul1": 5, "div": 6, "idiv": 7}[op]
        self._prefix_and_rex(width, base=dst,
                             byte_regs=(dst,) if width == 8 else ())
        self._emit(0xF6 if width == 8 else 0xF7)
        self._modrm_reg(code, dst)

    def inc(self, dst: int, width: int = 64) -> None:
        self._prefix_and_rex(width, base=dst,
                             byte_regs=(dst,) if width == 8 else ())
        self._emit(0xFE if width == 8 else 0xFF)
        self._modrm_reg(0, dst)

    def dec(self, dst: int, width: int = 64) -> None:
        self._prefix_and_rex(width, base=dst,
                             byte_regs=(dst,) if width == 8 else ())
        self._emit(0xFE if width == 8 else 0xFF)
        self._modrm_reg(1, dst)

    def shift_ri(self, op: str, dst: int, amount: int,
                 width: int = 64) -> None:
        code = _SHIFT_CODES[op]
        self._prefix_and_rex(width, base=dst,
                             byte_regs=(dst,) if width == 8 else ())
        if amount == 1:
            self._emit(0xD0 if width == 8 else 0xD1)
            self._modrm_reg(code, dst)
        else:
            self._emit(0xC0 if width == 8 else 0xC1)
            self._modrm_reg(code, dst)
            self._imm(amount, 1)

    def cdq(self) -> None:
        self._emit(0x99)

    def cqo(self) -> None:
        self._rex(1, 0, 0, 0)
        self._emit(0x99)

    # ------------------------------------------------------------------
    # Stack
    # ------------------------------------------------------------------

    def push_r(self, reg: int) -> None:
        self._rex(0, 0, 0, reg >> 3)
        self._emit(0x50 | (reg & 7))

    def pop_r(self, reg: int) -> None:
        self._rex(0, 0, 0, reg >> 3)
        self._emit(0x58 | (reg & 7))

    def push_i(self, value: int) -> None:
        if -128 <= value <= 127:
            self._emit(0x6A)
            self._imm(value, 1)
        else:
            self._emit(0x68)
            self._imm(value, 4)

    def leave(self) -> None:
        self._emit(0xC9)

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    def _branch_fixup(self, kind: _FixupKind, label: str, size: int) -> None:
        pos = len(self._code)
        self._code += b"\x00" * size
        self._fixups.append(
            _Fixup(kind, pos, label, anchor=self.base + pos + size))

    def jmp(self, label: str, *, short: bool = False) -> None:
        if short:
            self._emit(0xEB)
            self._branch_fixup(_FixupKind.REL8, label, 1)
        else:
            self._emit(0xE9)
            self._branch_fixup(_FixupKind.REL32, label, 4)

    def jcc(self, condition: str, label: str, *, short: bool = False) -> None:
        cc = _CONDITION_NUMBERS[condition]
        if short:
            self._emit(0x70 | cc)
            self._branch_fixup(_FixupKind.REL8, label, 1)
        else:
            self._emit(0x0F, 0x80 | cc)
            self._branch_fixup(_FixupKind.REL32, label, 4)

    def call(self, label: str) -> None:
        self._emit(0xE8)
        self._branch_fixup(_FixupKind.REL32, label, 4)

    def call_r(self, reg: int) -> None:
        self._rex(0, 0, 0, reg >> 3)
        self._emit(0xFF)
        self._modrm_reg(2, reg)

    def jmp_r(self, reg: int) -> None:
        self._rex(0, 0, 0, reg >> 3)
        self._emit(0xFF)
        self._modrm_reg(4, reg)

    def jmp_m(self, m: Mem) -> None:
        self._prefix_and_rex(32, reg=4, index=m.index or 0, base=m.base or 0)
        self._emit(0xFF)
        self._encode_mem(4, m)

    def ret(self) -> None:
        self._emit(0xC3)

    def ret_imm(self, value: int) -> None:
        self._emit(0xC2)
        self._imm(value, 2)

    def int3(self) -> None:
        self._emit(0xCC)

    def ud2(self) -> None:
        self._emit(0x0F, 0x0B)

    def hlt(self) -> None:
        self._emit(0xF4)

    def endbr64(self) -> None:
        """The CET landing pad: f3 0f 1e fa (decodes as a hint nop)."""
        self._emit(0xF3, 0x0F, 0x1E, 0xFA)

    def setcc(self, condition: str, dst: int) -> None:
        cc = _CONDITION_NUMBERS[condition]
        self._prefix_and_rex(8, base=dst, byte_regs=(dst,))
        self._emit(0x0F, 0x90 | cc)
        self._modrm_reg(0, dst)

    def cmovcc(self, condition: str, dst: int, src: int,
               width: int = 64) -> None:
        cc = _CONDITION_NUMBERS[condition]
        self._prefix_and_rex(width, reg=dst, base=src)
        self._emit(0x0F, 0x40 | cc)
        self._modrm_reg(dst, src)

    # ------------------------------------------------------------------
    # Padding
    # ------------------------------------------------------------------

    _NOPS = {
        1: b"\x90",
        2: b"\x66\x90",
        3: b"\x0f\x1f\x00",
        4: b"\x0f\x1f\x40\x00",
        5: b"\x0f\x1f\x44\x00\x00",
        6: b"\x66\x0f\x1f\x44\x00\x00",
        7: b"\x0f\x1f\x80\x00\x00\x00\x00",
        8: b"\x0f\x1f\x84\x00\x00\x00\x00\x00",
        9: b"\x66\x0f\x1f\x84\x00\x00\x00\x00\x00",
    }

    def nop(self, count: int = 1) -> None:
        """Emit ``count`` bytes of canonical multi-byte nop padding."""
        while count > 0:
            chunk = min(count, 9)
            self._code += self._NOPS[chunk]
            count -= chunk

    def align_code(self, alignment: int) -> None:
        """Align using nop padding (code-style alignment)."""
        gap = -self.here % alignment
        if gap:
            self.nop(gap)
