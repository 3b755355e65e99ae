"""Table-driven x86-64 instruction decoder.

The public entry points are :func:`decode`, which decodes the instruction
starting at a given offset (raising a :class:`~repro.isa.errors.DecodeError`
subclass on failure), and :func:`try_decode`, which returns ``None``
instead of raising.  The superset builds its instructions on demand
through :func:`try_decode`; its per-offset columns come from the
whole-section array decoder in :mod:`repro.isa.columns`.
"""

from __future__ import annotations

import os

from .errors import InvalidOpcodeError, TooLongError, TruncatedError
from .instruction import Instruction
from .opcodes import (IMPLICIT_EFFECTS, READS_ONLY, WRITE_ONLY_DEST,
                      Encoding, FlowKind, ImmSize, OpcodeInfo)
from .operands import ImmOp, MemOp, Operand, RegOp, RelOp
from .registers import RAX, RCX, Register
from .tables import (FLAG_READERS, FLAG_WRITERS, LEGACY_PREFIXES,
                     MAX_INSTRUCTION_LENGTH, ONE_BYTE, TWO_BYTE)

#: Mnemonics whose ModRM "register" field does not name a general-purpose
#: register (x87 stack slots, XMM registers, fences, hints ...).
_NO_GPR_SEMANTICS = frozenset({
    "x87", "fence", "prefetch", "nop", "mov_sreg", "sldt", "str", "lldt",
    "ltr", "verr", "verw", "sgdt", "sidt", "lgdt", "lidt", "smsw", "lmsw",
    "invlpg", "cmpxchg8b", "emms",
})

#: Mnemonics the LOCK prefix may legally precede (with a memory operand).
_LOCKABLE = frozenset({
    "add", "or", "adc", "sbb", "and", "sub", "xor", "xchg", "inc", "dec",
    "not", "neg", "cmpxchg", "xadd", "bts", "btr", "btc", "cmpxchg8b",
})

#: ALU-with-immediate opcodes of Encoding.I that implicitly target rAX.
_RAX_IMPLICIT = frozenset({
    "add", "or", "adc", "sbb", "and", "sub", "xor", "cmp", "test",
})


def _reg(number: int, width: int, rex_present: bool) -> Register:
    """Build a register, honoring the legacy high-byte encodings."""
    if width == 8 and not rex_present and 4 <= number <= 7:
        return Register(number, 8, high_byte=True)
    return Register(number, width)


class _Reader:
    """A bounds-checked byte cursor over the instruction buffer."""

    def __init__(self, buf: bytes, offset: int) -> None:
        self.buf = buf
        self.start = offset
        self.pos = offset

    def peek(self) -> int:
        if self.pos >= len(self.buf):
            raise TruncatedError(self.start, "buffer exhausted")
        return self.buf[self.pos]

    def take(self) -> int:
        byte = self.peek()
        self.pos += 1
        return byte

    def take_int(self, size: int, signed: bool = True) -> int:
        if self.pos + size > len(self.buf):
            raise TruncatedError(self.start, "truncated immediate")
        value = int.from_bytes(self.buf[self.pos:self.pos + size],
                               "little", signed=signed)
        self.pos += size
        return value

    @property
    def length(self) -> int:
        return self.pos - self.start


def _parse_modrm(r: _Reader, rex: int, width: int,
                 rex_present: bool) -> tuple[Operand, int]:
    """Parse ModRM (+SIB, +disp); return (r/m operand, extended reg field)."""
    modrm = r.take()
    mod = modrm >> 6
    reg_field = ((rex & 0x4) << 1) | ((modrm >> 3) & 0x7)
    rm = modrm & 0x7
    rex_b = (rex & 0x1) << 3
    rex_x = (rex & 0x2) << 2

    if mod == 3:
        return RegOp(_reg(rm | rex_b, width, rex_present)), reg_field

    base: Register | None = None
    index: Register | None = None
    scale = 1
    disp = 0
    rip_relative = False

    if rm == 4:  # SIB byte follows
        sib = r.take()
        scale = 1 << (sib >> 6)
        index_num = ((sib >> 3) & 0x7) | rex_x
        base_num = (sib & 0x7) | rex_b
        if index_num != 4:  # encoded index 4 without REX.X means "none"
            index = Register(index_num, 64)
        if (sib & 0x7) == 5 and mod == 0:
            disp = r.take_int(4)
        else:
            base = Register(base_num, 64)
    elif rm == 5 and mod == 0:
        rip_relative = True
        disp = r.take_int(4)
    else:
        base = Register(rm | rex_b, 64)

    if mod == 1:
        disp = r.take_int(1)
    elif mod == 2:
        disp = r.take_int(4)

    mem = MemOp(base=base, index=index, scale=scale, disp=disp,
                rip_relative=rip_relative, width=width)
    return mem, reg_field


def _imm_size(imm: ImmSize, opsize: int) -> int:
    if imm is ImmSize.B:
        return 1
    if imm is ImmSize.W:
        return 2
    if imm is ImmSize.Z:
        return 2 if opsize == 16 else 4
    if imm is ImmSize.V:
        return {16: 2, 32: 4, 64: 8}[opsize]
    return 0


def decode(buf: bytes, offset: int = 0) -> Instruction:
    """Decode the instruction starting at ``buf[offset]``.

    Raises:
        InvalidOpcodeError: undefined opcode, illegal prefix combination.
        TruncatedError: the buffer ends mid-instruction.
        TooLongError: the encoding exceeds 15 bytes.
    """
    if not 0 <= offset < len(buf):
        raise TruncatedError(offset, "offset outside buffer")

    r = _Reader(buf, offset)
    prefixes: set[int] = set()
    rex = 0
    rex_present = False
    while True:
        byte = r.peek()
        if byte in LEGACY_PREFIXES:
            prefixes.add(byte)
            rex = 0
            rex_present = False
            r.take()
        elif 0x40 <= byte <= 0x4F:
            rex = byte & 0xF
            rex_present = True
            r.take()
        else:
            break
        if r.length >= MAX_INSTRUCTION_LENGTH:
            raise TooLongError(offset, "prefix run exceeds 15 bytes")

    opcode = r.take()
    two_byte = False
    if opcode == 0x0F:
        two_byte = True
        opcode = r.take()
        info = TWO_BYTE[opcode]
    else:
        info = ONE_BYTE[opcode]
    if info is None:
        kind = "0f " if two_byte else ""
        raise InvalidOpcodeError(offset, f"undefined opcode {kind}{opcode:02x}")

    opsize = _operand_size(info, prefixes, rex)

    # Special fixed-layout instructions.
    if info.mnemonic == "mov_moffs":
        r.take_int(8, signed=False)
        return _finish(r, buf, info.mnemonic, (), info, opsize, prefixes,
                       extra_reads=(), offset=offset)
    if info.mnemonic == "enter":
        r.take_int(2, signed=False)
        r.take_int(1, signed=False)
        return _finish(r, buf, "enter", (), info, opsize, prefixes,
                       extra_reads=(), offset=offset)

    mnemonic = info.mnemonic
    flow = info.flow
    imm = info.imm
    default_64 = info.default_64
    rare = info.rare

    operands: list[Operand] = []
    extra_reads: tuple[int, ...] = ()
    rm_operand: Operand | None = None
    reg_field = 0

    needs_modrm = info.encoding in (Encoding.MR, Encoding.RM, Encoding.M,
                                    Encoding.MI, Encoding.RMI)
    if needs_modrm:
        src_width = _rm_width(two_byte, opcode, opsize)
        rm_operand, reg_field = _parse_modrm(r, rex, src_width, rex_present)

    if info.group is not None:
        entry = info.group[reg_field & 0x7]
        if entry is None:
            raise InvalidOpcodeError(offset,
                                     f"undefined group extension /{reg_field & 7}")
        mnemonic = entry.mnemonic
        flow = entry.flow
        imm = entry.imm if entry.imm is not ImmSize.NONE else imm
        default_64 = default_64 or entry.default_64
        if entry.default_64:
            opsize = _operand_size_64(prefixes, rex)
        # Shift-by-cl forms (D2/D3) implicitly read rcx.
        if not two_byte and opcode in (0xD2, 0xD3):
            extra_reads = (RCX,)

    operands = _build_operands(info.encoding, mnemonic, rm_operand,
                               reg_field, opcode, rex, rex_present, opsize,
                               two_byte)

    # The D0/D1 shift forms have an implicit count of one.
    if not two_byte and opcode in (0xD0, 0xD1):
        operands.append(ImmOp(1, 8))
    # The sign-extension family renames with operand size.
    if mnemonic in ("cwde", "cdq"):
        mnemonic = {("cwde", 16): "cbw", ("cwde", 64): "cdqe",
                    ("cdq", 16): "cwd", ("cdq", 64): "cqo"}.get(
                        (mnemonic, opsize), mnemonic)

    imm_bytes = _imm_size(imm, opsize)
    if imm_bytes and info.encoding is not Encoding.D:
        operands.append(ImmOp(r.take_int(imm_bytes), imm_bytes * 8))

    if info.encoding is Encoding.D:
        disp = r.take_int(imm_bytes if imm_bytes else 4)
        operands.append(RelOp(r.pos - r.start + offset + disp))

    if r.length > MAX_INSTRUCTION_LENGTH:
        raise TooLongError(offset, "instruction exceeds 15 bytes")

    _check_lock(offset, prefixes, mnemonic, operands)

    instruction = _finish(r, buf, mnemonic, tuple(operands), info, opsize,
                          prefixes, extra_reads=extra_reads, offset=offset,
                          flow=flow, rare=rare)
    return instruction


def try_decode(buf: bytes, offset: int = 0) -> Instruction | None:
    """Like :func:`decode` but returns None on any decode failure."""
    try:
        # Call the interpretive decoder by its stable alias: the seam
        # below rebinds the ``decode`` global to the compiled engine,
        # and this function must stay a pure-oracle entry point.
        return decode_interp(buf, offset)
    except (InvalidOpcodeError, TruncatedError, TooLongError):
        return None


def _operand_size(info: OpcodeInfo, prefixes: set[int], rex: int) -> int:
    if info.byte_op:
        return 8
    if 0x66 in prefixes and not rex & 0x8:
        return 16
    if rex & 0x8 or info.default_64:
        return 64
    return 32


def _operand_size_64(prefixes: set[int], rex: int) -> int:
    """Operand size for instructions defaulting to 64-bit (push, call...)."""
    if 0x66 in prefixes and not rex & 0x8:
        return 16
    return 64


def _rm_width(two_byte: bool, opcode: int, opsize: int) -> int:
    """Source r/m width for the widening moves; ``opsize`` otherwise."""
    if two_byte and opcode in (0xB6, 0xBE):     # movzx/movsx from r/m8
        return 8
    if two_byte and opcode in (0xB7, 0xBF):     # movzx/movsx from r/m16
        return 16
    if not two_byte and opcode == 0x63:         # movsxd from r/m32
        return 32
    return opsize


def _build_operands(encoding: Encoding, mnemonic: str,
                    rm_operand: Operand | None, reg_field: int,
                    opcode: int, rex: int, rex_present: bool, opsize: int,
                    two_byte: bool) -> list[Operand]:
    reg_op = None
    if encoding in (Encoding.MR, Encoding.RM, Encoding.RMI):
        # The register operand always has the full operand size; only the
        # r/m side narrows for the widening moves (see _rm_width).  For
        # movzx/movsx the destination is opsize wide (movzx r32, r/m8
        # writes a 32-bit register) -- the narrow width applies to the
        # source r/m operand alone.
        reg_op = RegOp(_reg(reg_field, opsize, rex_present))

    if encoding is Encoding.MR:
        return [rm_operand, reg_op]
    if encoding in (Encoding.RM, Encoding.RMI):
        return [reg_op, rm_operand]
    if encoding in (Encoding.M, Encoding.MI):
        return [rm_operand]
    if encoding in (Encoding.O, Encoding.OI):
        number = (opcode & 0x7) | ((rex & 0x1) << 3)
        width = opsize
        reg = RegOp(_reg(number, width, rex_present))
        if mnemonic == "xchg" or (not two_byte and 0x91 <= opcode <= 0x97):
            return [RegOp(Register(RAX, opsize)), reg]
        return [reg]
    return []


def _check_lock(offset: int, prefixes: set[int], mnemonic: str,
                operands: list[Operand]) -> None:
    if 0xF0 not in prefixes:
        return
    has_mem_dest = bool(operands) and isinstance(operands[0], MemOp)
    if mnemonic not in _LOCKABLE or not has_mem_dest:
        raise InvalidOpcodeError(offset, "illegal lock prefix")


def _finish(r: _Reader, buf: bytes, mnemonic: str,
            operands: tuple[Operand, ...], info: OpcodeInfo, opsize: int,
            prefixes: set[int], *, extra_reads: tuple[int, ...],
            offset: int, flow: FlowKind | None = None,
            rare: bool | None = None) -> Instruction:
    flow = info.flow if flow is None else flow
    rare = info.rare if rare is None else rare
    reads, writes = _effects(mnemonic, info.encoding, operands, opsize,
                             extra_reads)
    # RIP-relative targets are resolved against the instruction end.
    operands = tuple(
        MemOp(base=o.base, index=o.index, scale=o.scale, disp=o.disp,
              rip_relative=True, target=r.pos + o.disp, width=o.width)
        if isinstance(o, MemOp) and o.rip_relative else o
        for o in operands
    )
    return Instruction(
        offset=offset,
        length=r.length,
        mnemonic=mnemonic,
        operands=operands,
        flow=flow,
        reads=frozenset(reads),
        writes=frozenset(writes),
        reads_flags=mnemonic in FLAG_READERS,
        writes_flags=mnemonic in FLAG_WRITERS,
        rare=rare or bool(prefixes & {0x2E, 0x36, 0x3E, 0x26}),
        raw=bytes(buf[offset:r.pos]),
    )


def _effects(mnemonic: str, encoding: Encoding,
             operands: tuple[Operand, ...], opsize: int,
             extra_reads: tuple[int, ...]) -> tuple[set[int], set[int]]:
    reads: set[int] = set(extra_reads)
    writes: set[int] = set()

    no_gpr = mnemonic in _NO_GPR_SEMANTICS or mnemonic.startswith("simd.")

    # Hint instructions (long nop, prefetch) do not really access memory,
    # so their address registers are not read.
    if mnemonic not in ("nop", "prefetch"):
        for operand in operands:
            if isinstance(operand, MemOp):
                if operand.base is not None:
                    reads.add(operand.base.family)
                if operand.index is not None:
                    reads.add(operand.index.family)

    def read(operand: Operand) -> None:
        if isinstance(operand, RegOp) and not no_gpr:
            reads.add(operand.register.family)

    def write(operand: Operand) -> None:
        if isinstance(operand, RegOp) and not no_gpr:
            writes.add(operand.register.family)

    dest = operands[0] if operands else None
    src = operands[1] if len(operands) > 1 else None

    write_only = (mnemonic in WRITE_ONLY_DEST
                  or mnemonic.startswith(("set.", "mov")))
    reads_only = mnemonic in READS_ONLY

    if mnemonic in ("push", "call", "jmp"):
        if dest is not None:
            read(dest)
    elif mnemonic == "pop":
        if dest is not None:
            write(dest)
    elif mnemonic in ("mul", "imul1", "div", "idiv"):
        if dest is not None:
            read(dest)
    elif mnemonic == "xchg":
        for operand in operands:
            read(operand)
            write(operand)
    elif mnemonic == "lea":
        if dest is not None:
            write(dest)
    elif reads_only:
        for operand in operands:
            read(operand)
    elif write_only:
        if dest is not None:
            write(dest)
        if src is not None:
            read(src)
    else:
        # Default: read-modify-write destination, read source.
        if dest is not None and encoding is not Encoding.D:
            read(dest)
            write(dest)
        if src is not None:
            read(src)

    if encoding is Encoding.I and mnemonic in _RAX_IMPLICIT:
        reads.add(RAX)
        if mnemonic not in ("cmp", "test"):
            writes.add(RAX)

    implicit = IMPLICIT_EFFECTS.get(mnemonic)
    if implicit is not None:
        reads.update(implicit[0])
        writes.update(implicit[1])
    return reads, writes


# ---------------------------------------------------------------------------
# Backend selection seam
#
# Scalar decodes normally run the generated engine (repro.isa._compiled,
# produced by ``python -m repro.isa.compile_tables``); the interpretive
# decoder above stays available -- unchanged -- as the differential-
# testing oracle.  ``REPRO_DECODER=interp`` forces the oracle for every
# consumer.  The names are rebound at import time so that call sites
# binding ``try_decode`` directly (superset, eval, serve, lint) pay no
# per-call indirection.
# ---------------------------------------------------------------------------

#: The interpretive oracle entry points, always available by name.
decode_interp = decode
try_decode_interp = try_decode

_BACKEND = "interp"
if os.environ.get("REPRO_DECODER", "compiled").strip().lower() != "interp":
    try:
        from . import _compiled
    except ImportError:    # pragma: no cover - pre-generation bootstrap
        _compiled = None   # type: ignore[assignment]
    if _compiled is not None:
        _BACKEND = "compiled"

if _BACKEND == "compiled":
    try_decode = _compiled.try_decode
    _raw_decode_compiled = _compiled.raw_decode

    def decode(buf: bytes, offset: int = 0) -> Instruction:
        """Decode via the compiled engine (see the interp docstring).

        Failures re-run the oracle so callers observe the exact
        exception type and message the interpretive decoder raises.
        """
        result = _raw_decode_compiled(buf, offset)
        if result.__class__ is Instruction:
            return result
        return decode_interp(buf, offset)


def decoder_backend() -> str:
    """The active decode backend: ``"compiled"`` or ``"interp"``."""
    return _BACKEND
