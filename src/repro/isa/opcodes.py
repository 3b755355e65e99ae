"""Opcode metadata structures for the x86-64 subset decoder.

The decoder is table driven: each opcode byte (or ``0F``-prefixed pair)
maps to an :class:`OpcodeInfo` describing how the remaining bytes are
parsed (ModRM? immediate size? relative displacement?) and what the
resulting instruction *means* at the level the rest of the library cares
about: its mnemonic, its control-flow behavior and its register effects.

The tables themselves live in :mod:`repro.isa.tables`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Encoding(enum.Enum):
    """How an opcode's operand bytes are laid out after the opcode."""

    NONE = "none"          # no operand bytes (ret, leave, cwde, ...)
    MR = "mr"              # ModRM; r/m is destination, reg is source
    RM = "rm"              # ModRM; reg is destination, r/m is source
    M = "m"                # ModRM; reg field is an opcode extension
    MI = "mi"              # ModRM (reg = extension) + immediate
    I = "i"                # immediate operand only (to rAX or implicit)
    O = "o"                # register encoded in opcode low 3 bits
    OI = "oi"              # opcode register + immediate
    D = "d"                # relative branch displacement
    RMI = "rmi"            # ModRM + immediate (imul r, r/m, imm)


class ImmSize(enum.Enum):
    """Immediate-size codes, following Intel's manual suffix letters."""

    NONE = "none"
    B = "b"                # 8 bits, always
    W = "w"                # 16 bits, always (ret imm16)
    Z = "z"                # 16 bits with the 0x66 prefix, else 32 bits
    V = "v"                # 16/32/64 bits by operand size (mov B8+r only)


class FlowKind(enum.Enum):
    """Control-flow classification of an instruction."""

    SEQ = "seq"            # falls through to the next instruction
    JUMP = "jump"          # unconditional direct jump: no fall-through
    CJUMP = "cjump"        # conditional direct jump: branch + fall-through
    IJUMP = "ijump"        # indirect jump: no fall-through, unknown target
    CALL = "call"          # direct call: falls through on return
    ICALL = "icall"        # indirect call: falls through on return
    RET = "ret"            # return: no fall-through
    HALT = "halt"          # hlt / ud2: execution cannot proceed
    TRAP = "trap"          # int3 and friends: padding / debug traps


#: Flow kinds after which execution does not continue at the next offset.
NO_FALLTHROUGH = frozenset({
    FlowKind.JUMP, FlowKind.IJUMP, FlowKind.RET, FlowKind.HALT,
})


@dataclass(frozen=True)
class OpcodeInfo:
    """Static description of one opcode table entry.

    Attributes:
        mnemonic: instruction name, or empty string for group opcodes
            whose mnemonic comes from the ModRM reg field.
        encoding: operand byte layout (see :class:`Encoding`).
        imm: immediate size code.
        byte_op: True for the fixed 8-bit form of an instruction.
        flow: control-flow classification.
        group: for group opcodes, 8 entries selected by ModRM.reg; an
            entry is either a ``(mnemonic, imm, flow)`` triple or None
            for undefined extensions.
        rare: True for instructions that are legal but essentially never
            appear in compiler-generated code (salc-era leftovers, I/O
            port instructions, ...).  The statistical models treat their
            presence as weak evidence of misclassified data.
        default_64: True when the operand size defaults to 64 bits in
            long mode without REX.W (push/pop/call/jmp near).
    """

    mnemonic: str
    encoding: Encoding = Encoding.NONE
    imm: ImmSize = ImmSize.NONE
    byte_op: bool = False
    flow: FlowKind = FlowKind.SEQ
    group: tuple | None = None
    rare: bool = False
    default_64: bool = False


@dataclass(frozen=True)
class GroupEntry:
    """One ModRM.reg-selected member of a group opcode."""

    mnemonic: str
    imm: ImmSize = ImmSize.NONE
    flow: FlowKind = FlowKind.SEQ
    # Operand-size override: call/jmp via FF default to 64-bit.
    default_64: bool = False


def op(mnemonic: str, encoding: Encoding = Encoding.NONE, *,
       imm: ImmSize = ImmSize.NONE, byte_op: bool = False,
       flow: FlowKind = FlowKind.SEQ, group: tuple | None = None,
       rare: bool = False, default_64: bool = False) -> OpcodeInfo:
    """Terse constructor used by the opcode tables."""
    return OpcodeInfo(mnemonic, encoding, imm, byte_op, flow, group,
                      rare, default_64)


# Flag bits and special encoding codes of the decode plans that
# repro.isa.compile_tables lowers these tables into (the compiled engine
# and the superset's array decoder both dispatch on them).
F_BYTEOP = 1 << 0     # fixed 8-bit operand size
F_DEF64 = 1 << 1      # operand size defaults to 64-bit
F_DEF64OVR = 1 << 2   # group entry re-applies the 64-bit default
F_RARE = 1 << 3       # essentially never in compiler output
F_NOADDR = 1 << 4     # hint: memory operand's address regs are not read
F_LOCKABLE = 1 << 5   # LOCK prefix legal (with a memory destination)
F_XCHGPAIR = 1 << 6   # O-encoded xchg: operands are (rAX, reg)
F_IMM1 = 1 << 7       # D0/D1 shifts: implicit ImmOp(1, 8)
F_RENAME = 1 << 8     # mnemonic renames with operand size (extra map)
F_RM8 = 1 << 9        # r/m operand is 8-bit  (movzx/movsx from r/m8)
F_RM16 = 1 << 10      # r/m operand is 16-bit (movzx/movsx from r/m16)
F_RM32 = 1 << 11      # r/m operand is 32-bit (movsxd)
F_RFLAGS = 1 << 12    # reads the arithmetic flags
F_WFLAGS = 1 << 13    # writes the arithmetic flags
F_NOCHECKS = 1 << 14  # mov_moffs/enter skip the length and lock checks

ENC_MOFFS = 10        # mov rAX <-> moffs64 (8-byte absolute address)
ENC_ENTER = 11        # enter imm16, imm8


#: Condition-code suffixes indexed by the low nibble of Jcc/SETcc/CMOVcc.
CONDITION_CODES = (
    "o", "no", "b", "ae", "e", "ne", "be", "a",
    "s", "ns", "p", "np", "l", "ge", "le", "g",
)


# Implicit register effects by mnemonic: (reads, writes) of register
# family numbers.  Operand-derived effects are added by the decoder.
from .registers import RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI  # noqa: E402

IMPLICIT_EFFECTS: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {
    "push": ((RSP,), (RSP,)),
    "enter": ((RSP, RBP), (RSP, RBP)),
    "pop": ((RSP,), (RSP,)),
    "call": ((RSP,), (RSP,)),
    "ret": ((RSP,), (RSP,)),
    "leave": ((RBP,), (RSP, RBP)),
    "mul": ((RAX,), (RAX, RDX)),
    "imul1": ((RAX,), (RAX, RDX)),   # single-operand imul (group F7 /5)
    "div": ((RAX, RDX), (RAX, RDX)),
    "idiv": ((RAX, RDX), (RAX, RDX)),
    "cwde": ((RAX,), (RAX,)),
    "cdqe": ((RAX,), (RAX,)),
    "cdq": ((RAX,), (RDX,)),
    "cwd": ((RAX,), (RDX,)),
    "movs": ((RSI, RDI), (RSI, RDI)),
    "stos": ((RAX, RDI), (RDI,)),
    "lods": ((RSI,), (RAX, RSI)),
    "scas": ((RAX, RDI), (RDI,)),
    "cmps": ((RSI, RDI), (RSI, RDI)),
    "cpuid": ((RAX, RCX), (RAX, RBX, RCX, RDX)),
    "rdtsc": ((), (RAX, RDX)),
    "syscall": ((RAX, RDI, RSI, RDX), (RAX, RCX,)),
    "cbw": ((RAX,), (RAX,)),
    "cqo": ((RAX,), (RDX,)),
    "xlat": ((RAX, RBX), (RAX,)),
    "loop": ((RCX,), (RCX,)),
    "loope": ((RCX,), (RCX,)),
    "loopne": ((RCX,), (RCX,)),
    "jrcxz": ((RCX,), ()),
    "in": ((RDX,), (RAX,)),
    "out": ((RAX, RDX), ()),
}

#: Mnemonics that write their first (destination) operand but do not
#: read it.  Everything else with a ModRM destination is read-modify-write
#: or compare-like; see decoder.effects for the full dispatch.
WRITE_ONLY_DEST = frozenset({
    "mov", "movzx", "movsx", "movsxd", "lea", "pop", "set",
})

#: Compare-like mnemonics: both operands are read, nothing is written.
READS_ONLY = frozenset({"cmp", "test", "bt"})
