"""The decoded-instruction value object."""

from __future__ import annotations

from dataclasses import dataclass

from .opcodes import CONDITION_CODES, FlowKind, NO_FALLTHROUGH
from .operands import MemOp, Operand, RelOp


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    Attributes:
        offset: offset of the first byte within the decoded buffer.
        length: encoded length in bytes.
        mnemonic: canonical mnemonic; condition-coded families use the
            internal ``j.N`` / ``set.N`` / ``cmov.N`` spelling (see
            :attr:`display_mnemonic` for the human form).
        operands: decoded operands in Intel order (destination first).
        flow: control-flow classification.
        reads / writes: general-purpose register *families* (hardware
            numbers 0-15) read and written, including implicit effects.
        reads_flags / writes_flags: arithmetic-flags effects.
        rare: True when the opcode essentially never appears in
            compiler-generated code.
        raw: the encoded bytes.
    """

    offset: int
    length: int
    mnemonic: str
    operands: tuple[Operand, ...] = ()
    flow: FlowKind = FlowKind.SEQ
    reads: frozenset[int] = frozenset()
    writes: frozenset[int] = frozenset()
    reads_flags: bool = False
    writes_flags: bool = False
    rare: bool = False
    raw: bytes = b""

    @property
    def end(self) -> int:
        """Offset of the first byte after this instruction."""
        return self.offset + self.length

    @property
    def falls_through(self) -> bool:
        """True when execution can continue at :attr:`end`."""
        return self.flow not in NO_FALLTHROUGH

    @property
    def branch_target(self) -> int | None:
        """Absolute target of a direct jump/call, else None."""
        for operand in self.operands:
            if isinstance(operand, RelOp):
                return operand.target
        return None

    @property
    def is_direct_branch(self) -> bool:
        return self.flow in (FlowKind.JUMP, FlowKind.CJUMP, FlowKind.CALL)

    @property
    def is_nop(self) -> bool:
        return self.mnemonic == "nop"

    @property
    def rip_target(self) -> int | None:
        """Absolute offset referenced RIP-relatively, if any."""
        for operand in self.operands:
            if isinstance(operand, MemOp) and operand.rip_relative:
                return operand.target
        return None

    @property
    def display_mnemonic(self) -> str:
        """Human-readable mnemonic (``j.4`` -> ``je``)."""
        base, dot, cc = self.mnemonic.partition(".")
        if dot and cc.isdigit():
            prefix = {"j": "j", "set": "set", "cmov": "cmov"}.get(base)
            if prefix is not None:
                return prefix + CONDITION_CODES[int(cc)]
        return self.mnemonic

    def __str__(self) -> str:
        ops = ", ".join(str(o) for o in self.operands)
        text = self.display_mnemonic
        return f"{self.offset:#07x}: {text} {ops}".rstrip()
