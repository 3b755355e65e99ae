"""Register def-use analysis over candidate instruction chains.

Real compiler output computes values before consuming them; byte
sequences that merely *decode* (data, or starts inside real
instructions) show no such discipline.  Walking a candidate chain we
count:

* **def-use pairs** -- a register written earlier and read later
  (positive, code-like evidence);
* **register anomalies** -- reads of registers that are neither
  conventionally live at an unknown program point (arguments, stack
  registers, return value, callee-saved) nor defined in the window;
* **flag anomalies** -- flag consumers (jcc/setcc/cmov) with no flag
  producer earlier in the window.

All three signals are *soft*: a chain may begin mid-function where
unusual registers are legitimately live, so anomalies lower confidence
rather than vetoing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instruction import Instruction
from ..isa.opcodes import FlowKind
from ..isa.operands import RegOp
from ..isa.registers import (R8, R9, RAX, RBP, RBX, RCX, RDI, RDX, RSI, RSP,
                             R12, R13, R14, R15)

#: Registers plausibly live at an arbitrary program point: arguments,
#: stack registers, the return register, and callee-saved registers.
CONVENTIONALLY_LIVE = frozenset({
    RDI, RSI, RDX, RCX, R8, R9,   # System V argument registers
    RSP, RBP,                     # stack
    RAX,                          # return value
    RBX, R12, R13, R14, R15,      # callee-saved
})


@dataclass(frozen=True)
class DefUseSignals:
    """Counts extracted from one candidate chain."""

    instructions: int
    defuse_pairs: int
    register_anomalies: int
    flag_anomalies: int
    flag_pairs: int


def _is_zeroing_idiom(instruction: Instruction) -> bool:
    """xor r, r (or sub r, r): defines the register without reading it."""
    if instruction.mnemonic not in ("xor", "sub"):
        return False
    operands = instruction.operands
    return (len(operands) == 2
            and isinstance(operands[0], RegOp)
            and isinstance(operands[1], RegOp)
            and operands[0].register.family == operands[1].register.family)


def analyze_chain(chain: list[Instruction]) -> DefUseSignals:
    """Extract def-use signals from a fall-through candidate chain."""
    defined: set[int] = set()
    defuse_pairs = 0
    register_anomalies = 0
    flag_anomalies = 0
    flag_pairs = 0
    flags_defined = False

    for instruction in chain:
        reads = instruction.reads
        if _is_zeroing_idiom(instruction):
            reads = frozenset()

        for register in reads:
            if register in defined:
                defuse_pairs += 1
            elif register not in CONVENTIONALLY_LIVE:
                register_anomalies += 1

        if instruction.reads_flags:
            if flags_defined:
                flag_pairs += 1
            else:
                flag_anomalies += 1
        if instruction.writes_flags:
            flags_defined = True

        if instruction.flow in (FlowKind.CALL, FlowKind.ICALL):
            # After a call only the return value is known-defined.
            defined = {RAX, RSP, RBP} | (defined & CONVENTIONALLY_LIVE)
        else:
            defined |= instruction.writes

    return DefUseSignals(
        instructions=len(chain),
        defuse_pairs=defuse_pairs,
        register_anomalies=register_anomalies,
        flag_anomalies=flag_anomalies,
        flag_pairs=flag_pairs,
    )
