"""Code idiom recognition: function prologues.

Compilers emit highly stereotyped function openings; recognizing them at
aligned offsets (especially right after padding runs) yields
medium-priority code evidence for the correction algorithm and seeds
function-boundary identification.
"""

from __future__ import annotations

from ..isa.columns import token_names
from ..isa.instruction import Instruction
from ..isa.operands import ImmOp, RegOp
from ..isa.registers import RBP, RSP
from ..superset.superset import Superset

#: Score threshold above which an offset is treated as a likely prologue.
PROLOGUE_THRESHOLD = 2

#: Function start alignment assumed wherever prologues are looked for.
FUNCTION_ALIGNMENT = 16

#: Fall-through instructions a prologue match examines.
PROLOGUE_LOOKAHEAD = 4

#: Token prefixes of the instructions every scoring pattern opens with
#: (endbr is a nop; then push rbp, a callee-saved push or sub rsp).
_OPENERS = ("push:", "sub:", "nop:")


def _is_push_rbp(ins: Instruction) -> bool:
    return (ins.mnemonic == "push" and ins.operands
            and isinstance(ins.operands[0], RegOp)
            and ins.operands[0].register.family == RBP)


def _is_push_callee_saved(ins: Instruction) -> bool:
    from ..isa.registers import CALLEE_SAVED
    return (ins.mnemonic == "push" and ins.operands
            and isinstance(ins.operands[0], RegOp)
            and ins.operands[0].register.family in CALLEE_SAVED)


def _is_mov_rbp_rsp(ins: Instruction) -> bool:
    return (ins.mnemonic == "mov" and len(ins.operands) == 2
            and isinstance(ins.operands[0], RegOp)
            and isinstance(ins.operands[1], RegOp)
            and ins.operands[0].register.family == RBP
            and ins.operands[1].register.family == RSP)


def _is_sub_rsp_imm(ins: Instruction) -> bool:
    return (ins.mnemonic == "sub" and len(ins.operands) == 2
            and isinstance(ins.operands[0], RegOp)
            and ins.operands[0].register.family == RSP
            and isinstance(ins.operands[1], ImmOp)
            and 0 < ins.operands[1].value < 2 ** 20)


def _is_endbr(ins: Instruction) -> bool:
    return ins.mnemonic == "nop" and ins.raw[:1] == b"\xf3"


def prologue_score(superset: Superset, offset: int) -> int:
    """How strongly the candidate chain at ``offset`` opens a function.

    0 means "not a prologue"; 2+ is a confident match (canonical
    push rbp / mov rbp, rsp pairs, endbr landing pads followed by frame
    setup, or frameless sub rsp openings).
    """
    if not _may_open(superset, offset):
        return 0
    chain = superset.fallthrough_chain(offset, PROLOGUE_LOOKAHEAD)
    score = 0
    first = chain[0]
    if _is_endbr(first):
        score += 2
        chain = chain[1:]
        if not chain:
            return score
        first = chain[0]
    if _is_push_rbp(first):
        score += 2
        if len(chain) > 1 and _is_mov_rbp_rsp(chain[1]):
            score += 2
    elif _is_push_callee_saved(first):
        score += 1
    elif _is_sub_rsp_imm(first):
        score += 1
    for ins in chain[1:3]:
        if _is_sub_rsp_imm(ins) or _is_push_callee_saved(ins):
            score += 1
    return score


def _may_open(superset: Superset, offset: int) -> bool:
    """Whether the chain at ``offset`` has an opener among its first
    :data:`PROLOGUE_LOOKAHEAD` candidates (read from the columns; a
    chain without one scores 0)."""
    views, names = superset.views, token_names()
    for _ in range(PROLOGUE_LOOKAHEAD):
        if not superset.is_valid(offset):
            return False
        if names[views.token[offset]].startswith(_OPENERS):
            return True
        if not views.falls[offset]:
            return False
        offset += views.length[offset]
    return False


def likely_function_starts(superset: Superset) -> list[int]:
    """Aligned offsets whose candidate chain looks like a prologue."""
    starts = []
    for offset in range(0, len(superset), FUNCTION_ALIGNMENT):
        if superset.is_valid(offset) and \
                prologue_score(superset, offset) >= PROLOGUE_THRESHOLD:
            starts.append(offset)
    return starts
