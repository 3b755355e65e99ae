"""Jump/pointer-table resolution by local backward dataflow.

When tracing confirms an indirect jump or call, the surrounding
instructions usually reveal the dispatch table:

* ``jmp [T + idx*8]``                      -- absolute table at T;
* ``lea B, [rip -> T]`` / ``mov B, T`` ... ``movsxd S, [B + idx*4]`` ...
  ``add S, B`` ... ``jmp S``               -- self-relative table at T;
* ``mov R, [T + idx*8]`` ... ``call R``    -- pointer (function) table.

The table bound comes from the guarding ``cmp idx, N-1`` when one is
found in the short backward instruction chain; otherwise entries are
read while they remain plausible code addresses.  Resolved targets are
definitive code evidence, and tables living inside the text section are
definitive data evidence -- the strongest correction signals the
algorithm has.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..binary.image import MemoryImage
from ..isa.instruction import Instruction
from ..isa.opcodes import FlowKind
from ..isa.operands import ImmOp, MemOp, RegOp
from ..superset.superset import Superset

#: Hard cap on entries read when no cmp bound is found.
MAX_UNBOUNDED_ENTRIES = 64

#: How many confirmed instructions the backward walk may cross.
BACKWARD_WINDOW = 8


@dataclass(frozen=True)
class ResolvedTable:
    """One successfully resolved dispatch table."""

    address: int            # absolute address of the first entry
    entry_size: int         # 8 (absolute) or 4 (self-relative)
    targets: tuple[int, ...]
    in_text: bool           # table bytes live inside the text section
    kind: str               # "jump" or "pointer"
    dispatch: int = -1      # offset of the dispatching instruction

    @property
    def end(self) -> int:
        return self.address + self.entry_size * len(self.targets)


def backward_chain(superset: Superset, accepted, offset: int,
                   limit: int = BACKWARD_WINDOW) -> list[Instruction]:
    """Confirmed instructions linearly preceding ``offset``, nearest first.

    ``accepted`` is a predicate over offsets (is this an accepted
    instruction start?).  The walk follows exact end-to-start adjacency,
    which holds within a basic block.
    """
    chain: list[Instruction] = []
    current = offset
    while len(chain) < limit:
        previous = None
        for back in range(1, 16):
            candidate = current - back
            if candidate < 0:
                break
            if accepted(candidate):
                ins = superset.at(candidate)
                if ins is not None and ins.end == current:
                    previous = ins
                break
        if previous is None:
            break
        chain.append(previous)
        current = previous.offset
    return chain


def _bound_from_cmp(chain: list[Instruction]) -> int | None:
    """Entry count from a guarding ``cmp idx, N-1`` in the chain."""
    for ins in chain:
        if ins.mnemonic == "cmp" and len(ins.operands) == 2 \
                and isinstance(ins.operands[1], ImmOp):
            bound = ins.operands[1].value + 1
            if 1 <= bound <= 4096:
                return bound
    return None


def _indexed_table_operand(ins: Instruction) -> MemOp | None:
    """The [T + idx*k] operand of a dispatch, if it has that shape."""
    for operand in ins.operands:
        if isinstance(operand, MemOp) and operand.base is None \
                and operand.index is not None and not operand.rip_relative:
            return operand
    return None


def _read_entries(image: MemoryImage, address: int, entry_size: int,
                  superset: Superset, bound: int | None) -> tuple[int, ...]:
    """The targets of a table at ``address``: absolute 8-byte entries,
    or 4-byte entries relative to the table start.

    For in-text tables the table address is also the table's text
    offset, so relative entries resolve the same in both placements.
    """
    read, base = ((image.read_u64, 0) if entry_size == 8
                  else (image.read_i32, address))
    limit = bound if bound is not None else MAX_UNBOUNDED_ENTRIES
    targets: list[int] = []
    for i in range(limit):
        value = read(address + entry_size * i)
        if value is None or not superset.is_valid(base + value):
            if bound is not None:
                return ()   # a bounded table must be fully plausible
            break
        targets.append(base + value)
    return tuple(targets)


def resolve_indirect_jump(superset: Superset, image: MemoryImage,
                          accepted, dispatch: Instruction
                          ) -> ResolvedTable | None:
    """Resolve ``jmp [T + idx*8]`` or the lea/movsxd/add/jmp-reg idiom."""
    chain = backward_chain(superset, accepted, dispatch.offset)
    bound = _bound_from_cmp(chain)

    operand = _indexed_table_operand(dispatch)
    if operand is not None and operand.scale == 8:
        address = operand.disp & 0xFFFFFFFF
        targets = _read_entries(image, address, 8, superset, bound)
        if len(targets) >= 2:
            return ResolvedTable(address=address, entry_size=8,
                                 targets=targets,
                                 in_text=image.in_text(address),
                                 kind="jump", dispatch=dispatch.offset)
        return None

    # jmp reg: look for movsxd S, [B + idx*4] and the definition of B.
    if not dispatch.operands or not isinstance(dispatch.operands[0], RegOp):
        return None
    table_base = _relative_table_base(chain)
    if table_base is None:
        return None
    targets = _read_entries(image, table_base, 4, superset, bound)
    if len(targets) >= 2:
        return ResolvedTable(address=table_base, entry_size=4,
                             targets=targets,
                             in_text=image.in_text(table_base),
                             kind="jump", dispatch=dispatch.offset)
    return None


def _relative_table_base(chain: list[Instruction]) -> int | None:
    """Find B's value from ``lea B, [rip->T]`` or ``mov B, imm``."""
    base_register: int | None = None
    for ins in chain:
        if ins.mnemonic == "movsxd" and len(ins.operands) == 2 \
                and isinstance(ins.operands[1], MemOp) \
                and ins.operands[1].scale == 4 \
                and ins.operands[1].base is not None:
            base_register = ins.operands[1].base.family
            continue
        if base_register is None:
            continue
        if not ins.operands or not isinstance(ins.operands[0], RegOp) \
                or ins.operands[0].register.family != base_register:
            continue
        if ins.mnemonic == "lea" and ins.rip_target is not None:
            return ins.rip_target
        if ins.mnemonic == "mov" and len(ins.operands) == 2 \
                and isinstance(ins.operands[1], ImmOp):
            return ins.operands[1].value
    return None


def resolve_indirect_call(superset: Superset, image: MemoryImage,
                          accepted, dispatch: Instruction
                          ) -> ResolvedTable | None:
    """Resolve ``mov R, [T + idx*8] ... call R`` pointer tables."""
    if not dispatch.operands or not isinstance(dispatch.operands[0], RegOp):
        return None
    register = dispatch.operands[0].register.family
    chain = backward_chain(superset, accepted, dispatch.offset)
    bound = _bound_from_cmp(chain)
    for ins in chain:
        if ins.mnemonic != "mov" or len(ins.operands) != 2:
            continue
        dst, src = ins.operands
        if not isinstance(dst, RegOp) or dst.register.family != register:
            continue
        if not isinstance(src, MemOp) or src.base is not None \
                or src.index is None or src.rip_relative or src.scale != 8:
            continue
        address = src.disp & 0xFFFFFFFF
        targets = _read_entries(image, address, 8, superset, bound)
        if len(targets) >= 2:
            return ResolvedTable(address=address, entry_size=8,
                                 targets=targets,
                                 in_text=image.in_text(address),
                                 kind="pointer",
                                 dispatch=dispatch.offset)
        return None
    return None


def resolve_dispatch(superset: Superset, image: MemoryImage, accepted,
                     dispatch: Instruction) -> ResolvedTable | None:
    """Resolve the table behind a confirmed indirect jump or call."""
    if dispatch.flow is FlowKind.IJUMP:
        return resolve_indirect_jump(superset, image, accepted, dispatch)
    return resolve_indirect_call(superset, image, accepted, dispatch)
