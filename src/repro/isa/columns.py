"""Whole-section array decode: per-offset columns for the superset.

Superset disassembly needs a handful of facts about the candidate at
every byte offset -- length, flow, register and flag effects, branch
and RIP-relative targets, an n-gram token -- and almost never the full
:class:`~repro.isa.instruction.Instruction`.  :func:`decode_columns`
computes those facts for a whole range of offsets at once, as a short
sequence of numpy passes that follow the decoder's grammar step by
step:

1. a bounded prefix/REX scan (a later legacy prefix resets REX);
2. an opcode-plan gather, with the ``0F`` escape;
3. ModRM, SIB and displacement sizes from ``mod``/``rm``, then the
   ModRM group member keyed by ``reg`` and the immediate size from the
   operand size;
4. the 15-byte limit (moffs and enter are exempt), the LOCK check and
   truncation against the end of the section;
5. rel8/rel16/rel32 and RIP displacements read at the computed
   positions.

The passes read the compiled decoder's plans (``_P1``/``_P2`` and their
merged ModRM groups), so there is one opcode table.  The scalar
decoders stay the oracle: the differential tests hold every column
equal to them at every offset.
"""

from __future__ import annotations

import functools
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _compiled
from .instruction import Instruction
from .opcodes import (ENC_ENTER, ENC_MOFFS, F_BYTEOP, F_DEF64, F_DEF64OVR,
                      F_LOCKABLE, F_NOADDR, F_NOCHECKS, F_RARE, F_RFLAGS,
                      F_RM8, F_RM16, F_RM32, F_WFLAGS, F_XCHGPAIR,
                      NO_FALLTHROUGH, FlowKind)
from .operands import RegOp
from .tables import MAX_INSTRUCTION_LENGTH

#: Flow kinds by their code in the ``flow`` column.
FLOW_KINDS = tuple(FlowKind)
#: Flow kind -> its code in the ``flow`` column.
FLOW_CODES = {kind: code for code, kind in enumerate(FLOW_KINDS)}



def flow_in(flows: np.ndarray, kinds) -> np.ndarray:
    """Mask of the ``flows`` codes that are one of ``kinds``."""
    return np.isin(flows, [FLOW_CODES[kind] for kind in kinds])


#: The columns, one entry per offset, and their dtypes.  Where ``valid``
#: is False every other column holds 0 (``token`` holds -1).
COLUMNS = {
    "valid": np.bool_, "length": np.uint8, "flow": np.uint8,
    "falls": np.bool_, "rare": np.bool_,
    "reads": np.uint16, "writes": np.uint16,     # register-family masks
    "reads_flags": np.bool_, "writes_flags": np.bool_,
    # xor/sub r, r: defines the register without reading it.
    "zeroing": np.bool_,
    "token": np.int32,                           # id into token_names()
    "has_target": np.bool_, "target": np.int64,  # direct branch target
    "has_rip": np.bool_, "rip": np.int64,        # RIP-relative target
}

#: Bytes past the end of a section that a decode pass may read (the
#: longest reach: 14 prefixes, two opcode bytes, ModRM, SIB, disp32 and
#: an imm32).  Reads there make a candidate truncated, never valid.
_PAD = 32

#: Offsets decoded per pass, bounding the passes' scratch memory.
_CHUNK = 1 << 13

#: Plan slots: 512 opcode slots (``0F``-escaped ones from 256 on), then
#: 8 ModRM-group members per opcode slot.
_SLOTS = 512 + 512 * 8

#: Operand shape of the r/m side, for the token key: none, a register
#: of width 8/16/32/64, a memory operand, a RIP-relative one.
_RM_MEM, _RM_RIP = 5, 6


class Columns:
    """Per-offset decode facts, one array per :data:`COLUMNS` name."""

    def __init__(self, **arrays: np.ndarray) -> None:
        self.__dict__.update(arrays)

    @classmethod
    def empty(cls, size: int) -> Columns:
        columns = cls(**{name: np.zeros(size, dtype)
                         for name, dtype in COLUMNS.items()})
        columns.token[:] = -1
        return columns

    def resized(self, size: int) -> Columns:
        """A writable copy with ``size`` entries (new ones invalid)."""
        out = Columns.empty(size)
        kept = min(size, len(self.valid))
        for name in COLUMNS:
            getattr(out, name)[:kept] = getattr(self, name)[:kept]
        return out

    def assign(self, start: int, part: Columns) -> None:
        """Overwrite the entries from ``start`` on with ``part``'s."""
        end = start + len(part.valid)
        for name in COLUMNS:
            getattr(self, name)[start:end] = getattr(part, name)


@functools.cache
def _plan_tables() -> dict[str, np.ndarray]:
    """Per-slot plan fields, gathered from the compiled plans once."""
    enc = np.zeros(_SLOTS, np.uint8)
    imm = np.zeros(_SLOTS, np.uint8)
    flags = np.zeros(_SLOTS, np.int32)
    ek = np.zeros(_SLOTS, np.uint8)
    rd = np.zeros(_SLOTS, np.uint16)
    wr = np.zeros(_SLOTS, np.uint16)
    flow = np.zeros(_SLOTS, np.uint8)
    defined = np.zeros(_SLOTS, np.bool_)
    grouped = np.zeros(_SLOTS, np.bool_)
    zeroable = np.zeros(_SLOTS, np.bool_)

    def mask(effects) -> int:
        return (effects if isinstance(effects, int)
                else sum(1 << family for family in effects))

    def fill(slot: int, plan, parent_enc: int) -> None:
        p_enc, p_imm, p_flags, p_ek, reads, writes, group, _, tpl = plan
        defined[slot] = True
        enc[slot] = parent_enc if parent_enc >= 0 else p_enc
        imm[slot] = p_imm
        flags[slot] = p_flags
        ek[slot] = p_ek
        rd[slot] = mask(reads)
        wr[slot] = mask(writes)
        flow[slot] = FLOW_CODES[tpl["flow"]]
        zeroable[slot] = tpl["mnemonic"] in ("xor", "sub")
        grouped[slot] = group is not None

    for escape, table in enumerate((_compiled._P1, _compiled._P2)):
        for byte, plan in enumerate(table):
            slot = escape * 256 + byte
            if plan is None:
                continue
            fill(slot, plan, -1)
            for reg, member in enumerate(plan[6] or ()):
                if member is not None:
                    fill(512 + slot * 8 + reg, member, plan[0])
    falls = np.ones(len(FLOW_KINDS), np.bool_)
    falls[[FLOW_CODES[kind] for kind in NO_FALLTHROUGH]] = False
    return {"enc": enc, "imm": imm, "flags": flags, "ek": ek, "rd": rd,
            "wr": wr, "flow": flow, "defined": defined,
            "grouped": grouped, "zeroable": zeroable, "falls": falls,
            "bclass": np.frombuffer(_compiled._BCLASS, np.uint8),
            "pbit": np.frombuffer(_compiled._PBIT, np.uint8)}


def decode_columns(text: bytes, start: int = 0,
                   end: int | None = None) -> Columns:
    """The columns of the candidates at offsets ``[start, end)`` of
    ``text`` (all of it by default), decoded against the whole text."""
    end = len(text) if end is None else end
    buf = np.frombuffer(text + bytes(_PAD), np.uint8)
    columns = Columns.empty(end - start)
    for lo in range(start, end, _CHUNK):
        hi = min(end, lo + _CHUNK)
        columns.assign(lo - start, _decode_chunk(text, buf, lo, hi))
    return columns


def _read(buf: np.ndarray, positions: np.ndarray, size: int) -> np.ndarray:
    """Signed little-endian ``size``-byte integers at ``positions``."""
    if size == 1:
        return buf[positions].view(np.int8).astype(np.int64)
    dtype = "<i2" if size == 2 else "<i4"
    return (sliding_window_view(buf, size)[positions]
            .view(dtype).ravel().astype(np.int64))


def _decode_chunk(text: bytes, buf: np.ndarray, lo: int,
                  hi: int) -> Columns:
    t = _plan_tables()
    offsets = np.arange(lo, hi, dtype=np.int64)
    pos = offsets.copy()
    count = hi - lo
    pmask = np.zeros(count, np.uint8)
    rex = np.zeros(count, np.uint8)

    # 1. Prefix/REX scan: at most 14 prefixes, a 15th is too long.
    active = np.arange(count)
    for _ in range(MAX_INSTRUCTION_LENGTH):
        byte = buf[pos[active]]
        kind = t["bclass"][byte]
        scanning = kind != 0
        active, byte, kind = active[scanning], byte[scanning], kind[scanning]
        if not active.size:
            break
        legacy = kind == 1
        pmask[active] |= t["pbit"][byte]
        rex[active] = np.where(legacy, 0, byte & 15)
        pos[active] += 1
    bad = np.zeros(count, np.bool_)
    bad[active] = True      # prefixes still running at 15 bytes

    # 2. Opcode plan, through the 0F escape.
    byte = buf[pos].astype(np.int64)
    pos += 1
    escaped = byte == 0x0F
    byte[escaped] = buf[pos[escaped]]
    pos[escaped] += 1
    slot = byte + 256 * escaped
    bad |= ~t["defined"][slot]
    flags = t["flags"][slot]
    enc = t["enc"][slot]
    rex_w = (rex & 8) != 0
    osz16 = ((pmask & 1) != 0) & ~rex_w
    opsize = np.where(flags & F_BYTEOP, 8,
                      np.where(osz16, 16,
                               np.where(rex_w | ((flags & F_DEF64) != 0),
                                        64, 32)))

    # 3. ModRM (+SIB, +displacement), then the group member by reg.
    rm_shape = np.zeros(count, np.uint8)
    rm_fam = np.full(count, -1, np.int64)
    reg_f = np.zeros(count, np.int64)
    addr = np.zeros(count, np.uint16)
    dest_mem = np.zeros(count, np.bool_)
    rip_at = np.full(count, -1, np.int64)   # where a RIP disp32 sits
    m = np.flatnonzero((enc >= 1) & (enc <= 5))
    modrm = buf[pos[m]].astype(np.int64)
    pos[m] += 1
    mod, rm = modrm >> 6, modrm & 7
    rex_m = rex[m].astype(np.int64)
    reg_f[m] = ((rex_m & 4) << 1) | ((modrm >> 3) & 7)
    f_m = flags[m]
    rm_w = np.where(f_m & F_RM8, 8, np.where(f_m & F_RM16, 16, np.where(
        f_m & F_RM32, 32, opsize[m])))
    direct = mod == 3
    rm_fam[m[direct]] = (rm | ((rex_m & 1) << 3))[direct]
    rm_shape[m] = np.where(direct, np.select(
        [rm_w == 8, rm_w == 16, rm_w == 32], [1, 2, 3], 4), _RM_MEM)
    sib = ~direct & (rm == 4)
    rip = ~direct & (rm == 5) & (mod == 0)
    based = ~direct & ~sib & ~rip
    addr_m = np.zeros(len(m), np.uint16)
    addr_m[based] = 1 << (rm | ((rex_m & 1) << 3))[based]
    s = np.flatnonzero(sib)
    sib_byte = buf[pos[m[s]]].astype(np.int64)
    pos[m[s]] += 1
    index = ((sib_byte >> 3) & 7) | ((rex_m[s] & 2) << 2)
    base_none = ((sib_byte & 7) == 5) & (mod[s] == 0)
    addr_s = np.where(index != 4, 1 << index, 0)
    addr_s |= np.where(base_none, 0,
                       1 << ((sib_byte & 7) | ((rex_m[s] & 1) << 3)))
    addr_m[s] = addr_s
    disp32 = rip.copy()
    disp32[s] = base_none
    rip_at[m[rip]] = pos[m[rip]]
    rm_shape[m[rip]] = _RM_RIP
    pos[m] += np.where(mod == 1, 1, np.where((mod == 2) | disp32, 4, 0))
    addr[m] = addr_m
    dest_mem[m] = ~direct & (enc[m] != 2) & (enc[m] != 3)
    g = m[t["grouped"][slot[m]]]
    slot[g] = 512 + slot[g] * 8 + (reg_f[g] & 7)
    bad[g] |= ~t["defined"][slot[g]]
    flags = t["flags"][slot]
    opsize = np.where(flags & F_DEF64OVR, np.where(osz16, 16, 64), opsize)

    # Immediates (a relative displacement for enc D) and fixed layouts.
    imm = t["imm"][slot]
    imm_size = np.select(
        [imm == 1, imm == 2, imm == 3, imm == 4],
        [1, 2, np.where(opsize == 16, 2, 4),
         np.where(opsize == 16, 2, np.where(opsize == 32, 4, 8))], 0)
    branch = enc == 9
    imm_size[branch] = np.where(
        imm[branch] == 1, 1,
        np.where((imm[branch] != 0) & (opsize[branch] == 16), 2, 4))
    imm_size[enc == 0] = 0
    imm_size[enc == ENC_MOFFS] = 8
    imm_size[enc == ENC_ENTER] = 3
    disp_at = pos.copy()
    pos += imm_size
    length = pos - offsets

    # 4. Length and LOCK checks, then truncation.
    checked = (flags & F_NOCHECKS) == 0
    bad |= checked & (length > MAX_INSTRUCTION_LENGTH)
    bad |= (checked & ((pmask & 2) != 0)
            & ~(((flags & F_LOCKABLE) != 0) & dest_mem))
    bad |= pos > len(text)
    valid = ~bad

    # Register effects (the compiled engine's effect kinds).
    dest = np.full(count, -1, np.int64)
    src = np.full(count, -1, np.int64)
    dest[m] = np.where(enc[m] <= 1, rm_fam[m],
                       np.where(enc[m] <= 3, reg_f[m], rm_fam[m]))
    src[m] = np.where(enc[m] == 1, reg_f[m],
                      np.where(enc[m] <= 3, rm_fam[m], -1))
    o = np.flatnonzero((enc == 7) | (enc == 8))
    number = (byte[o] & 7) | ((rex[o].astype(np.int64) & 1) << 3)
    pair = (flags[o] & F_XCHGPAIR) != 0
    dest[o] = np.where(pair, 0, number)
    src[o] = np.where(pair, number, -1)
    dmask = np.where(dest >= 0, 1 << np.maximum(dest, 0), 0).astype(np.uint16)
    smask = np.where(src >= 0, 1 << np.maximum(src, 0), 0).astype(np.uint16)
    ek = t["ek"][slot]
    reads = t["rd"][slot] | np.where((ek != 0) & ((flags & F_NOADDR) == 0),
                                     addr, 0).astype(np.uint16)
    reads |= np.select([ek == 1, ek == 3, ek == 4, ek == 5, ek == 6],
                       [dmask, dmask | smask, dmask | smask, smask,
                        dmask | smask], 0).astype(np.uint16)
    writes = t["wr"][slot] | np.select(
        [ek == 2, ek == 3, ek == 5, ek == 6],
        [dmask, dmask | smask, dmask, dmask], 0).astype(np.uint16)

    flow = t["flow"][slot]
    targets = np.zeros(count, np.int64)
    b = np.flatnonzero(branch & valid)
    for size in (1, 2, 4):
        sized = b[imm_size[b] == size]
        targets[sized] = pos[sized] + _read(buf, disp_at[sized], size)
    rips = np.zeros(count, np.int64)
    r = np.flatnonzero((rip_at >= 0) & valid)
    rips[r] = pos[r] + _read(buf, rip_at[r], 4)

    opsize_code = np.select([opsize == 8, opsize == 16, opsize == 32],
                            [0, 1, 2], 3)
    keys = (slot * 4 + opsize_code) * 8 + rm_shape
    return Columns(
        valid=valid,
        length=np.where(valid, length, 0).astype(np.uint8),
        flow=np.where(valid, flow, 0).astype(np.uint8),
        falls=valid & t["falls"][flow],
        rare=valid & (((flags & F_RARE) != 0) | ((pmask & 4) != 0)),
        reads=np.where(valid, reads, 0).astype(np.uint16),
        writes=np.where(valid, writes, 0).astype(np.uint16),
        reads_flags=valid & ((flags & F_RFLAGS) != 0),
        writes_flags=valid & ((flags & F_WFLAGS) != 0),
        zeroing=(valid & t["zeroable"][slot] & (rm_fam >= 0)
                 & (enc <= 3) & (rm_fam == reg_f)),
        token=_token_ids(text, keys, offsets, valid),
        has_target=valid & branch, target=targets,
        has_rip=valid & (rip_at >= 0), rip=rips)


# ---------------------------------------------------------------------------
# Token ids
#
# A candidate's n-gram token is a function of its plan slot, its operand
# size and the shape of its r/m operand (the token key).  Each key's
# token is computed once per process, from a scalar decode of the first
# candidate that has it, and interned into one table of names.
# ---------------------------------------------------------------------------

_TOKEN_NAMES: list[str] = []
_TOKEN_INDEX: dict[str, int] = {}
_KEY_TOKENS = np.full(_SLOTS * 4 * 8, -1, np.int32)
_TOKEN_LOCK = threading.Lock()


def token_names() -> list[str]:
    """The interned token names; ``token`` column values index it."""
    return _TOKEN_NAMES


def _token_ids(text: bytes, keys: np.ndarray, offsets: np.ndarray,
               valid: np.ndarray) -> np.ndarray:
    keys = np.where(valid, keys, 0)
    if (valid & (_KEY_TOKENS[keys] < 0)).any():
        # The n-gram model owns the token spelling; imported here
        # because repro.stats depends on the superset, which uses this.
        from ..stats.ngram import token_of
        from .decoder import try_decode
        with _TOKEN_LOCK:
            unknown = valid & (_KEY_TOKENS[keys] < 0)
            new, first = np.unique(keys[unknown], return_index=True)
            for key, offset in zip(new.tolist(),
                                   offsets[unknown][first].tolist()):
                name = token_of(try_decode(text, offset))
                if name not in _TOKEN_INDEX:
                    _TOKEN_INDEX[name] = len(_TOKEN_NAMES)
                    _TOKEN_NAMES.append(name)
                _KEY_TOKENS[key] = _TOKEN_INDEX[name]
    return np.where(valid, _KEY_TOKENS[keys], -1).astype(np.int32)


# ---------------------------------------------------------------------------
# The scalar definition of the columns
# ---------------------------------------------------------------------------

def is_zeroing_idiom(instruction: Instruction) -> bool:
    """xor r, r (or sub r, r): defines the register without reading it."""
    if instruction.mnemonic not in ("xor", "sub"):
        return False
    operands = instruction.operands
    return (len(operands) == 2
            and isinstance(operands[0], RegOp)
            and isinstance(operands[1], RegOp)
            and operands[0].register.family == operands[1].register.family)


def scalar_row(instruction: Instruction | None) -> dict:
    """The column values a scalar decode result (None where nothing
    decodes) stands for; ``token`` is the token's name."""
    if instruction is None:
        row = {name: 0 for name in COLUMNS}
        row.update(valid=False, token=None)
        return row
    from ..stats.ngram import token_of
    target = (instruction.branch_target if instruction.is_direct_branch
              else None)
    rip = instruction.rip_target
    return {
        "valid": True, "length": instruction.length,
        "flow": FLOW_CODES[instruction.flow],
        "falls": instruction.falls_through, "rare": instruction.rare,
        "reads": sum(1 << family for family in instruction.reads),
        "writes": sum(1 << family for family in instruction.writes),
        "reads_flags": instruction.reads_flags,
        "writes_flags": instruction.writes_flags,
        "zeroing": is_zeroing_idiom(instruction),
        "token": token_of(instruction),
        "has_target": target is not None, "target": target or 0,
        "has_rip": rip is not None, "rip": rip or 0,
    }


def mismatches(text: bytes, columns: Columns, decode) -> list[int]:
    """The offsets at which ``columns`` differ from the scalar decoder
    ``decode`` (empty when they agree everywhere)."""
    values = {name: getattr(columns, name).tolist() for name in COLUMNS}
    names = token_names()
    values["token"] = [names[token] if token >= 0 else None
                       for token in values["token"]]
    return [offset for offset in range(len(text))
            if {name: column[offset] for name, column in values.items()}
            != scalar_row(decode(text, offset))]
