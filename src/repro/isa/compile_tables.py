"""Offline table compiler for the x86-64 decoder hot path.

The superset builds its instructions on demand with one scalar decode
each, and the listing, the rewriter and the baselines decode
instruction by instruction, so the interpretive table walk in
:mod:`repro.isa.decoder` would be paid on every one of those paths;
the plans emitted here are also the opcode table of the superset's
whole-section array decoder (:mod:`repro.isa.columns`).  This module
lowers the opcode tables (:data:`~repro.isa.tables.ONE_BYTE`,
:data:`~repro.isa.tables.TWO_BYTE`, the ModRM groups) plus the
prefix/REX/ModRM/SIB/immediate grammar into a specialized generated
module, ``repro/isa/_compiled.py``, following the classic
generate-then-minimize pipeline of table-driven lexer generators:

* **Byte-level DFA for the prefix scanner.**  The 256 byte values
  collapse into three equivalence classes (opcode/exit, legacy prefix,
  REX) stored in a dense ``bytes`` table, and a second table maps each
  prefix byte to the *one-hot bit* the rest of the decode actually
  consumes (operand size, lock, rare segment override).  That is the
  minimized form of the oracle's ``set()``-per-decode prefix tracking.

* **Dense-array dispatch over the opcode keyspace.**  The (escape,
  opcode) keyspace is perfect-hashed by construction -- two 256-entry
  tuples -- and every entry is a pre-lowered *plan*: a flat 9-tuple
  with the encoding code, immediate code, a flag bitfield, an
  effect-kind code, precomputed register-effect masks, and a template
  dict of the plan-constant Instruction fields.
  Group opcodes carry their ModRM.reg sub-plans fully merged at compile
  time (immediate inheritance, ``default_64`` overrides, the D2/D3
  implicit ``cl`` read), so the engine never consults
  :class:`~repro.isa.opcodes.GroupEntry` at run time.

* **Plan interning.**  Identical plans are deduplicated into shared
  module-level constants (the 6-opcode ALU blocks, the 16 ``j.cc``
  variants per immediate width, the SIMD ranges), which both shrinks
  the generated module and keeps the dispatch tuples pointing at a few
  dozen heavily-reused objects.

* **Allocation-lean engine.**  The emitted ``raw_decode`` works on any
  indexable byte buffer with no reader object, interns ``RegOp``/
  ``Register`` values in dense pools, interns ``frozenset`` effect sets
  keyed by 16-bit family masks, and constructs the frozen dataclasses
  via ``__new__`` + a single ``object.__setattr__`` of ``__dict__``.
  Decode failures return a small int (0 invalid / 1 truncated / 2 too
  long) instead of raising, so the superset sweep pays no exception
  machinery on the ~7% of offsets that fail.

The generated module is **checked in**; regenerate it with::

    python -m repro.isa.compile_tables

and verify drift (CI does this) with::

    python -m repro.isa.compile_tables --check

The interpretive decoder remains the differential-testing oracle: the
engine must be bit-identical to it on every input, including its
deliberate quirks (pre-group operand size for the r/m width, the
``mov``-moffs/``enter`` check exemptions, REX reset on a later legacy
prefix, error-class priorities).  ``tests/isa/test_decoder_differential``
enforces that contract.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
from pathlib import Path

from .decoder import _LOCKABLE, _NO_GPR_SEMANTICS, _RAX_IMPLICIT
from .opcodes import (ENC_ENTER, ENC_MOFFS, F_BYTEOP, F_DEF64, F_DEF64OVR,
                      F_IMM1, F_LOCKABLE, F_NOADDR, F_NOCHECKS, F_RARE,
                      F_RENAME, F_RFLAGS, F_RM8, F_RM16, F_RM32, F_WFLAGS,
                      F_XCHGPAIR, IMPLICIT_EFFECTS, READS_ONLY,
                      WRITE_ONLY_DEST, Encoding, GroupEntry, ImmSize,
                      OpcodeInfo)
from .registers import RCX
from .tables import (FLAG_READERS, FLAG_WRITERS, LEGACY_PREFIXES, ONE_BYTE,
                     TWO_BYTE)

#: Where the generated module lives (checked in, next to this compiler).
GENERATED_PATH = Path(__file__).with_name("_compiled.py")

# ---------------------------------------------------------------------------
# Plan representation
#
# A plan is the flat 9-tuple the engine dispatches on:
#
#   (enc, imm, flags, ek, reads, writes, group, extra, tpl)
#
# enc   0 NONE / 1 MR / 2 RM / 3 RMI / 4 M / 5 MI / 6 I / 7 O / 8 OI /
#       9 D / 10 MOFFS / 11 ENTER      (1..5 are the ModRM forms)
# imm   0 none / 1 B / 2 W / 3 Z / 4 V
# ek    effect kind: 0 static (reads/writes are final frozensets),
#       1 read-dest, 2 write-dest-only (pop/lea), 3 xchg, 4 reads-only,
#       5 write-dest-read-src, 6 read-modify-write, 7 no GPR semantics
# flags bitfield, see F_* (defined in repro.isa.opcodes)
# group None, or the 8 merged ModRM.reg sub-plans
# extra None, or the operand-size rename map for cwde/cdq
# tpl   dict of the plan-constant Instruction fields (mnemonic, flow,
#       flag booleans, base rarity); the engine copies it per decode
# ---------------------------------------------------------------------------

_ENC_CODES = {
    Encoding.NONE: 0, Encoding.MR: 1, Encoding.RM: 2, Encoding.RMI: 3,
    Encoding.M: 4, Encoding.MI: 5, Encoding.I: 6, Encoding.O: 7,
    Encoding.OI: 8, Encoding.D: 9,
}

_IMM_CODES = {ImmSize.NONE: 0, ImmSize.B: 1, ImmSize.W: 2, ImmSize.Z: 3,
              ImmSize.V: 4}

#: Encodings whose operands can never name a general-purpose register,
#: so the full effect sets are computable at compile time.
_STATIC_ENCS = frozenset({0, 6, 9, ENC_MOFFS, ENC_ENTER})

#: The operand-size mnemonic renames (mirrors the decoder's literal map).
_RENAMES = {
    "cwde": {16: "cbw", 32: "cwde", 64: "cdqe"},
    "cdq": {16: "cwd", 32: "cdq", 64: "cqo"},
}


def _effect_kind(mnemonic: str) -> int:
    """Classify a mnemonic's operand effects (the oracle's branch order)."""
    if mnemonic in _NO_GPR_SEMANTICS or mnemonic.startswith("simd."):
        return 7
    if mnemonic in ("push", "call", "jmp"):
        return 1
    if mnemonic == "pop":
        return 2
    if mnemonic in ("mul", "imul1", "div", "idiv"):
        return 1
    if mnemonic == "xchg":
        return 3
    if mnemonic == "lea":
        return 2
    if mnemonic in READS_ONLY:
        return 4
    if mnemonic in WRITE_ONLY_DEST or mnemonic.startswith(("set.", "mov")):
        return 5
    return 6


def _mask(families) -> int:
    m = 0
    for family in families:
        m |= 1 << family
    return m


def _implicit_masks(mnemonic: str) -> tuple[int, int]:
    implicit = IMPLICIT_EFFECTS.get(mnemonic)
    if implicit is None:
        return 0, 0
    return _mask(implicit[0]), _mask(implicit[1])


def _static_effects(mnemonic: str, encoding: Encoding) -> tuple[int, int]:
    """Final effect masks for plans with no register-bearing operands."""
    reads, writes = _implicit_masks(mnemonic)
    if encoding is Encoding.I and mnemonic in _RAX_IMPLICIT:
        reads |= 1       # rAX
        if mnemonic not in ("cmp", "test"):
            writes |= 1
    return reads, writes


def _common_flags(mnemonic: str) -> int:
    flags = 0
    if mnemonic in ("nop", "prefetch"):
        flags |= F_NOADDR
    if mnemonic in _LOCKABLE:
        flags |= F_LOCKABLE
    if mnemonic in FLAG_READERS:
        flags |= F_RFLAGS
    if mnemonic in FLAG_WRITERS:
        flags |= F_WFLAGS
    return flags


class _Emitter:
    """Interns emitted expressions into named module-level constants."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._names: dict[str, str] = {}
        self._counts: dict[str, int] = {}

    def intern(self, expr: str, kind: str) -> str:
        name = self._names.get(expr)
        if name is None:
            index = self._counts.get(kind, 0)
            self._counts[kind] = index + 1
            name = f"_{kind}{index}"
            self._names[expr] = name
            self.lines.append(f"{name} = {expr}")
        return name

    def count(self, kind: str) -> int:
        return self._counts.get(kind, 0)


def _plan_expr(mnemonic: str, flow, enc: int, imm: int, flags: int, ek: int,
               rmask: int, wmask: int, group_ref: str, extra: str,
               em: _Emitter) -> str:
    if ek == 0:
        reads, writes = f"_fs({rmask:#x})", f"_fs({wmask:#x})"
    else:
        reads, writes = f"{rmask:#x}", f"{wmask:#x}"
    # The template dict holds the plan-constant Instruction fields; the
    # engine finishes each decode with tpl.copy() plus the six varying
    # keys, which beats rebuilding the full field dict per instruction.
    tpl = ("{" + f"'mnemonic': {mnemonic!r}, 'flow': _F.{flow.name}, "
           f"'reads_flags': {bool(flags & F_RFLAGS)}, "
           f"'writes_flags': {bool(flags & F_WFLAGS)}, "
           f"'rare': {bool(flags & F_RARE)}" + "}")
    tpl_ref = em.intern(tpl, "t")
    return (f"({enc}, {imm}, {flags:#x}, {ek}, "
            f"{reads}, {writes}, {group_ref}, {extra}, {tpl_ref})")


def _lower_entry(entry: GroupEntry | None, parent: OpcodeInfo,
                 two_byte: bool, opcode: int, em: _Emitter) -> str:
    """Merge one group entry with its parent into a standalone plan."""
    if entry is None:
        return "None"
    mnemonic = entry.mnemonic
    assert mnemonic not in _RENAMES, "rename mnemonics never sit in groups"
    imm = entry.imm if entry.imm is not ImmSize.NONE else parent.imm
    flags = _common_flags(mnemonic)
    if parent.rare:
        flags |= F_RARE
    if entry.default_64:
        flags |= F_DEF64OVR
    if not two_byte and opcode in (0xD0, 0xD1):
        flags |= F_IMM1
        assert imm is ImmSize.NONE, "D0/D1 carry no encoded immediate"
    ek = _effect_kind(mnemonic)
    rmask, wmask = _implicit_masks(mnemonic)
    if not two_byte and opcode in (0xD2, 0xD3):
        rmask |= 1 << RCX        # shift-by-cl implicitly reads rcx
    expr = _plan_expr(mnemonic, entry.flow, 0, _IMM_CODES[imm], flags, ek,
                      rmask, wmask, "None", "None", em)
    return em.intern(expr, "p")


def _lower(info: OpcodeInfo | None, two_byte: bool, opcode: int,
           em: _Emitter) -> str:
    """Lower one opcode-table entry into an interned plan reference."""
    if info is None:
        return "None"
    mnemonic = info.mnemonic
    enc = _ENC_CODES[info.encoding]
    imm = _IMM_CODES[info.imm]
    flags = _common_flags(mnemonic)
    extra = "None"
    if info.byte_op:
        flags |= F_BYTEOP
    if info.default_64:
        flags |= F_DEF64
    if info.rare:
        flags |= F_RARE
    if mnemonic == "mov_moffs":
        enc = ENC_MOFFS
        flags |= F_NOCHECKS
    elif mnemonic == "enter":
        enc = ENC_ENTER
        flags |= F_NOCHECKS
    if two_byte and opcode in (0xB6, 0xBE):
        flags |= F_RM8
    elif two_byte and opcode in (0xB7, 0xBF):
        flags |= F_RM16
    elif not two_byte and opcode == 0x63:
        flags |= F_RM32
    if enc in (7, 8) and mnemonic == "xchg":
        flags |= F_XCHGPAIR
    if mnemonic in _RENAMES:
        rename = _RENAMES[mnemonic]
        base = _static_effects(mnemonic, info.encoding)
        for other in rename.values():
            assert _static_effects(other, info.encoding) == base, mnemonic
            assert _common_flags(other) == _common_flags(mnemonic), mnemonic
        flags |= F_RENAME
        extra = ("{" + ", ".join(f"{size}: {name!r}"
                                 for size, name in sorted(rename.items()))
                 + "}")

    group_ref = "None"
    if info.group is not None:
        assert 1 <= enc <= 5, "groups always take a ModRM byte"
        subs = [_lower_entry(entry, info, two_byte, opcode, em)
                for entry in info.group]
        group_ref = em.intern("(" + ", ".join(subs) + ")", "g")

    if enc in _STATIC_ENCS:
        ek = 0
        rmask, wmask = _static_effects(mnemonic, info.encoding)
        assert not (enc == 6 and imm == 0), "I-encoded plans carry an imm"
    else:
        ek = _effect_kind(mnemonic)
        rmask, wmask = _implicit_masks(mnemonic)
        assert not (enc == 8 and imm == 0), "OI-encoded plans carry an imm"
    expr = _plan_expr(mnemonic, info.flow, enc, imm, flags, ek, rmask, wmask,
                      group_ref, extra, em)
    return em.intern(expr, "p")


def _byte_tables() -> tuple[list[int], list[int]]:
    """The prefix scanner's byte equivalence classes and one-hot bits."""
    bclass = [0] * 256
    pbit = [0] * 256
    for byte in LEGACY_PREFIXES:
        bclass[byte] = 1
    for byte in range(0x40, 0x50):
        bclass[byte] = 2
    pbit[0x66] = 1                    # operand-size override
    pbit[0xF0] = 2                    # lock
    for byte in (0x2E, 0x36, 0x3E, 0x26):
        pbit[byte] = 4                # rare segment overrides
    return bclass, pbit


def _describe(info: OpcodeInfo | None) -> str:
    if info is None:
        return "invalid"
    if info.group is not None:
        members = "/".join(sorted({e.mnemonic for e in info.group
                                   if e is not None}))
        return f"group[{members}]"
    return info.mnemonic


def _emit_dispatch(name: str, refs: list[str],
                   table: tuple[OpcodeInfo | None, ...]) -> list[str]:
    lines = [f"{name} = ("]
    for opcode, (ref, info) in enumerate(zip(refs, table)):
        lines.append(f"    {ref},  # {opcode:#04x} {_describe(info)}")
    lines.append(")")
    return lines


def generate() -> str:
    """Compile the opcode tables into the generated module's source."""
    em = _Emitter()
    one_byte = [_lower(info, False, opcode, em)
                for opcode, info in enumerate(ONE_BYTE)]
    two_byte = [_lower(info, True, opcode, em)
                for opcode, info in enumerate(TWO_BYTE)]
    bclass, pbit = _byte_tables()

    body: list[str] = []
    body.append("from .instruction import Instruction")
    body.append("from .opcodes import FlowKind as _F")
    body.append("from .operands import ImmOp, MemOp, RegOp, RelOp")
    body.append("from .registers import Register")
    body.append("")
    body.append('BACKEND = "compiled"')
    body.append("")
    body.append("# Interned register/operand pools (index = hardware "
                "number).")
    body.append("_R64 = tuple(Register(n, 64) for n in range(16))")
    body.append("_RO64 = tuple(RegOp(r) for r in _R64)")
    body.append("_RO32 = tuple(RegOp(Register(n, 32)) for n in range(16))")
    body.append("_RO16 = tuple(RegOp(Register(n, 16)) for n in range(16))")
    body.append("_RO8X = tuple(RegOp(Register(n, 8)) for n in range(16))")
    body.append("_RO8L = tuple(RegOp(Register(n, 8, high_byte=n >= 4))")
    body.append("              for n in range(8))")
    body.append("_IMM1 = ImmOp(1, 8)")
    body.append("_IMM8 = tuple(ImmOp(v - 256 if v >= 128 else v, 8)")
    body.append("              for v in range(256))")
    body.append("")
    body.append("# Interned effect sets keyed by 16-bit register-family "
                "mask.")
    body.append("_FSC = {}")
    body.append("")
    body.append("")
    body.append("def _fs(mask):")
    body.append("    fs = _FSC.get(mask)")
    body.append("    if fs is None:")
    body.append("        fs = _FSC[mask] = frozenset(")
    body.append("            f for f in range(16) if mask >> f & 1)")
    body.append("    return fs")
    body.append("")
    body.append("")
    body.append("# Prefix-scanner DFA: byte -> equivalence class")
    body.append("# (0 opcode/exit, 1 legacy prefix, 2 REX) and byte -> "
                "prefix bit")
    body.append("# (1 operand size, 2 lock, 4 rare segment override).")
    body.append('_BCLASS = bytes.fromhex(')
    hexes = bytes(bclass).hex()
    for i in range(0, 512, 64):
        body.append(f'    "{hexes[i:i + 64]}"')
    body.append(")")
    body.append('_PBIT = bytes.fromhex(')
    hexes = bytes(pbit).hex()
    for i in range(0, 512, 64):
        body.append(f'    "{hexes[i:i + 64]}"')
    body.append(")")
    body.append("")
    body.append("# Interned decode plans:")
    body.append("#   (enc, imm, flags, ek, reads, writes, group, extra, "
                "tpl)")
    body.append("# enc: 0 none 1 MR 2 RM 3 RMI 4 M 5 MI 6 I 7 O 8 OI 9 D")
    body.append("#      10 moffs 11 enter; imm: 0 none 1 B 2 W 3 Z 4 V")
    body.append("# ek: 0 static 1 read-dest 2 write-dest 3 xchg 4 "
                "reads-only")
    body.append("#     5 write-read 6 rmw 7 no-GPR; flags: see "
                "repro.isa.compile_tables.F_*")
    body.append("# tpl: the plan-constant Instruction fields; the engine")
    body.append("#      copies it and fills the six per-decode keys.")
    body.extend(em.lines)
    body.append("")
    body.append("# Dense opcode dispatch: plan (or None) per opcode byte.")
    body.extend(_emit_dispatch("_P1", one_byte, ONE_BYTE))
    body.extend(_emit_dispatch("_P2", two_byte, TWO_BYTE))
    body.append("")
    body.append(_engine_source())
    body.append("")
    text = "\n".join(body)

    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    entries = sum(info is not None for info in ONE_BYTE + TWO_BYTE)
    header = f'''"""x86-64 decode engine compiled from the opcode tables.

GENERATED FILE -- DO NOT EDIT.  Regenerate with:

    python -m repro.isa.compile_tables

and check for drift (CI enforces this) with:

    python -m repro.isa.compile_tables --check

The compiler (repro.isa.compile_tables) lowers ONE_BYTE/TWO_BYTE and the
ModRM groups into the dense dispatch tables below and appends its engine
template verbatim.  The interpretive decoder (repro.isa.decoder) is the
behavioral oracle; the differential tests keep this module bit-identical
to it.

table digest : {digest}
opcode plans : {entries} table entries -> {em.count("p")} interned plans,
               {em.count("g")} interned groups, {em.count("t")} interned
               field templates
"""

'''
    return header + text + "\n"


_ENGINE_PRELUDE = '''
# ---------------------------------------------------------------------------
# Decode engine (emitted from repro.isa.compile_tables; ``try_decode`` is
# the same body as ``raw_decode`` with error codes rewritten to None so
# the superset sweep pays no wrapper call per offset).
# ---------------------------------------------------------------------------

_OSA = object.__setattr__
_IFB = int.from_bytes
_INS_NEW = Instruction.__new__
_MEM_NEW = MemOp.__new__
_IMM_NEW = ImmOp.__new__
_REL_NEW = RelOp.__new__
_FSC_GET = _FSC.get

#: Error codes returned by :func:`raw_decode` in place of an Instruction,
#: index-aligned with (InvalidOpcodeError, TruncatedError, TooLongError).
INVALID, TRUNCATED, TOO_LONG = 0, 1, 2
'''

_ENGINE_RAW = '''
def raw_decode(buf, offset):
    """Decode at ``buf[offset]``: an Instruction, or an error code int."""
    n = len(buf)
    if offset < 0 or offset >= n:
        return 1
    pos = offset
    pmask = 0
    rex = 0
    rexp = False
    while True:
        b = buf[pos]
        c = _BCLASS[b]
        if not c:
            break
        if c == 1:
            pmask |= _PBIT[b]
            rex = 0
            rexp = False
        else:
            rex = b & 15
            rexp = True
        pos += 1
        if pos - offset >= 15:
            return 2
        if pos >= n:
            return 1
    pos += 1
    if b == 15:
        if pos >= n:
            return 1
        b = buf[pos]
        pos += 1
        plan = _P2[b]
    else:
        plan = _P1[b]
    if plan is None:
        return 0
    enc, imm, flags, ek, rd, wr, group, extra, tpl = plan
    if flags & 1:
        opsize = 8
    elif pmask & 1 and not rex & 8:
        opsize = 16
    elif rex & 8 or flags & 2:
        opsize = 64
    else:
        opsize = 32
    dest_fam = -1
    src_fam = -1
    addr_mask = 0
    dest_mem = False
    imm_op = None

    if 1 <= enc <= 5:
        # ModRM (+SIB, +disp) forms.  The r/m width uses the *parent*
        # operand size even for groups (oracle parity).
        if pos >= n:
            return 1
        modrm = buf[pos]
        pos += 1
        mod = modrm >> 6
        reg_f = ((rex & 4) << 1) | ((modrm >> 3) & 7)
        rm = modrm & 7
        if flags & 0xE00:
            rm_w = 8 if flags & 512 else (16 if flags & 1024 else 32)
        else:
            rm_w = opsize
        rm_op = None
        if mod == 3:
            rm_fam = rm | ((rex & 1) << 3)
            if rm_w == 32:
                rm_op = _RO32[rm_fam]
            elif rm_w == 64:
                rm_op = _RO64[rm_fam]
            elif rm_w == 16:
                rm_op = _RO16[rm_fam]
            elif rexp:
                rm_op = _RO8X[rm_fam]
            else:
                rm_op = _RO8L[rm_fam]
        else:
            rm_fam = -1
            base = None
            index = None
            scale = 1
            disp = 0
            rip = False
            if rm == 4:
                if pos >= n:
                    return 1
                sib = buf[pos]
                pos += 1
                scale = 1 << (sib >> 6)
                inum = ((sib >> 3) & 7) | ((rex & 2) << 2)
                if inum != 4:
                    index = _R64[inum]
                    addr_mask = 1 << inum
                if sib & 7 == 5 and mod == 0:
                    if pos + 4 > n:
                        return 1
                    disp = _IFB(buf[pos:pos + 4], "little", signed=True)
                    pos += 4
                else:
                    bnum = (sib & 7) | ((rex & 1) << 3)
                    base = _R64[bnum]
                    addr_mask |= 1 << bnum
            elif rm == 5 and mod == 0:
                rip = True
                if pos + 4 > n:
                    return 1
                disp = _IFB(buf[pos:pos + 4], "little", signed=True)
                pos += 4
            else:
                bnum = rm | ((rex & 1) << 3)
                base = _R64[bnum]
                addr_mask = 1 << bnum
            if mod == 1:
                if pos >= n:
                    return 1
                disp = buf[pos]
                pos += 1
                if disp >= 128:
                    disp -= 256
            elif mod == 2:
                if pos + 4 > n:
                    return 1
                disp = _IFB(buf[pos:pos + 4], "little", signed=True)
                pos += 4
        if group is not None:
            plan = group[reg_f & 7]
            if plan is None:
                return 0
            _, imm, flags, ek, rd, wr, _, extra, tpl = plan
            if flags & 4:
                opsize = 16 if pmask & 1 and not rex & 8 else 64
        if enc <= 3:
            if opsize == 32:
                reg_op = _RO32[reg_f]
            elif opsize == 64:
                reg_op = _RO64[reg_f]
            elif opsize == 16:
                reg_op = _RO16[reg_f]
            elif rexp:
                reg_op = _RO8X[reg_f]
            else:
                reg_op = _RO8L[reg_f]
        if imm:
            if imm == 1:
                if pos >= n:
                    return 1
                imm_op = _IMM8[buf[pos]]
                pos += 1
            else:
                if imm == 3:
                    isz = 2 if opsize == 16 else 4
                elif imm == 2:
                    isz = 2
                else:
                    isz = (2 if opsize == 16
                           else (4 if opsize == 32 else 8))
                if pos + isz > n:
                    return 1
                iv = _IFB(buf[pos:pos + isz], "little", signed=True)
                pos += isz
                imm_op = _IMM_NEW(ImmOp)
                _OSA(imm_op, "__dict__", {"value": iv, "width": isz * 8})
        if mod != 3:
            rm_op = _MEM_NEW(MemOp)
            _OSA(rm_op, "__dict__", {
                "base": base, "index": index, "scale": scale, "disp": disp,
                "rip_relative": rip,
                "target": pos + disp if rip else None, "width": rm_w})
            dest_mem = enc != 2 and enc != 3
        if enc == 1:
            dest_fam = rm_fam
            src_fam = reg_f
            ops = ((rm_op, reg_op) if imm_op is None
                   else (rm_op, reg_op, imm_op))
        elif enc <= 3:
            dest_fam = reg_f
            src_fam = rm_fam
            ops = ((reg_op, rm_op) if imm_op is None
                   else (reg_op, rm_op, imm_op))
        else:
            dest_fam = rm_fam
            if flags & 128:
                ops = (rm_op, _IMM1)
            elif imm_op is None:
                ops = (rm_op,)
            else:
                ops = (rm_op, imm_op)
    elif enc == 0:
        ops = ()
    elif enc == 9:
        # Relative branch displacement; target is offset-absolute.
        if imm == 1:
            isz = 1
        elif imm:
            isz = 2 if opsize == 16 else 4
        else:
            isz = 4
        if pos + isz > n:
            return 1
        if isz == 1:
            dv = buf[pos]
            pos += 1
            if dv >= 128:
                dv -= 256
        else:
            dv = _IFB(buf[pos:pos + isz], "little", signed=True)
            pos += isz
        rel = _REL_NEW(RelOp)
        _OSA(rel, "__dict__", {"target": pos + dv})
        ops = (rel,)
    elif enc == 6 or enc == 7 or enc == 8:
        # Immediate-only and register-in-opcode forms.
        if enc != 6:
            num = (b & 7) | ((rex & 1) << 3)
            if opsize == 32:
                reg_op = _RO32[num]
            elif opsize == 64:
                reg_op = _RO64[num]
            elif opsize == 16:
                reg_op = _RO16[num]
            elif rexp:
                reg_op = _RO8X[num]
            else:
                reg_op = _RO8L[num]
        if imm:
            if imm == 1:
                if pos >= n:
                    return 1
                imm_op = _IMM8[buf[pos]]
                pos += 1
            else:
                if imm == 3:
                    isz = 2 if opsize == 16 else 4
                elif imm == 2:
                    isz = 2
                else:
                    isz = (2 if opsize == 16
                           else (4 if opsize == 32 else 8))
                if pos + isz > n:
                    return 1
                iv = _IFB(buf[pos:pos + isz], "little", signed=True)
                pos += isz
                imm_op = _IMM_NEW(ImmOp)
                _OSA(imm_op, "__dict__", {"value": iv, "width": isz * 8})
        if enc == 6:
            ops = (imm_op,)
        elif flags & 64:
            if opsize == 32:
                rax = _RO32[0]
            elif opsize == 64:
                rax = _RO64[0]
            else:
                rax = _RO16[0]
            ops = (rax, reg_op)
            dest_fam = 0
            src_fam = num
        else:
            dest_fam = num
            ops = (reg_op,) if imm_op is None else (reg_op, imm_op)
    elif enc == 10:
        # mov rAX <-> moffs64: 8-byte absolute address, no checks
        # (oracle parity: returns before the length and lock checks).
        if pos + 8 > n:
            return 1
        pos += 8
        ops = ()
    else:
        # enter imm16, imm8: same check exemption as moffs.
        if pos + 3 > n:
            return 1
        pos += 3
        ops = ()

    if pos - offset > 15 and not flags & 16384:
        return 2
    if pmask & 2 and not flags & 16384:
        if not (flags & 32 and dest_mem):
            return 0
    if ek:
        if addr_mask and not flags & 16:
            rd |= addr_mask
        if ek == 6:
            if dest_fam >= 0:
                m = 1 << dest_fam
                rd |= m
                wr |= m
            if src_fam >= 0:
                rd |= 1 << src_fam
        elif ek == 5:
            if dest_fam >= 0:
                wr |= 1 << dest_fam
            if src_fam >= 0:
                rd |= 1 << src_fam
        elif ek == 4:
            if dest_fam >= 0:
                rd |= 1 << dest_fam
            if src_fam >= 0:
                rd |= 1 << src_fam
        elif ek == 2:
            if dest_fam >= 0:
                wr |= 1 << dest_fam
        elif ek == 1:
            if dest_fam >= 0:
                rd |= 1 << dest_fam
        elif ek == 3:
            m = 0
            if dest_fam >= 0:
                m = 1 << dest_fam
            if src_fam >= 0:
                m |= 1 << src_fam
            rd |= m
            wr |= m
        reads = _FSC_GET(rd)
        if reads is None:
            reads = _fs(rd)
        writes = _FSC_GET(wr)
        if writes is None:
            writes = _fs(wr)
    else:
        reads = rd
        writes = wr
    raw = buf[offset:pos]
    if raw.__class__ is not bytes:
        raw = bytes(raw)
    d = tpl.copy()
    d["offset"] = offset
    d["length"] = pos - offset
    d["operands"] = ops
    d["reads"] = reads
    d["writes"] = writes
    d["raw"] = raw
    if flags & 256:
        d["mnemonic"] = extra[opsize]
    if pmask & 4:
        d["rare"] = True
    ins = _INS_NEW(Instruction)
    _OSA(ins, "__dict__", d)
    return ins
'''


def _engine_source() -> str:
    """The emitted engine: prelude, ``raw_decode``, and ``try_decode``.

    ``try_decode`` is not a wrapper -- the superset sweep calls it once
    per byte offset, so a wrapper's call-and-check would be the single
    largest per-offset cost.  Instead it is the same engine body with
    the integer error returns mechanically rewritten to ``return None``.
    """
    try_src = _ENGINE_RAW.replace(
        'def raw_decode(buf, offset):\n'
        '    """Decode at ``buf[offset]``: an Instruction, '
        'or an error code int."""',
        'def try_decode(buf, offset=0):\n'
        '    """Decode at ``buf[offset]``: an Instruction, '
        'or None on failure."""',
        1)
    try_src, substitutions = re.subn(
        r"(?m)^(\s*)return [012]$", r"\1return None", try_src)
    if try_src == _ENGINE_RAW or not substitutions:
        raise AssertionError("try_decode transform did not apply")
    return (_ENGINE_PRELUDE.rstrip("\n") + "\n\n"
            + _ENGINE_RAW.strip("\n") + "\n\n\n"
            + try_src.strip("\n"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.isa.compile_tables",
        description="Regenerate the compiled decode module.")
    parser.add_argument("--check", action="store_true",
                        help="exit 2 if the checked-in module is stale")
    parser.add_argument("--stdout", action="store_true",
                        help="print the generated source instead of writing")
    args = parser.parse_args(argv)

    text = generate()
    if args.stdout:
        sys.stdout.write(text)
        return 0
    if args.check:
        on_disk = (GENERATED_PATH.read_text()
                   if GENERATED_PATH.exists() else "")
        if on_disk != text:
            sys.stderr.write(
                f"{GENERATED_PATH} is stale: regenerate with "
                "`python -m repro.isa.compile_tables`\n")
            return 2
        print(f"{GENERATED_PATH.name} is up to date")
        return 0
    GENERATED_PATH.write_text(text)
    print(f"wrote {GENERATED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
