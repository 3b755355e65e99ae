"""Linear-sweep disassembly (the objdump algorithm).

Decode from the section start; each decoded instruction's end is the
next decode point; undecodable bytes are skipped one at a time (objdump
prints ``(bad)``).  Linear sweep has perfect recall on code that is
byte-aligned with the sweep, but classifies every embedded data byte
that happens to decode -- jump tables, strings, literals -- as code,
and one table can additionally desynchronize the sweep into the
following real instructions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..isa.decoder import try_decode
from ..result import DisassemblyResult

if TYPE_CHECKING:
    from ..superset.superset import Superset


def linear_sweep(text: bytes, entry: int = 0, *,
                 superset: Superset | None = None) -> DisassemblyResult:
    """Disassemble by linear sweep from offset 0.

    An already-built superset of ``text`` may be passed to reuse its
    candidate decodes (the evaluation driver shares one superset across
    all tools); results are identical either way.
    """
    if superset is None:
        def length_at(offset: int) -> int:
            instruction = try_decode(text, offset)
            return 0 if instruction is None else instruction.length
    else:
        # The length column holds 0 where nothing decodes.
        length_at = superset.views.length.__getitem__
    instructions: dict[int, int] = {}
    bad: list[int] = []
    offset = 0
    while offset < len(text):
        length = length_at(offset)
        if not length:
            bad.append(offset)
            offset += 1
            continue
        instructions[offset] = length
        offset += length

    return DisassemblyResult(
        tool="linear-sweep",
        instructions=instructions,
        data_regions=_runs(bad),
        function_entries=set(),
    )


def _runs(offsets: list[int]) -> list[tuple[int, int]]:
    regions = []
    start = None
    previous = None
    for offset in offsets:
        if start is None:
            start = offset
        elif offset != previous + 1:
            regions.append((start, previous + 1))
            start = offset
        previous = offset
    if start is not None:
        regions.append((start, previous + 1))
    return regions
