"""Optional compiler-metadata hints recovered from real containers.

The disassembler's contract is metadata-free: it sees machine code and
an entry point only.  Real ELF/PE files, however, *do* carry residual
structure even when stripped -- ELF dynamic entries and ``.eh_frame``
unwind data, PE exception-directory ``RUNTIME_FUNCTION`` ranges.  The
loaders surface that structure as a separate :class:`FormatHints`
object instead of folding it into :class:`~repro.binary.container.Binary`,
so consuming hints is always an explicit opt-in (the evaluation never
does; the oracle-free linter may *cross-check* a claim against them).

All hint addresses are absolute virtual addresses in the loaded
image's address space; :meth:`FormatHints.text_ranges` converts them
to text-section offsets for consumers that work offset-relative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..binary.container import Binary


@dataclass(frozen=True)
class FormatHints:
    """Metadata recovered from a container, kept out of the binary.

    Attributes:
        format: producing loader ("elf64", "pe32+", or "rprb").
        image_base: preferred load base of the image.
        function_ranges: (start, end) virtual-address ranges that the
            container's unwind/exception metadata claims are functions
            (PE ``RUNTIME_FUNCTION`` entries; ELF FDE initial-location
            ranges when an ``.eh_frame`` is parseable).
        entry_candidates: virtual addresses the metadata marks as code
            entry points beyond the official entry (ELF ``DT_INIT`` /
            ``DT_FINI``, PE TLS callbacks are the classic sources).
        notes: free-form provenance strings ("eh_frame present",
            "section headers stripped", ...), for diagnostics.
    """

    format: str
    image_base: int = 0
    function_ranges: tuple[tuple[int, int], ...] = ()
    entry_candidates: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        return not (self.function_ranges or self.entry_candidates)

    def text_ranges(self, text_addr: int, text_size: int
                    ) -> tuple[tuple[int, int], ...]:
        """Function ranges clipped to the text section, as offsets."""
        ranges = []
        for start, end in self.function_ranges:
            lo = max(start, text_addr) - text_addr
            hi = min(end, text_addr + text_size) - text_addr
            if lo < hi:
                ranges.append((lo, hi))
        return tuple(ranges)


#: Hints for the native container, which by construction carries none.
NO_HINTS = FormatHints(format="rprb")


@dataclass(frozen=True)
class LoadedImage:
    """What :func:`repro.formats.load_any` returns.

    The :class:`~repro.binary.container.Binary` is the only thing the
    disassembler sees; ``hints`` ride alongside for consumers that
    explicitly ask for them.
    """

    binary: Binary
    format: str
    hints: FormatHints = field(default=NO_HINTS)
