"""Whole-binary generation: call graphs, layout, sections, ground truth.

:func:`generate_binary` is the main entry point; it produces a
:class:`~repro.binary.TestCase` (stripped binary + exact labels) from a
:class:`BinarySpec`.  :func:`generate_corpus` builds the default
evaluation dataset (all three compiler styles at several sizes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ..binary.container import Binary, Section
from ..binary.loader import TestCase
from ..isa.encoder import Mem, mem
from ..isa.registers import RAX, RBP, RDI, RSP
from .codegen import FunctionGenerator, GeneratedFunction, RodataAllocator
from .styles import MSVC_LIKE, STYLES, CompilerStyle
from .tracking import TrackedAssembler

#: Where non-text data (out-of-text tables, strings) is placed.
RODATA_BASE = 0x200000


@dataclass(frozen=True)
class BinarySpec:
    """Parameters for one generated binary."""

    name: str
    style: CompilerStyle = MSVC_LIKE
    function_count: int = 60
    seed: int = 0

    def __post_init__(self) -> None:
        if self.function_count < 2:
            raise ValueError("need at least an entry and one callee")


def _plan_call_graph(rng: random.Random, count: int,
                     indirect_ratio: float, noreturn_ratio: float
                     ) -> tuple[list[str], list[str], list[str],
                                dict[str, list[str]]]:
    """Split functions into direct/indirect/noreturn; build callee lists.

    Direct functions form a tree rooted at the entry (guaranteeing that
    recursive descent *could* reach all of them), with extra random
    cross edges.  Indirect functions are reachable only through pointer
    tables.  Noreturn functions are kept out of ordinary callee lists:
    they are only invoked through guarded panic paths.

    Every call edge goes strictly "rank-upward" (by position in the
    name list), so the call graph is a DAG and generated programs
    terminate -- a property the dynamic-validation emulator relies on,
    and one real linked programs share in the absence of recursion.
    """
    names = [f"fn{i:04d}" for i in range(count)]
    rank = {name: i for i, name in enumerate(names)}
    noreturn_count = min(int(count * noreturn_ratio), max(count - 3, 0))
    noreturn = sorted(rng.sample(names[1:], k=noreturn_count))
    remaining = [n for n in names if n not in noreturn]
    # Indirect functions come from the upper half of the rank range so
    # that their dispatchers (hosted in lower-ranked functions) keep the
    # graph acyclic.
    upper = [n for n in remaining[1:] if rank[n] >= count // 2]
    indirect_count = min(int(count * indirect_ratio),
                         max(len(upper) - 1, 0))
    indirect = set(rng.sample(upper, k=indirect_count))
    direct = [n for n in remaining if n not in indirect]

    callees: dict[str, list[str]] = {n: [] for n in names}
    for i, name in enumerate(direct):
        for child_index in (2 * i + 1, 2 * i + 2):
            if child_index < len(direct):
                callees[name].append(direct[child_index])
    for name in names:
        candidates = [d for d in direct[1:] if rank[d] > rank[name]]
        extras = rng.sample(candidates, k=min(len(candidates),
                                              rng.randint(0, 2)))
        for extra in extras:
            if extra not in callees[name]:
                callees[name].append(extra)
    return direct, sorted(indirect), noreturn, callees


def _emit_dispatcher(asm: TrackedAssembler, rng: random.Random,
                     style: CompilerStyle, name: str, targets: list[str],
                     rodata: RodataAllocator) -> GeneratedFunction:
    """A hand-rolled function that calls through a pointer table.

    This is the pattern that makes indirect-only functions reachable at
    runtime while remaining invisible to recursive descent.
    """
    result = GeneratedFunction(name=name, entry=asm.here)
    asm.bind(name)
    asm.push_r(RBP)
    asm.mov_rr(RBP, RSP)
    table_label = f"{name}.ptable"
    skip_label = f"{name}.skip"
    asm.alu_ri("cmp", RDI, len(targets) - 1, width=64)
    asm.jcc("a", skip_label)
    in_text = rng.random() < style.pointer_table_in_text_prob
    if in_text:
        asm.mov_rm(RAX, Mem(index=RDI, scale=8, disp_label=table_label))
    else:
        address = rodata.allocate_table(list(targets), 8)
        asm.mov_rm(RAX, mem(index=RDI, scale=8, disp=address))
    asm.call_r(RAX)
    asm.bind(skip_label)
    asm.pop_r(RBP)
    asm.ret()
    if in_text:
        asm.align(8, b"\xcc")
        start = asm.here
        asm.bind(table_label)
        for target in targets:
            asm.dq_label(target)
        result.jump_tables.append((start, asm.here))
    result.end = asm.here
    return result


def generate_binary(spec: BinarySpec) -> TestCase:
    """Generate one stripped binary with exact ground truth."""
    rng = random.Random(spec.seed)
    style = spec.style
    asm = TrackedAssembler(base=0)
    rodata = RodataAllocator(base=RODATA_BASE)

    direct, indirect, noreturn, callees = _plan_call_graph(
        rng, spec.function_count, style.indirect_reachable_ratio,
        style.noreturn_ratio)

    def _rank(name: str) -> int:
        return int(name[2:])

    # Each noreturn function gets a guaranteed guarded call site in some
    # lower-ranked direct function (keeping the call graph acyclic).
    must_call: dict[str, list[str]] = {}
    for target in noreturn:
        hosts = [d for d in direct if _rank(d) < _rank(target)]
        host = rng.choice(hosts) if hosts else direct[0]
        must_call.setdefault(host, []).append(target)

    # Callee-cleanup stack arguments for a fraction of direct functions
    # (never the entry; indirect targets are called through generic
    # dispatchers and must stay zero-argument).
    stack_args: dict[str, int] = {}
    for name in direct[1:]:
        if rng.random() < style.stack_args_ratio:
            stack_args[name] = rng.randint(1, 3)

    # Pointer tables over the indirect functions, each used by a
    # dispatcher that direct code calls.
    dispatchers: list[tuple[str, list[str]]] = []
    pending = list(indirect)
    rng.shuffle(pending)
    index = 0
    while pending:
        group_size = min(len(pending), rng.randint(2, 6))
        group, pending = pending[:group_size], pending[group_size:]
        dispatcher = f"dispatch{index:02d}"
        dispatchers.append((dispatcher, group))
        index += 1
    for dispatcher, group in dispatchers:
        group_floor = min(_rank(target) for target in group)
        hosts = [d for d in direct if _rank(d) < group_floor]
        user = rng.choice(hosts) if hosts else direct[0]
        callees[user].append(dispatcher)

    # Layout: entry first, then a shuffled mix of everything else.
    order: list[tuple[str, str]] = [("fn", direct[0])]
    rest = ([("fn", n) for n in direct[1:]]
            + [("fn", n) for n in indirect]
            + [("fn", n) for n in noreturn]
            + [("dispatch", d) for d, _ in dispatchers])
    rng.shuffle(rest)
    order += rest
    dispatch_targets = dict(dispatchers)
    noreturn_set = set(noreturn)

    generated: list[GeneratedFunction] = []
    for kind, name in order:
        if style.padding_byte is not None:
            asm.align(style.function_alignment,
                      bytes([style.padding_byte]))
        else:
            asm.align_code(style.function_alignment)
        if kind == "fn":
            generator = FunctionGenerator(
                asm, rng, style, name, callees[name], rodata,
                noreturn_callees=noreturn,
                must_call_noreturn=must_call.get(name, []),
                is_noreturn=name in noreturn_set,
                stack_args=stack_args.get(name, 0),
                callee_stack_args=stack_args)
            generated.append(generator.emit())
        else:
            generated.append(_emit_dispatcher(asm, rng, style, name,
                                              dispatch_targets[name],
                                              rodata))

    text = asm.finish()
    truth = asm.ground_truth()
    for function in generated:
        truth.add_function(function.name, function.entry, function.end)
        for start, end in function.jump_tables:
            truth.add_jump_table(start, end)

    rodata_bytes = _build_rodata(asm, rodata)
    sections = [Section(".text", 0, text, executable=True)]
    if rodata_bytes:
        sections.append(Section(".rodata", RODATA_BASE, rodata_bytes))
    binary = Binary(sections=sections, entry=0)
    return TestCase(name=spec.name, binary=binary, truth=truth)


def _build_rodata(asm: TrackedAssembler, rodata: RodataAllocator) -> bytes:
    """Materialize the out-of-text tables and blobs."""
    image = bytearray(rodata.size)

    def write(address: int, payload: bytes) -> None:
        start = address - rodata.base
        image[start:start + len(payload)] = payload

    for request in rodata.tables:
        out = bytearray()
        for label in request.entry_labels:
            target = asm.label_offset(label)
            if request.entry_size == 8:
                out += target.to_bytes(8, "little")
            else:
                delta = target - request.address
                out += (delta & 0xFFFFFFFF).to_bytes(4, "little")
        write(request.address, bytes(out))
    for address, payload in rodata.blobs:
        write(address, payload)
    return bytes(image)


# ----------------------------------------------------------------------
# Standard corpus
# ----------------------------------------------------------------------

def generate_corpus(seeds: tuple[int, ...] = (0, 1, 2),
                    function_count: int = 60) -> list[TestCase]:
    """The default evaluation dataset: every style at every seed."""
    cases = []
    for style_name in sorted(STYLES):
        for seed in seeds:
            spec = BinarySpec(name=f"{style_name}-s{seed}",
                              style=STYLES[style_name],
                              function_count=function_count, seed=seed)
            cases.append(generate_binary(spec))
    return cases


def density_style(base: CompilerStyle, density: float) -> CompilerStyle:
    """Scale a style's embedded-data knobs by ``density`` in [0, 1].

    ``density=0`` produces a clean binary (no in-text data at all);
    ``density=1`` is an extreme profile used in the F1 sweep.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be within [0, 1]")
    return replace(
        base,
        name=f"{base.name}@d{density:.2f}",
        tables_in_text=density > 0,
        literal_pool_prob=density,
        string_in_text_prob=0.8 * density,
        pointer_table_in_text_prob=density,
        data_after_noreturn_prob=0.7 * density,
        max_switches_per_function=0 if density == 0
        else max(1, round(4 * density)),
    )
