"""Downstream analysis: build a call graph from a stripped binary.

Run with::

    python examples/callgraph_analysis.py

Accurate disassembly is the *first step* of binary analysis; this
example shows the second step a security-analysis client would take:
recover function boundaries, build the inter-procedural call graph
(including edges through resolved pointer tables), and report the
functions that are reachable only indirectly -- the ones conventional
recursive-descent tools never see.
"""

from repro import BinarySpec, Disassembler, generate_binary
from repro.analysis import build_cfg
from repro.isa.opcodes import FlowKind
from repro.superset import Superset
from repro.synth import MSVC_LIKE


def main() -> None:
    case = generate_binary(BinarySpec(name="callgraph", style=MSVC_LIKE,
                                      function_count=30, seed=11))
    disassembler = Disassembler()
    rich = disassembler.disassemble_rich(case)
    result = rich.result
    superset = rich.superset

    entries = sorted(result.function_entries)
    print(f"recovered {len(entries)} functions "
          f"(ground truth: {len(case.truth.functions)})")

    # Assign each instruction to its containing function (contiguous
    # layout: a function runs from its entry to the next entry).
    def function_of(offset: int) -> int:
        best = entries[0]
        for entry in entries:
            if entry <= offset:
                best = entry
            else:
                break
        return best

    # Build the call graph (caller entry -> callee entries) from the
    # direct call edges.
    callees: dict[int, set[int]] = {entry: set() for entry in entries}
    indirect_callsites = 0
    for offset in result.instruction_starts:
        instruction = superset.at(offset)
        if instruction.flow is FlowKind.CALL:
            target = instruction.branch_target
            if target in result.function_entries:
                callees[function_of(offset)].add(target)
        elif instruction.flow is FlowKind.ICALL:
            indirect_callsites += 1

    edges = sum(len(targets) for targets in callees.values())
    print(f"direct call edges: {edges}, "
          f"indirect call sites: {indirect_callsites}")

    # Which functions are NOT reachable through direct calls from the
    # entry point?  Those are exactly what naive tools miss.
    direct_reachable: set[int] = set()
    stack = [0]
    while stack:
        entry = stack.pop()
        if entry not in direct_reachable:
            direct_reachable.add(entry)
            stack.extend(callees.get(entry, ()))
    indirect_only = [e for e in entries if e not in direct_reachable]
    print(f"functions reachable only indirectly: {len(indirect_only)}")
    for entry in indirect_only[:5]:
        cfg = build_cfg(superset, {
            o for o in result.instruction_starts
            if entry <= o < (entries[entries.index(entry) + 1]
                             if entries.index(entry) + 1 < len(entries)
                             else len(case.text))})
        print(f"  function @{entry:#x}: {len(cfg.blocks)} basic blocks")

    # Cross-check against ground truth dispatch tables.
    true_indirect = case.truth.function_entries - {
        t for t in case.truth.function_entries
        if t in direct_reachable}
    found = len(set(indirect_only) & true_indirect)
    print(f"of the ground-truth indirect-only functions, "
          f"{found}/{len(true_indirect)} were recovered")


if __name__ == "__main__":
    main()
