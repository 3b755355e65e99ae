"""Returning-ness analysis: does a called function ever return?

Compilers place data (and padding) directly after calls to noreturn
functions -- the call's fall-through is *not* code.  A disassembler that
unconditionally follows call fall-through swallows that data as code,
so tracing must defer each call's continuation until the callee is known
to return.

The analysis walks the *superset* control-flow graph from each callee
entry (candidate instructions exist before tracing confirms them, and
from a confirmed entry the walk follows exactly the instructions tracing
would confirm).  A function returns when some path reaches a ``ret``, a
tail jump out of the section, or flow the analysis cannot follow
(unresolved indirect jumps); it is noreturn when *every* path dies in
``hlt``/``ud2``, spins in a cycle, runs into undecodable bytes, or calls
only other noreturn functions.  Calls inside the walk consult the
fixpoint, so mutual panic helpers resolve correctly.
"""

from __future__ import annotations

from ..isa.columns import FLOW_CODES
from ..isa.opcodes import FlowKind
from ..superset.superset import Superset

_RET, _HALT, _TRAP, _IJUMP, _JUMP, _CJUMP, _CALL, _ICALL = (
    FLOW_CODES[kind] for kind in (
        FlowKind.RET, FlowKind.HALT, FlowKind.TRAP, FlowKind.IJUMP,
        FlowKind.JUMP, FlowKind.CJUMP, FlowKind.CALL, FlowKind.ICALL))


def compute_returning(superset: Superset, targets: set[int], *,
                      resolved_jumps: dict[int, tuple[int, ...]]
                      | None = None,
                      resolve_dispatch=None,
                      max_rounds: int = 50,
                      walks: dict | None = None) -> dict[int, bool]:
    """For each target entry, True when some path reaches a return.

    ``resolved_jumps`` maps indirect-jump dispatch offsets to their
    resolved case targets (so a switch inside a panic handler does not
    force the conservative "assume it returns" answer).

    This is the *greatest* fixpoint: every target starts out assumed
    returning and is demoted only when all of its paths provably die
    under the current assumptions.  Starting optimistic is the sound
    direction -- mutually recursive functions whose returns depend on
    the cycle stay returning (never losing real code), while mutually
    recursive panic helpers still converge to noreturn (each one's
    paths die regardless of the other's assumed verdict).

    A walk depends only on its entry and the ``returning`` and
    ``resolved_jumps`` entries it looks up (misses too), so ``walks``
    (share one dict across calls on a superset) memoizes each verdict
    with its lookups, reused while every lookup gives the same answer.
    """
    resolved_jumps = resolved_jumps or {}
    walks = {} if walks is None else walks
    returning: dict[int, bool] = {target: True for target in targets}
    for _ in range(max_rounds):
        changed = False
        for target in targets:
            if not returning[target]:
                continue
            memo = walks.get(target)
            if memo is None or not all(
                    (resolved_jumps if jump else returning).get(key) == answer
                    for jump, key, answer in memo[1]):
                lookups: list = []
                memo = walks[target] = (_reaches_return(
                    superset, target, returning, resolved_jumps,
                    resolve_dispatch, lookups), lookups)
            if not memo[0]:
                returning[target] = False
                changed = True
        if not changed:
            break
    return returning


def _reaches_return(superset: Superset, entry: int,
                    returning: dict[int, bool],
                    resolved_jumps: dict[int, tuple[int, ...]],
                    resolve_dispatch, lookups: list) -> bool:
    """BFS over superset candidates from ``entry``, looking for a way
    out: a ``ret``, a tail jump out of the section, or any flow the
    analysis cannot follow.  ``lookups`` collects ``(jump, key, answer)``
    per lookup of ``resolved_jumps`` (jump) or ``returning``."""
    views = superset.views
    size = len(superset)
    seen: set[int] = set()
    stack = [entry]
    while stack:
        offset = stack.pop()
        if offset in seen:
            continue
        seen.add(offset)
        if not superset.is_valid(offset):
            continue               # undecodable: this path is dead
        flow = views.flow[offset]
        end = offset + views.length[offset]
        target = views.target[offset] if views.has_target[offset] else None

        if flow == _RET:
            return True
        if flow == _HALT or flow == _TRAP:
            continue               # dead end on this path
        if flow == _IJUMP:
            case_targets = resolved_jumps.get(offset)
            lookups.append((True, offset, case_targets))
            if case_targets is None and resolve_dispatch is not None:
                case_targets = resolve_dispatch(offset)
            if case_targets is None:
                return True        # unresolved tail dispatch: assume ok
            stack.extend(case_targets)
            continue
        if flow == _JUMP:
            if target is None or not 0 <= target < size:
                return True        # jump out of section: assume ok
            if target == entry:
                continue           # self tail call proves nothing new
            verdict = returning.get(target)
            lookups.append((False, target, verdict))
            if verdict is not None:
                # Tail call to an analyzed function.
                if verdict:
                    return True
                continue
            stack.append(target)
            continue
        if flow == _CJUMP:
            if target is not None and 0 <= target < size:
                stack.append(target)
            stack.append(end)
            continue
        if flow == _CALL:
            if target is not None:
                verdict = returning.get(target)
                lookups.append((False, target, verdict))
                if verdict is False:
                    continue
            stack.append(end)
            continue
        if flow == _ICALL:
            stack.append(end)
            continue
        # Plain sequential flow.
        if end < size:
            stack.append(end)
        else:
            return True            # falls off the section: assume ok
    return False
