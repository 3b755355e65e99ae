"""Declarative fact/rule correction engine.

:class:`FactEngine` is the stratified fact/rule engine with a
semi-naive fixpoint driver (:mod:`repro.core.engine.driver`) over the
rules of :mod:`repro.core.engine.rules`; its one claim vocabulary
(:class:`CodeClaim`, :class:`DataClaim`) serves ingestion, the rules
and lint feedback alike.  Its outputs are pinned by golden digests
(``tests/engine/test_golden.py``).  :mod:`repro.core.engine.incremental`
recomputes only the per-offset inputs (decoded candidates, scores,
prologue verdicts) a byte patch can change, then re-runs the full
fixpoint on them.
"""

from __future__ import annotations

from .driver import FactEngine
from .facts import (CodeClaim, DataClaim, FactExport, FactStore,
                    PendingCall, RegionFact)
from .incremental import FactBase, diff_spans, disassemble_incremental

__all__ = [
    "CodeClaim", "DataClaim", "FactBase", "FactEngine", "FactExport",
    "FactStore", "PendingCall", "RegionFact", "diff_spans",
    "disassemble_incremental",
]
