"""Declarative fact/rule correction engine.

:class:`FactEngine` is the stratified fact/rule engine with a
semi-naive fixpoint driver (:mod:`repro.core.engine.driver`) over the
rules of :mod:`repro.core.engine.rules`.  Its outputs on the
evaluation corpus, every ablation config and one provenance-recording
run are pinned by golden digests (``tests/engine/test_golden.py``).
:mod:`repro.core.engine.incremental` re-enters the same fixpoint after
retracting only the facts a byte patch invalidates.
"""

from __future__ import annotations

from .driver import FactEngine
from .facts import (CodeClaim, DataClaim, EntryFact, FactExport, FactStore,
                    PendingCall, PrologueFact, RegionFact, TableFact)
from .incremental import FactBase, diff_spans, disassemble_incremental

__all__ = [
    "CodeClaim", "DataClaim", "EntryFact", "FactBase", "FactEngine",
    "FactExport", "FactStore", "PendingCall", "PrologueFact",
    "RegionFact", "TableFact", "diff_spans", "disassemble_incremental",
]
