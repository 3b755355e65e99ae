"""Behavioral static analyses over superset candidates."""

from .behavior import BehaviorAnalyzer
from .cfg import BasicBlock, ControlFlowGraph, build_cfg
from .defuse import CONVENTIONALLY_LIVE, DefUseSignals, analyze_chain
from .idioms import (PROLOGUE_THRESHOLD, is_epilogue_end,
                     likely_function_starts, padding_kind, prologue_score)

__all__ = [
    "BehaviorAnalyzer", "BasicBlock", "ControlFlowGraph", "build_cfg",
    "CONVENTIONALLY_LIVE", "DefUseSignals", "analyze_chain",
    "PROLOGUE_THRESHOLD", "is_epilogue_end", "likely_function_starts",
    "padding_kind", "prologue_score",
]
