"""Behavioral static analyses over superset candidates."""

from .behavior import CONVENTIONALLY_LIVE, BehaviorAnalyzer, chain_counts
from .cfg import BasicBlock, ControlFlowGraph, build_cfg
from .idioms import (PROLOGUE_THRESHOLD, likely_function_starts,
                     prologue_score)

__all__ = [
    "BehaviorAnalyzer", "BasicBlock", "ControlFlowGraph", "build_cfg",
    "CONVENTIONALLY_LIVE", "chain_counts",
    "PROLOGUE_THRESHOLD", "likely_function_starts", "prologue_score",
]
