"""The paper's contribution: prioritized error-correcting disassembly."""

from .config import ABLATION_CONFIGS, DEFAULT_CONFIG, DisassemblerConfig
from .disassembler import Disassembler, Disassembly
from .engine import FactBase, FactEngine, disassemble_incremental
from .evidence import Classification, ClassificationState, Priority
from .functions import FunctionSpan, identify_functions

__all__ = [
    "ABLATION_CONFIGS", "DEFAULT_CONFIG", "DisassemblerConfig",
    "Disassembler", "Disassembly", "Classification", "ClassificationState",
    "FactBase", "FactEngine", "Priority", "FunctionSpan",
    "disassemble_incremental", "identify_functions",
]
