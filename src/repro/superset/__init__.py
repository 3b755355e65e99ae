"""Superset disassembly: every decodable offset as a candidate."""

from .superset import Superset, no_overlap

__all__ = ["Superset", "no_overlap"]
