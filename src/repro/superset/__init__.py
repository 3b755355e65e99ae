"""Superset disassembly: every decodable offset as a candidate."""

from .superset import Superset

__all__ = ["Superset"]
