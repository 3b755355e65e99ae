"""Phase-timing instrumentation for the disassembly pipeline.

The disassembler is a sequence of well-separated phases (superset
construction, statistical/behavioral scoring, table detection,
prioritized correction, gap completion, function identification).
:class:`PhaseTimings` is a lightweight context-manager timer the engine
threads through those phases; the result is surfaced three ways:

* appended to the engine log (``repro.core.disassembler``),
* printed by the CLI under ``--profile``,
* dumped machine-readably via :func:`write_bench_json` so benchmark
  runs leave a ``BENCH_*.json`` artifact later PRs can diff against.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class PhaseTimings:
    """Named wall-clock phase durations, in insertion order.

    Re-entering a phase name accumulates into the same bucket, so
    per-item phases (one timer around each correction pass, say) sum
    naturally.
    """

    def __init__(self) -> None:
        self.phases: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        """Time a ``with`` block under ``name``."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - started
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    def add(self, name: str, seconds: float) -> None:
        """Record an externally measured duration."""
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    def merge(self, other: PhaseTimings | dict[str, float]) -> None:
        """Accumulate another timing set phase-by-phase.

        ``other`` may be a live :class:`PhaseTimings` or an
        :meth:`as_dict` dump; the dump's derived ``total`` key is
        skipped so merging never double-counts.  Merge and dump
        round-trip: splitting a workload over N timers, dumping each
        with :meth:`as_dict`, and merging the dumps into a fresh timer
        yields the same phase sums (and hence the same ``total``) as
        timing everything into one accumulator, up to float summation
        order.  The serving layer relies on this to aggregate
        worker-side phase timings across many batches.
        """
        phases = other.phases if isinstance(other, PhaseTimings) else other
        for name, seconds in phases.items():
            if name == "total":
                continue
            self.add(name, seconds)

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    def as_dict(self) -> dict[str, float]:
        """Phase -> seconds, plus a derived ``total`` key.

        The dump is machine readable (``--bench-json`` artifacts) and
        feeds straight back into :meth:`merge`, which ignores the
        ``total`` key; see :meth:`merge` for the round-trip guarantee.
        """
        out = dict(self.phases)
        out["total"] = self.total
        return out

    def log_lines(self, prefix: str = "phase ") -> list[str]:
        """One compact line per phase, for the engine log."""
        return [f"{prefix}{name}: {seconds * 1000:.1f}ms"
                for name, seconds in self.phases.items()]

    def render(self) -> str:
        """Human-readable profile block for CLI ``--profile`` output."""
        if not self.phases:
            return "no phases recorded"
        width = max(len(name) for name in self.phases)
        total = self.total or 1.0
        lines = []
        for name, seconds in self.phases.items():
            share = 100.0 * seconds / total
            lines.append(f"{name.ljust(width)}  {seconds * 1000:9.1f}ms"
                         f"  {share:5.1f}%")
        lines.append(f"{'total'.ljust(width)}  {self.total * 1000:9.1f}ms")
        return "\n".join(lines)


#: Schema tag shared by every ``BENCH_*.json`` artifact.
BENCH_SCHEMA = "repro-bench-v1"


def bench_envelope(tool: str, config: dict | None = None,
                   metrics: dict | None = None, **extra) -> dict:
    """The unified ``repro-bench-v1`` envelope every bench script emits.

    * ``tool`` names the benchmark (``decode``, ``correct``, ``fleet``,
      ...); ``repro obs record`` keys the record kind ``bench-<tool>``
      off it.
    * ``config`` holds the knobs that shaped the run (corpus size,
      repeats, jobs) -- context, never trended.
    * ``metrics`` holds the measured numbers (arbitrarily nested;
      numeric leaves), the only part regression trending looks at.

    The envelope also stamps the environment (Python version,
    platform, CPU count, decoder backend).  ``extra`` lands at the top
    level for artifact-specific payloads that other consumers address
    directly (e.g. ``trend=...``, which
    ``repro.fleet.aggregate.load_trend`` expects beside ``metrics``).
    """
    from .isa.decoder import decoder_backend  # lazy: perf is low-level
    return {
        "schema": BENCH_SCHEMA,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "decoder_backend": decoder_backend(),
        "tool": tool,
        "config": dict(config or {}),
        "metrics": dict(metrics or {}),
        **extra,
    }


def validate_bench_envelope(doc: dict) -> list[str]:
    """Schema check for a unified envelope; returns problem strings."""
    problems = []
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, "
                        f"expected {BENCH_SCHEMA!r}")
    if not doc.get("tool") or not isinstance(doc.get("tool"), str):
        problems.append("missing or non-string 'tool'")
    for field in ("config", "metrics"):
        if not isinstance(doc.get(field), dict):
            problems.append(f"missing or non-dict {field!r}")

    def check_numeric(value, name: str) -> None:
        if isinstance(value, dict):
            for key, sub in value.items():
                check_numeric(sub, f"{name}.{key}")
        elif not isinstance(value, (int, float)) \
                or isinstance(value, bool):
            problems.append(f"metrics leaf {name} is "
                            f"{type(value).__name__}, not numeric")

    if isinstance(doc.get("metrics"), dict):
        for key, value in doc["metrics"].items():
            check_numeric(value, key)
    return problems


def write_bench_json(path: str | Path, payload: dict) -> Path:
    """Write a benchmark payload as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
