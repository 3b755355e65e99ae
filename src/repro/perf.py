"""The ``repro-bench-v1`` envelope every benchmark script emits.

:func:`bench_envelope` builds the document, :func:`validate_bench_envelope`
checks its schema, and :func:`write_bench_json` writes it, so benchmark
runs leave ``BENCH_*.json`` artifacts later runs can diff against.
Phase timing lives in :func:`repro.obs.trace.phase_span`.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path


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
