"""Artifact ingestion: structured system outputs -> flat run records.

``repro obs record`` accepts any artifact the pipeline already emits
and reduces it to one :class:`~repro.obs.store.RunRecord` -- a flat
``metric name -> number`` map -- without per-script adapters:

* **Fleet trend documents** (``repro-fleet-trend-v1``): corrected-tool
  ground-truth rates and F1, per-error-class taxonomy errors, per-style
  F1, failure rate.
* **Benchmark envelopes** (``repro-bench-v1``): the envelope's
  ``metrics`` dict, flattened; the record kind is ``bench-<tool>``, so
  every ``bench_*.py --json`` output lands without special cases.
* **Metrics-registry snapshots** (``MetricsRegistry.snapshot()``):
  every counter/gauge sample and histogram count/sum.
* **Serve access logs** (JSONL): per-endpoint request counts, error
  rates, and p50/p99/mean latency, plus an ``all`` rollup.
* **Trace exports** (``repro-trace-v1`` JSONL): per-span-name count,
  total and *self* duration (total minus child spans), i.e. the
  phase-level hot-path profile a trace implies.
* **Sampling profiles** (``repro-profile-v1``): per-phase self-time
  fractions, with the collapsed stacks preserved in ``meta``.

Detection is content-based (schema tags, then shape), so callers can
point ``obs record`` at a directory of mixed artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..perf import validate_bench_envelope
from .store import RunRecord, StoreError

#: Kinds this module can produce (bench kinds carry a tool suffix).
KIND_FLEET_TREND = "fleet-trend"
KIND_METRICS = "metrics-snapshot"
KIND_SERVE_ACCESS = "serve-access"
KIND_TRACE = "trace-rollup"
KIND_PROFILE = "profile"


class IngestError(StoreError):
    """An artifact could not be recognized or flattened."""


def _round(value: float, digits: int = 8) -> float:
    return round(float(value), digits)


def flatten_numeric(value, prefix: str = "", into: dict | None = None,
                    ) -> dict:
    """Flatten nested dicts to dotted names, keeping numeric leaves."""
    into = into if into is not None else {}
    if isinstance(value, bool):
        into[prefix] = float(value)
    elif isinstance(value, (int, float)):
        into[prefix] = value
    elif isinstance(value, dict):
        for key, sub in value.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            flatten_numeric(sub, name, into)
    return into


def _percentile(values: list[float], fraction: float) -> float:
    """Deterministic nearest-rank percentile (values need not be sorted)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


# ----------------------------------------------------------------------
# Per-artifact flatteners
# ----------------------------------------------------------------------

def flatten_trend(trend: dict) -> dict:
    """Fleet trend document -> the metrics worth trending."""
    metrics: dict = {}
    binaries = trend.get("binaries", {})
    total = max(binaries.get("total", 0), 1)
    metrics["binaries.total"] = binaries.get("total", 0)
    metrics["binaries.ok"] = binaries.get("ok", 0)
    metrics["binaries.failed"] = binaries.get("failed", 0)
    metrics["binaries.failure_rate"] = _round(
        binaries.get("failed", 0) / total)
    for tool, per_tool in sorted(trend.get("tools", {}).items()):
        gt = per_tool.get("gt", {})
        if gt.get("binaries"):
            for key in ("instr_f1", "false_code_rate",
                        "missed_code_rate", "total_error_rate"):
                if key in gt:
                    metrics[f"{tool}.{key}"] = gt[key]
        for cls, bucket in sorted(per_tool.get("taxonomy", {}).items()):
            metrics[f"{tool}.taxonomy.{cls}.errors"] = bucket["errors"]
    for style, per_style in sorted(trend.get("styles", {}).items()):
        corrected = per_style.get("tools", {}).get("corrected", {})
        gt = corrected.get("gt", {})
        if gt.get("binaries"):
            metrics[f"style.{style}.instr_f1"] = gt.get("instr_f1", 0.0)
            metrics[f"style.{style}.total_error_rate"] = \
                gt.get("total_error_rate", 0.0)
    for baseline, axes in sorted((trend.get("separation") or {}).items()):
        for axis, cell in sorted(axes.items()):
            metrics[f"separation.{baseline}.{axis}.holds"] = \
                float(cell["holds"])
    return metrics


def flatten_bench(doc: dict) -> tuple[str, dict]:
    """Bench envelope -> (kind, metrics); the kind is ``bench-<tool>``.

    Only the ``metrics`` dict is flattened: ``config`` is context, not
    a trended measurement.  A document that fails
    :func:`~repro.perf.validate_bench_envelope` is rejected whole.
    """
    problems = validate_bench_envelope(doc)
    if problems:
        raise IngestError("not a valid repro-bench-v1 envelope: "
                          + "; ".join(problems))
    return f"bench-{doc['tool']}", flatten_numeric(doc["metrics"])


def flatten_metrics_snapshot(snapshot: dict) -> dict:
    """``MetricsRegistry.snapshot()`` -> flat samples."""
    metrics: dict = {}
    for name, entry in sorted(snapshot.items()):
        for labels, value in sorted(entry.get("values", {}).items()):
            sample = f"{name}{labels}" if labels else name
            if isinstance(value, dict):        # histogram: count + sum
                metrics[f"{sample}.count"] = value.get("count", 0)
                metrics[f"{sample}.sum"] = value.get("sum", 0.0)
            else:
                metrics[sample] = value
    return metrics


def _is_metrics_snapshot(doc: dict) -> bool:
    if not doc:
        return False
    return all(isinstance(entry, dict)
               and {"kind", "values"} <= set(entry)
               for entry in doc.values())


def flatten_access_log(lines: list[dict]) -> dict:
    """Serve access-log JSONL -> per-endpoint latency/error summary."""
    by_endpoint: dict[str, list[dict]] = {}
    for entry in lines:
        endpoint = entry.get("endpoint")
        if endpoint is None or "latency_ms" not in entry:
            continue        # lifecycle lines (drain-complete etc.)
        by_endpoint.setdefault(str(endpoint), []).append(entry)
    if not by_endpoint:
        raise IngestError("access log holds no request lines")
    by_endpoint["all"] = [entry for entries in by_endpoint.values()
                          for entry in entries]
    metrics: dict = {}
    for endpoint, entries in sorted(by_endpoint.items()):
        latencies = [float(entry["latency_ms"]) for entry in entries]
        errors = sum(1 for entry in entries
                     if int(entry.get("status", 0)) >= 500)
        name = endpoint.strip("/").replace("/", ".") or "root"
        metrics[f"{name}.requests"] = len(entries)
        metrics[f"{name}.error_rate"] = _round(errors / len(entries))
        metrics[f"{name}.p50_ms"] = _round(_percentile(latencies, 0.50), 3)
        metrics[f"{name}.p99_ms"] = _round(_percentile(latencies, 0.99), 3)
        metrics[f"{name}.mean_ms"] = _round(
            sum(latencies) / len(latencies), 3)
    return metrics


def flatten_trace(spans: list[dict]) -> dict:
    """Trace-span JSONL -> per-name count / total / self durations.

    Self time is a span's duration minus its direct children's -- the
    span-level equivalent of a profiler's self column, clamped at zero
    for async spans whose children outlive them.
    """
    if not spans:
        raise IngestError("trace export holds no spans")
    child_us: dict[str, int] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent:
            child_us[parent] = child_us.get(parent, 0) \
                + int(span.get("dur_us", 0))
    totals: dict[str, list[float]] = {}
    for span in spans:
        name = span["name"]
        duration = int(span.get("dur_us", 0))
        self_us = max(0, duration - child_us.get(span["span_id"], 0))
        bucket = totals.setdefault(name, [0.0, 0.0, 0.0])
        bucket[0] += 1
        bucket[1] += duration / 1e6
        bucket[2] += self_us / 1e6
    metrics: dict = {}
    for name, (count, total, self_s) in sorted(totals.items()):
        metrics[f"span.{name}.count"] = count
        metrics[f"span.{name}.total_s"] = _round(total, 6)
        metrics[f"span.{name}.self_s"] = _round(self_s, 6)
    return metrics


def flatten_profile(doc: dict) -> dict:
    """Sampling-profiler dump -> per-phase self-time fractions."""
    samples = max(int(doc.get("samples", 0)), 0)
    metrics: dict = {"samples.total": samples}
    if samples:
        for phase, count in sorted(doc.get("phases", {}).items()):
            metrics[f"phase.{phase}.self_fraction"] = _round(
                count / samples)
    return metrics


# ----------------------------------------------------------------------
# Detection + the one entry point
# ----------------------------------------------------------------------

def _read_jsonl(text: str, path: Path) -> list[dict]:
    lines = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise IngestError(f"{path}:{number}: not JSONL: {error}") \
                from None
    return lines


def ingest_file(path: str | Path, *, git_rev: str, run_id: str,
                timestamp: str, kind: str | None = None) -> RunRecord:
    """Recognize one artifact file and flatten it into a run record.

    ``kind`` overrides detection (rarely needed).  Raises
    :class:`IngestError` for unrecognizable content.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    meta = {"source": path.name}
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None

    if isinstance(doc, dict):
        schema = doc.get("schema")
        if schema == "repro-fleet-trend-v1":
            detected, metrics = KIND_FLEET_TREND, flatten_trend(doc)
        elif schema == "repro-bench-v1":
            detected, metrics = flatten_bench(doc)
        elif schema == "repro-profile-v1":
            detected, metrics = KIND_PROFILE, flatten_profile(doc)
            meta["stacks"] = doc.get("stacks", {})
            meta["interval_ms"] = doc.get("interval_ms")
        elif _is_metrics_snapshot(doc):
            detected, metrics = KIND_METRICS, flatten_metrics_snapshot(doc)
        else:
            raise IngestError(
                f"{path}: unrecognized JSON artifact "
                f"(schema={schema!r})")
    else:
        lines = _read_jsonl(text, path)
        if not lines:
            raise IngestError(f"{path}: empty artifact")
        if lines[0].get("schema") == "repro-trace-v1":
            detected, metrics = KIND_TRACE, flatten_trace(lines)
        elif any("latency_ms" in line and "endpoint" in line
                 for line in lines):
            detected, metrics = KIND_SERVE_ACCESS, \
                flatten_access_log(lines)
        else:
            raise IngestError(f"{path}: unrecognized JSONL artifact")

    return RunRecord(git_rev=git_rev, run_id=run_id,
                     kind=kind or detected, timestamp=timestamp,
                     metrics=metrics, meta=meta)
