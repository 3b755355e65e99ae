"""Validator for the fleet document schemas (manifest / shard / trend).

One authoritative definition CI and the test suite share, mirroring
:mod:`repro.obs.schema`.  Usable as a library
(:func:`validate_document`, :func:`validate_file`) and as a command::

    python -m repro.fleet.schema benchmarks/results/TREND_fleet.json

which dispatches on the embedded ``schema`` tag, exits non-zero on the
first violation, and prints a one-line summary on success.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .aggregate import TREND_SCHEMA
from .analysis import ALL_TOOLS, REPORT_SCHEMA
from .driver import SHARD_SCHEMA
from .manifest import MANIFEST_SCHEMA, FleetItem
from .taxonomy import ALL_CLASSES


class SchemaError(ValueError):
    """A fleet document violates its declared schema."""


def _require(raw: dict, field: str, kind) -> object:
    if field not in raw:
        raise SchemaError(f"missing required field {field!r}")
    value = raw[field]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(
            f"field {field!r} must be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}")
    return value


def _validate_manifest(raw: dict) -> dict:
    items = _require(raw, "items", list)
    seen: set[str] = set()
    for index, item in enumerate(items):
        try:
            fleet_item = FleetItem.from_dict(item)
        except (ValueError, KeyError, TypeError) as error:
            raise SchemaError(f"items[{index}]: {error}") from None
        if fleet_item.id in seen:
            raise SchemaError(f"items[{index}]: duplicate id "
                              f"{fleet_item.id}")
        seen.add(fleet_item.id)
    if not items:
        raise SchemaError("manifest has no items")
    return {"kind": "manifest", "items": len(items)}


def validate_report(raw: dict) -> dict:
    """Check one per-binary report; returns it for chaining."""
    if raw.get("schema") != REPORT_SCHEMA:
        raise SchemaError(f"report schema must be {REPORT_SCHEMA!r}, "
                          f"got {raw.get('schema')!r}")
    _require(raw, "id", str)
    status = _require(raw, "status", str)
    if status not in ("ok", "failed"):
        raise SchemaError(f"unknown report status {status!r}")
    if status == "failed":
        if not raw.get("error"):
            raise SchemaError("failed report carries no error message")
        return raw
    tools = _require(raw, "tools", dict)
    for name in ALL_TOOLS:
        if name not in tools:
            raise SchemaError(f"report lacks tool {name!r}")
        per_tool = tools[name]
        lint = _require(per_tool, "lint", dict)
        for rule, severities in lint.items():
            if not isinstance(severities, dict):
                raise SchemaError(f"tool {name!r} rule {rule!r}: "
                                  f"severity map expected")
        if per_tool.get("gt") is not None and \
                not isinstance(per_tool["gt"], dict):
            raise SchemaError(f"tool {name!r}: gt must be object or null")
    _require(raw, "diff", dict)
    return raw


def _validate_shard(raw: dict) -> dict:
    _require(raw, "shard", int)
    reports = _require(raw, "reports", list)
    for index, report in enumerate(reports):
        try:
            validate_report(report)
        except SchemaError as error:
            raise SchemaError(f"reports[{index}]: {error}") from None
    return {"kind": "shard", "reports": len(reports)}


def _validate_trend(raw: dict) -> dict:
    binaries = _require(raw, "binaries", dict)
    for field in ("total", "ok", "failed"):
        _require(binaries, field, int)
    if binaries["ok"] + binaries["failed"] != binaries["total"]:
        raise SchemaError("binaries.ok + binaries.failed != total")
    failures = _require(raw, "failures", list)
    if len(failures) != binaries["failed"]:
        raise SchemaError("failures list disagrees with binaries.failed")
    tools = _require(raw, "tools", dict)
    for name in ALL_TOOLS:
        if name not in tools:
            raise SchemaError(f"trend lacks tool {name!r}")
        taxonomy = _require(tools[name], "taxonomy", dict)
        for cls in ALL_CLASSES:
            if cls.value not in taxonomy:
                raise SchemaError(f"tool {name!r} taxonomy lacks class "
                                  f"{cls.value!r}")
            bucket = taxonomy[cls.value]
            for field in ("diagnostics", "errors"):
                _require(bucket, field, int)
            if bucket["errors"] > bucket["diagnostics"]:
                raise SchemaError(
                    f"tool {name!r} class {cls.value!r}: errors exceed "
                    f"diagnostics")
        gt = _require(tools[name], "gt", dict)
        for field in ("binaries", "false_code", "missed_code",
                      "scored_bytes"):
            _require(gt, field, int)
    _require(raw, "styles", dict)
    _require(raw, "diff", dict)
    separation = _require(raw, "separation", dict)
    for baseline, axes in separation.items():
        if not isinstance(axes, dict):
            raise SchemaError(f"separation[{baseline!r}] must be object")
        for axis, cell in axes.items():
            for field in ("corrected", "baseline"):
                _require(cell, field, int)
            if not isinstance(cell.get("holds"), bool):
                raise SchemaError(
                    f"separation[{baseline!r}][{axis!r}].holds "
                    f"must be bool")
    return {"kind": "trend", "binaries": binaries["total"],
            "failed": binaries["failed"]}


_VALIDATORS = {
    MANIFEST_SCHEMA: _validate_manifest,
    SHARD_SCHEMA: _validate_shard,
    TREND_SCHEMA: _validate_trend,
}


def validate_document(raw: dict) -> dict:
    """Validate one decoded fleet document by its ``schema`` tag."""
    if not isinstance(raw, dict):
        raise SchemaError(f"document must be an object, "
                          f"got {type(raw).__name__}")
    schema = raw.get("schema")
    validator = _VALIDATORS.get(schema)
    if validator is None:
        raise SchemaError(
            f"unknown fleet schema {schema!r} (expected one of "
            f"{sorted(_VALIDATORS)})")
    return validator(raw)


def validate_file(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise SchemaError(f"not JSON: {error}") from error
    return validate_document(raw)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python -m repro.fleet.schema FILE.json ...",
              file=sys.stderr)
        return 2
    for path in argv:
        try:
            summary = validate_file(path)
        except (OSError, SchemaError) as error:
            print(f"schema: {path}: {error}", file=sys.stderr)
            return 1
        detail = ", ".join(f"{key}={value}"
                           for key, value in summary.items()
                           if key != "kind")
        print(f"{path}: ok -- {summary['kind']} ({detail})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
