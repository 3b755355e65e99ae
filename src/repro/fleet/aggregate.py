"""Fleet aggregation: raw per-binary reports -> taxonomy trend.

The aggregator is a pure function from a set of per-binary reports to
one schema-versioned *trend* document: every lint diagnostic mapped
onto the shared error taxonomy, ground-truth byte confusions pooled
per tool and per style, differential disagreement summed, and the
corrected-vs-baseline separation the paper predicts evaluated
explicitly (:func:`check_separation` turns it into failure messages).
Nothing time- or machine-dependent enters the trend, so it is
byte-identical for a given manifest regardless of worker count, shard
order, ``--via`` mode, or how many times the run was killed and
resumed -- which is what makes it safe to commit as a regression
baseline (``benchmarks/results/TREND_fleet.json``).  Cross-revision
comparison is not done here: ``repro obs record`` flattens the trend
into the run-record store and ``repro obs diff`` gates it there.
"""

from __future__ import annotations

import json
from pathlib import Path

from .analysis import ALL_TOOLS, BASELINES, CORRECTED
from .taxonomy import (ALL_CLASSES, EXPECTED_SEPARATIONS, ErrorClass,
                       taxonomy_of)

#: Schema tag embedded in every trend document.
TREND_SCHEMA = "repro-fleet-trend-v1"

#: Decimal places for derived rates (fixed so trends stay
#: byte-comparable).
_RATE_DIGITS = 8


def _empty_taxonomy() -> dict:
    return {cls.value: {"diagnostics": 0, "errors": 0}
            for cls in ALL_CLASSES}


def _fold_lint(into: dict, lint: dict) -> None:
    """Fold one report's rule->severity->count map into a tool bucket."""
    for rule, severities in lint.items():
        count = sum(severities.values())
        into["lint_rules"][rule] = into["lint_rules"].get(rule, 0) + count
        bucket = into["taxonomy"][taxonomy_of(rule).value]
        bucket["diagnostics"] += count
        bucket["errors"] += severities.get("error", 0)


def _fold_gt(into: dict, gt: dict) -> None:
    into["binaries"] += 1
    for key in ("false_code", "missed_code", "code_bytes", "data_bytes",
                "instr_tp", "instr_fp", "instr_fn"):
        into[key] += gt[key]


def _empty_gt() -> dict:
    return {"binaries": 0, "false_code": 0, "missed_code": 0,
            "code_bytes": 0, "data_bytes": 0,
            "instr_tp": 0, "instr_fp": 0, "instr_fn": 0}


def _derive_gt_rates(gt: dict) -> dict:
    """Attach pooled byte-error rates and instruction F1 to a GT pool."""
    out = dict(gt)
    scored = gt["code_bytes"] + gt["data_bytes"]
    out["scored_bytes"] = scored
    for key, numerator in (("false_code_rate", gt["false_code"]),
                           ("missed_code_rate", gt["missed_code"]),
                           ("total_error_rate",
                            gt["false_code"] + gt["missed_code"])):
        out[key] = round(numerator / scored, _RATE_DIGITS) if scored else 0.0
    tp, fp, fn = gt["instr_tp"], gt["instr_fp"], gt["instr_fn"]
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    out["instr_f1"] = round(2 * precision * recall / (precision + recall)
                            if precision + recall else 0.0, _RATE_DIGITS)
    return out


def _gt_axis(gt: dict, axis: str) -> int:
    if axis == "false-code":
        return gt["false_code"]
    if axis == "missed-code":
        return gt["missed_code"]
    if axis == "total":
        return gt["false_code"] + gt["missed_code"]
    raise ValueError(f"unknown separation axis {axis!r}")


def aggregate(reports: list[dict]) -> dict:
    """Pool per-binary reports into one deterministic trend document.

    Input order does not matter: reports are re-sorted by item id, and
    every output map is emitted with sorted keys.
    """
    reports = sorted(reports, key=lambda r: r["id"])
    ids = [r["id"] for r in reports]
    if len(set(ids)) != len(ids):
        duplicate = next(i for i in ids if ids.count(i) > 1)
        raise ValueError(f"duplicate report for item {duplicate}")

    tools = {name: {"lint_rules": {}, "taxonomy": _empty_taxonomy(),
                    "gt": _empty_gt()}
             for name in ALL_TOOLS}
    styles: dict[str, dict] = {}
    diff = {name: {"corrected_only_code": 0, "baseline_only_code": 0,
                   "entry_only_corrected": 0, "entry_only_baseline": 0}
            for name in BASELINES}
    failures = []
    ok = 0

    for report in reports:
        if report["status"] != "ok":
            failures.append({"id": report["id"],
                             "error": report.get("error", "")})
            continue
        ok += 1
        style = styles.setdefault(report.get("style", "file"), {
            "binaries": 0,
            "tools": {name: {"taxonomy_errors":
                             {cls.value: 0 for cls in ALL_CLASSES},
                             "gt": _empty_gt()}
                      for name in ALL_TOOLS}})
        style["binaries"] += 1
        for name in ALL_TOOLS:
            per_tool = report["tools"][name]
            _fold_lint(tools[name], per_tool["lint"])
            for rule, severities in per_tool["lint"].items():
                errors = severities.get("error", 0)
                if errors:
                    style["tools"][name]["taxonomy_errors"][
                        taxonomy_of(rule).value] += errors
            if per_tool["gt"] is not None:
                _fold_gt(tools[name]["gt"], per_tool["gt"])
                _fold_gt(style["tools"][name]["gt"], per_tool["gt"])
        for name in BASELINES:
            for key, value in report["diff"][name].items():
                diff[name][key] += value

    # The paper-predicted separation, evaluated on pooled ground truth
    # (synthetic items only; absent when the corpus has no labels).
    separation: dict[str, dict] = {}
    if tools[CORRECTED]["gt"]["binaries"]:
        for baseline, axes in EXPECTED_SEPARATIONS.items():
            separation[baseline] = {}
            for axis in axes:
                ours = _gt_axis(tools[CORRECTED]["gt"], axis)
                theirs = _gt_axis(tools[baseline]["gt"], axis)
                separation[baseline][axis] = {
                    "corrected": ours, "baseline": theirs,
                    "holds": ours < theirs}

    for name in ALL_TOOLS:
        tools[name]["gt"] = _derive_gt_rates(tools[name]["gt"])
        for style in styles.values():
            style["tools"][name]["gt"] = _derive_gt_rates(
                style["tools"][name]["gt"])

    return {
        "schema": TREND_SCHEMA,
        "binaries": {"total": len(reports), "ok": ok,
                     "failed": len(failures)},
        "failures": sorted(failures, key=lambda f: f["id"]),
        "tools": tools,
        "styles": styles,
        "diff": diff,
        "separation": separation,
    }


def trend_json(trend: dict) -> str:
    """The canonical byte representation of a trend document."""
    return json.dumps(trend, indent=2, sort_keys=True) + "\n"


def write_trend(path: str | Path, trend: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(trend_json(trend))
    return path


# ----------------------------------------------------------------------
# Separation
# ----------------------------------------------------------------------

def check_separation(trend: dict) -> list[str]:
    """Failure messages when the paper-predicted separation breaks."""
    problems = []
    separation = trend.get("separation") or {}
    for baseline in sorted(EXPECTED_SEPARATIONS):
        axes = separation.get(baseline)
        if axes is None:
            problems.append(f"separation vs {baseline}: not evaluated "
                            f"(no ground-truth-scored binaries)")
            continue
        for axis, cell in sorted(axes.items()):
            if not cell["holds"]:
                problems.append(
                    f"separation vs {baseline} on {axis}: corrected "
                    f"{cell['corrected']} is not strictly below "
                    f"{cell['baseline']}")
    return problems


# ----------------------------------------------------------------------
# Exposition
# ----------------------------------------------------------------------

def publish_metrics(trend: dict, registry=None) -> None:
    """Publish a trend through the PR-5 metrics registry.

    Fleet metrics carry the ``repro_fleet_`` prefix so a Prometheus
    scrape of any process that ran (or re-aggregated) a fleet shows
    the quality dashboard next to the serving metrics.
    """
    if registry is None:
        from ..obs.metrics import REGISTRY as registry  # noqa: N813

    binaries = registry.counter(
        "repro_fleet_binaries_total",
        "Fleet binaries evaluated, by outcome")
    binaries.inc(trend["binaries"]["ok"], status="ok")
    binaries.inc(trend["binaries"]["failed"], status="failed")

    diagnostics = registry.counter(
        "repro_fleet_taxonomy_total",
        "Fleet lint diagnostics, by tool and error class")
    errors = registry.counter(
        "repro_fleet_taxonomy_errors_total",
        "Fleet ERROR-severity lint diagnostics, by tool and error class")
    for tool, per_tool in trend["tools"].items():
        for cls, bucket in per_tool["taxonomy"].items():
            if bucket["diagnostics"]:
                diagnostics.inc(bucket["diagnostics"], tool=tool,
                                **{"class": cls})
            if bucket["errors"]:
                errors.inc(bucket["errors"], tool=tool, **{"class": cls})

    gt_bytes = registry.counter(
        "repro_fleet_gt_error_bytes_total",
        "Ground-truth byte errors across the fleet, by tool and class")
    for tool, per_tool in trend["tools"].items():
        gt = per_tool["gt"]
        if gt["binaries"]:
            gt_bytes.inc(gt["false_code"], tool=tool,
                         **{"class": ErrorClass.FALSE_CODE.value})
            gt_bytes.inc(gt["missed_code"], tool=tool,
                         **{"class": ErrorClass.MISSED_CODE.value})

    disagreement = registry.counter(
        "repro_fleet_diff_bytes_total",
        "Corrected-vs-baseline differential disagreement bytes")
    for baseline, counts in trend["diff"].items():
        disagreement.inc(counts["corrected_only_code"], baseline=baseline,
                         side="corrected-only")
        disagreement.inc(counts["baseline_only_code"], baseline=baseline,
                         side="baseline-only")

    holds = registry.gauge(
        "repro_fleet_separation_ok",
        "1 when the paper-predicted corrected-vs-baseline separation "
        "holds on this axis")
    for baseline, axes in (trend.get("separation") or {}).items():
        for axis, cell in axes.items():
            holds.set(1.0 if cell["holds"] else 0.0,
                      baseline=baseline, axis=axis)


def render_report(trend: dict) -> str:
    """Human-readable fleet summary for ``repro evalfleet report``."""
    lines = []
    binaries = trend["binaries"]
    lines.append(f"fleet: {binaries['ok']}/{binaries['total']} binaries "
                 f"ok, {binaries['failed']} quarantined")
    lines.append("")
    lines.append(f"{'error class':<22s}" + "".join(
        f"{tool:>20s}" for tool in ALL_TOOLS))
    for cls in ALL_CLASSES:
        row = f"{cls.value:<22s}"
        for tool in ALL_TOOLS:
            bucket = trend["tools"][tool]["taxonomy"][cls.value]
            row += f"{bucket['errors']:>10d}/{bucket['diagnostics']:<9d}"
        lines.append(row)
    lines.append("(cells are ERROR-severity/all lint diagnostics)")

    gt = trend["tools"][CORRECTED]["gt"]
    if gt["binaries"]:
        lines.append("")
        lines.append(f"{'ground truth':<22s}" + "".join(
            f"{tool:>20s}" for tool in ALL_TOOLS))
        for key in ("false_code", "missed_code", "total_error_rate",
                    "instr_f1"):
            row = f"{key:<22s}"
            for tool in ALL_TOOLS:
                value = trend["tools"][tool]["gt"][key]
                row += (f"{value:>20.6f}" if isinstance(value, float)
                        else f"{value:>20d}")
            lines.append(row)
    if trend.get("separation"):
        lines.append("")
        for baseline, axes in sorted(trend["separation"].items()):
            for axis, cell in sorted(axes.items()):
                verdict = "ok" if cell["holds"] else "VIOLATED"
                lines.append(f"separation vs {baseline:<18s} {axis:<12s}"
                             f" corrected {cell['corrected']} < "
                             f"{cell['baseline']}  [{verdict}]")
    for failure in trend["failures"]:
        lines.append(f"quarantined: {failure['id']}: {failure['error']}")
    return "\n".join(lines)
