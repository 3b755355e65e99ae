"""Per-binary fleet analysis: lint + differential + optional exact F1.

One fleet worker call turns one :class:`~repro.fleet.manifest.FleetItem`
into a plain-dict *report* -- picklable across process pools, JSON-able
into shard checkpoints, and deliberately raw: reports carry lint rule
ids and byte confusions, and the aggregator maps them onto the error
taxonomy, so re-aggregating an old run with a newer taxonomy never
requires re-disassembling anything.

Three tools run per binary: the corrected superset disassembler (in
process, or through a running ``repro serve`` instance when
``via="serve"``), linear sweep, and recursive descent.  All three
claims are linted with the full oracle-free battery; pairwise byte
differentials between corrected and each baseline are recorded; and
synthetic items (which regenerate with exact labels) are additionally
scored against ground truth.

Failures are data, not exceptions: :func:`analyze_item` catches
everything and returns a ``status="failed"`` report, so one malformed
binary -- or one crashed parse -- can never abort a fleet.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..baselines import linear_sweep, recursive_descent
from ..binary.container import Binary
from ..binary.groundtruth import GroundTruth
from ..eval.metrics import evaluate
from ..eval.parallel import disassembler_for, repro_spec
from ..formats import load_any
from ..lint import lint_disassembly
from ..lint.diagnostics import LintReport
from ..result import DisassemblyResult
from ..superset.superset import cached_superset
from ..synth.corpus import generate_binary
from .manifest import FleetItem

#: Schema tag embedded in every per-binary report.
REPORT_SCHEMA = "repro-fleet-report-v1"

#: Tool names as they appear in reports and trends.
CORRECTED = "corrected"
BASELINES = ("linear-sweep", "recursive-descent")
ALL_TOOLS = (CORRECTED,) + BASELINES


def materialize(item: FleetItem) -> tuple[Binary, GroundTruth | None]:
    """Load or regenerate one item's binary (plus labels when synth)."""
    if item.kind == "synth":
        case = generate_binary(item.spec())
        return case.binary, case.truth
    image = load_any(Path(item.path).read_bytes())
    return image.binary, None


def _lint_counts(report: LintReport) -> dict[str, dict[str, int]]:
    """Diagnostic counts keyed rule -> severity -> count."""
    counts: dict[str, dict[str, int]] = {}
    for diagnostic in report.diagnostics:
        per_rule = counts.setdefault(diagnostic.rule, {})
        severity = diagnostic.severity.name.lower()
        per_rule[severity] = per_rule.get(severity, 0) + 1
    return counts


def _gt_counts(result: DisassemblyResult, truth: GroundTruth) -> dict:
    """Exact byte/instruction confusion against synthetic labels."""
    scored = evaluate(result, truth)
    return {
        "false_code": scored.bytes.false_code,
        "missed_code": scored.bytes.missed_code,
        "code_bytes": scored.bytes.code_bytes,
        "data_bytes": scored.bytes.data_bytes,
        "instr_tp": scored.instructions.true_positives,
        "instr_fp": scored.instructions.false_positives,
        "instr_fn": scored.instructions.false_negatives,
    }


def _differential(corrected: DisassemblyResult,
                  baseline: DisassemblyResult) -> dict:
    """Pairwise byte/entry disagreement (the oracle-free error signal).

    ``corrected_only_code`` counts bytes only the corrected tool claims
    as code (its false-code suspects under a differential reading);
    ``baseline_only_code`` the converse (the corrected tool's
    missed-code suspects); entry counts disagree on function starts.
    """
    ours = corrected.code_byte_offsets()
    theirs = baseline.code_byte_offsets()
    return {
        "corrected_only_code": len(ours - theirs),
        "baseline_only_code": len(theirs - ours),
        "entry_only_corrected": len(corrected.function_entries
                                    - baseline.function_entries),
        "entry_only_baseline": len(baseline.function_entries
                                   - corrected.function_entries),
    }


# ----------------------------------------------------------------------
# The serve-backed corrected path
# ----------------------------------------------------------------------

#: One client per (process, server): each fan-out worker process keeps
#: its own, and ServeClient opens a fresh connection per request.
_CLIENTS: dict[str, object] = {}


def _serve_client(server: str):
    client = _CLIENTS.get(server)
    if client is None:
        from ..serve.client import ServeClient
        host, _, port = server.partition(":")
        client = ServeClient(host=host or "127.0.0.1",
                             port=int(port) if port else 8080,
                             retries=4, backoff=0.2)
        _CLIENTS[server] = client
    return client


def _corrected_via_serve(server: str, binary: Binary
                         ) -> tuple[DisassemblyResult, LintReport]:
    """Fetch the corrected claim + its lint report from a live server.

    The server's lint job lints exactly the way the in-process path
    does (same rule battery, same fact export), so reports -- and
    therefore trends -- are byte-identical across ``--via`` modes.
    """
    client = _serve_client(server)
    blob = binary.to_bytes()
    result = DisassemblyResult.from_json(
        json.dumps(client.disassemble(blob)["result"]))
    report = LintReport.from_json(
        json.dumps(client.lint(blob)["report"]))
    return result, report


def _corrected_in_process(binary: Binary
                          ) -> tuple[DisassemblyResult, LintReport]:
    rich = disassembler_for(repro_spec()).disassemble_rich(binary)
    report = lint_disassembly(rich.result, rich.superset,
                              facts=rich.facts)
    return rich.result, report


# ----------------------------------------------------------------------
# The worker entry point
# ----------------------------------------------------------------------

def analyze_item(item_dict: dict, via: str = "inprocess",
                 server: str = "") -> dict:
    """Run the full analysis stage for one manifest item.

    Accepts and returns plain dicts so it can cross a process pool
    unchanged.  Never raises: any failure (malformed file, crashed
    parse, unreachable server) comes back as a quarantined
    ``status="failed"`` report.
    """
    item = FleetItem.from_dict(item_dict)
    report: dict = {"schema": REPORT_SCHEMA, "id": item.id,
                    "status": "ok", "error": "",
                    "style": item.style if item.kind == "synth" else "file"}
    try:
        binary, truth = materialize(item)
        text = binary.text.data
        superset = cached_superset(text)

        if via == "serve":
            corrected, corrected_lint = _corrected_via_serve(server, binary)
        else:
            corrected, corrected_lint = _corrected_in_process(binary)
        results = {
            CORRECTED: corrected,
            "linear-sweep": linear_sweep(text, superset=superset),
            "recursive-descent": recursive_descent(text, 0,
                                                   superset=superset),
        }
        lint_reports = {CORRECTED: corrected_lint}
        for name in BASELINES:
            lint_reports[name] = lint_disassembly(results[name], superset)

        report["text_bytes"] = len(text)
        report["tools"] = {
            name: {
                "lint": _lint_counts(lint_reports[name]),
                "gt": (_gt_counts(results[name], truth)
                       if truth is not None else None),
            }
            for name in ALL_TOOLS
        }
        report["diff"] = {
            name: _differential(corrected, results[name])
            for name in BASELINES
        }
    except Exception as error:  # noqa: BLE001 -- quarantined by design
        report["status"] = "failed"
        report["error"] = f"{type(error).__name__}: {error}"
        report.pop("tools", None)
        report.pop("diff", None)
    return report
