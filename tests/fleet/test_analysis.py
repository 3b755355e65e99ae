"""Per-binary analysis reports: shape, ground truth, quarantine."""

from __future__ import annotations

from repro.fleet import ALL_TOOLS, CORRECTED, BASELINES, analyze_item
from repro.fleet.analysis import REPORT_SCHEMA
from repro.fleet.schema import validate_report


def test_ok_report_shape(small_reports):
    report = small_reports[0]
    assert report["schema"] == REPORT_SCHEMA
    assert report["status"] == "ok"
    assert report["style"] in ("msvc-like", "gcc-like")
    assert set(report["tools"]) == set(ALL_TOOLS)
    for name in ALL_TOOLS:
        per_tool = report["tools"][name]
        assert isinstance(per_tool["lint"], dict)
        assert per_tool["gt"] is not None       # synth items carry labels
        assert per_tool["gt"]["code_bytes"] > 0
    assert set(report["diff"]) == set(BASELINES)
    validate_report(report)


def test_reports_are_deterministic(small_manifest, small_reports):
    again = analyze_item(small_manifest.items[0].to_dict())
    assert again == small_reports[0]


def test_corrected_beats_baselines_on_the_small_corpus(small_reports):
    pooled = {name: 0 for name in ALL_TOOLS}
    for report in small_reports:
        for name in ALL_TOOLS:
            gt = report["tools"][name]["gt"]
            pooled[name] += gt["false_code"] + gt["missed_code"]
    assert pooled[CORRECTED] < pooled["linear-sweep"]
    assert pooled[CORRECTED] < pooled["recursive-descent"]


def test_malformed_file_is_quarantined_not_fatal(tmp_path):
    bogus = tmp_path / "bogus.bin"
    bogus.write_bytes(b"\x7fELF" + b"\x00" * 4)   # truncated ELF header
    report = analyze_item({"kind": "file", "path": str(bogus)})
    assert report["status"] == "failed"
    assert report["error"]
    assert "tools" not in report
    validate_report(report)


def test_missing_file_is_quarantined(tmp_path):
    report = analyze_item({"kind": "file",
                           "path": str(tmp_path / "absent.bin")})
    assert report["status"] == "failed"
    assert "FileNotFoundError" in report["error"]


def test_unreachable_server_is_quarantined():
    report = analyze_item(
        {"kind": "synth", "style": "msvc-like", "function_count": 4,
         "seed": 0},
        via="serve", server="127.0.0.1:1")
    assert report["status"] == "failed"
    assert "TransportError" in report["error"]


def test_one_item_scans_for_pointer_tables_once(small_manifest, monkeypatch):
    # The disassembler scans the section; the three lints read its scan.
    from repro.core import disassembler
    from repro.stats import datamodel
    from repro.superset.superset import cached_superset
    scans = []

    def counted(scan):
        def counting(*args, **kwargs):
            scans.append(1)
            return scan(*args, **kwargs)
        return counting

    for module in (disassembler, datamodel):
        monkeypatch.setattr(module, "find_jump_tables",
                            counted(module.find_jump_tables))
    cached_superset.cache_clear()
    report = analyze_item(small_manifest.items[0].to_dict())
    assert report["status"] == "ok"
    assert len(scans) == 1
