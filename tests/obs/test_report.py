"""Tests for cross-revision diffing and reporting (repro.obs.report)."""

import copy
import json
from pathlib import Path

import pytest

from repro.fleet import ALL_CLASSES, CORRECTED, write_trend
from repro.obs.ingest import ingest_file
from repro.obs.report import (DEFAULT_NOISE, DIFF_SCHEMA, NoiseBand,
                              band_of, diff_revisions, direction_of,
                              load_noise_spec, regressions,
                              render_markdown, report_revision)
from repro.obs.store import RunRecord, RunStore, StoreError


def seeded(base_metrics, current_metrics, kind="bench-decode"):
    store = RunStore()
    store.add(RunRecord(git_rev="aaaa", run_id="r0", kind=kind,
                        timestamp="2026-01-01", metrics=base_metrics))
    store.add(RunRecord(git_rev="bbbb", run_id="r0", kind=kind,
                        timestamp="2026-01-02",
                        metrics=current_metrics))
    return store


class TestDirectionInference:
    @pytest.mark.parametrize("metric, expected", [
        ("corrected.instr_f1", "up"),
        ("speedup", "up"),
        ("throughput", "up"),
        ("p99_ms", "down"),
        ("total_error_rate", "down"),
        ("phase.superset.self_fraction", "down"),
        ("binaries.total", "none"),
    ])
    def test_name_patterns(self, metric, expected):
        assert direction_of("k", metric, DEFAULT_NOISE) == expected

    def test_spec_direction_overrides_name_inference(self):
        bands = (NoiseBand("k:binaries.total", direction="up"),) \
            + DEFAULT_NOISE
        assert direction_of("k", "binaries.total", bands) == "up"

    def test_first_matching_band_wins(self):
        bands = (NoiseBand("k:x", rel_tol=0.5),
                 NoiseBand("k:*", rel_tol=0.1)) + DEFAULT_NOISE
        assert band_of("k", "x", bands).rel_tol == 0.5
        assert band_of("k", "y", bands).rel_tol == 0.1


class TestDiffClassification:
    def test_regression_outside_the_band(self):
        store = seeded({"instr_f1": 0.99}, {"instr_f1": 0.80})
        diff = diff_revisions(store, "aaaa", "bbbb")
        cell = diff["kinds"]["bench-decode"]["metrics"]["instr_f1"]
        assert cell["status"] == "regressed"
        assert cell["delta"] == pytest.approx(-0.19)
        assert diff["summary"]["regressed"] == 1
        assert diff["schema"] == DIFF_SCHEMA

    def test_improvement_along_the_direction(self):
        store = seeded({"speedup": 5.0}, {"speedup": 10.0})
        diff = diff_revisions(store, "aaaa", "bbbb")
        cell = diff["kinds"]["bench-decode"]["metrics"]["speedup"]
        assert cell["status"] == "improved"

    def test_within_noise_is_unchanged(self):
        # speedup has a 20% default band; a 5% wobble is noise.
        store = seeded({"speedup": 10.0}, {"speedup": 10.5})
        diff = diff_revisions(store, "aaaa", "bbbb")
        cell = diff["kinds"]["bench-decode"]["metrics"]["speedup"]
        assert cell["status"] == "unchanged"

    def test_directionless_motion_is_changed_not_failed(self):
        store = seeded({"binaries.total": 10}, {"binaries.total": 20})
        diff = diff_revisions(store, "aaaa", "bbbb")
        cell = diff["kinds"]["bench-decode"]["metrics"]["binaries.total"]
        assert cell["status"] == "changed"
        assert regressions(diff) == []

    def test_added_and_removed_never_regress(self):
        store = seeded({"old_metric_ms": 5.0}, {"new_f1": 0.9})
        diff = diff_revisions(store, "aaaa", "bbbb")
        cells = diff["kinds"]["bench-decode"]["metrics"]
        assert cells["old_metric_ms"]["status"] == "removed"
        assert cells["new_f1"]["status"] == "added"
        assert regressions(diff) == []

    def test_one_sided_kind_is_reported_not_failed(self):
        store = seeded({"speedup": 5.0}, {"speedup": 5.0})
        store.add(RunRecord(git_rev="bbbb", run_id="r0",
                            kind="profile", timestamp="2026-01-02",
                            metrics={"samples.total": 9}))
        diff = diff_revisions(store, "aaaa", "bbbb")
        assert diff["kinds"]["profile"] == {"only_in": "current",
                                            "metrics": {}}
        assert regressions(diff) == []

    def test_kind_filter_restricts_the_diff(self):
        store = seeded({"speedup": 5.0}, {"speedup": 1.0})
        store.add(RunRecord(git_rev="aaaa", run_id="r0", kind="other",
                            timestamp="2026-01-01", metrics={"x": 1}))
        store.add(RunRecord(git_rev="bbbb", run_id="r0", kind="other",
                            timestamp="2026-01-02", metrics={"x": 1}))
        diff = diff_revisions(store, "aaaa", "bbbb", kinds=["other"])
        assert list(diff["kinds"]) == ["other"]

    def test_unknown_revision_is_an_error(self):
        store = seeded({"speedup": 5.0}, {"speedup": 5.0})
        with pytest.raises(StoreError, match="no records"):
            diff_revisions(store, "aaaa", "cccc")

    def test_diff_is_deterministic(self):
        store = seeded({"a_f1": 0.9, "b_ms": 3.0},
                       {"a_f1": 0.5, "b_ms": 9.0})
        first = diff_revisions(store, "aaaa", "bbbb")
        second = diff_revisions(store, "aaaa", "bbbb")
        assert first == second

    def test_regressions_lines_name_kind_and_metric(self):
        store = seeded({"instr_f1": 0.99}, {"instr_f1": 0.50})
        lines = regressions(diff_revisions(store, "aaaa", "bbbb"))
        assert len(lines) == 1
        assert lines[0].startswith("bench-decode:instr_f1:")


class TestNoiseSpec:
    def test_toml_spec_prepends_user_bands(self, tmp_path):
        spec = tmp_path / "noise.toml"
        spec.write_text('[[noise]]\npattern = "bench-*:speedup"\n'
                        'rel_tol = 0.9\n')
        bands = load_noise_spec(spec)
        assert bands[0].pattern == "bench-*:speedup"
        assert bands[-1] == DEFAULT_NOISE[-1]

    def test_json_spec_list_form(self, tmp_path):
        spec = tmp_path / "noise.json"
        spec.write_text('[{"pattern": "k:*", "abs_tol": 5.0, '
                        '"direction": "down"}]')
        band = load_noise_spec(spec)[0]
        assert band.abs_tol == 5.0 and band.direction == "down"

    def test_patternless_entry_is_an_error(self, tmp_path):
        spec = tmp_path / "noise.json"
        spec.write_text('[{"rel_tol": 0.5}]')
        with pytest.raises(StoreError, match="without a pattern"):
            load_noise_spec(spec)

    def test_widened_band_silences_a_regression(self):
        store = seeded({"speedup": 10.0}, {"speedup": 6.0})
        strict = diff_revisions(store, "aaaa", "bbbb")
        assert strict["summary"]["regressed"] == 1
        loose = diff_revisions(
            store, "aaaa", "bbbb",
            noise=(NoiseBand("*:speedup", rel_tol=0.5),) + DEFAULT_NOISE)
        assert loose["summary"]["regressed"] == 0


class TestRendering:
    def test_markdown_report_shape(self):
        store = seeded({"instr_f1": 0.99, "speedup": 8.0},
                       {"instr_f1": 0.50, "speedup": 8.0})
        text = render_markdown(diff_revisions(store, "aaaa", "bbbb"))
        assert text.startswith("# Regression report: `aaaa` → `bbbb`")
        assert "| `instr_f1` |" in text
        assert "regressed" in text
        # Unchanged metrics are elided but counted.
        assert "`speedup`" not in text
        assert "1 unchanged metric(s) elided" in text

    def test_markdown_all_includes_unchanged(self):
        store = seeded({"speedup": 8.0}, {"speedup": 8.0})
        text = render_markdown(diff_revisions(store, "aaaa", "bbbb"),
                               include_unchanged=True)
        assert "| `speedup` |" in text


class TestReportRevision:
    def test_defaults_to_the_predecessor(self):
        store = seeded({"speedup": 8.0}, {"speedup": 2.0})
        diff = report_revision(store, "bbbb")
        assert diff["base_rev"] == "aaaa"
        assert diff["summary"]["regressed"] == 1

    def test_first_revision_reports_against_itself(self):
        store = RunStore()
        store.add(RunRecord(git_rev="aaaa", run_id="r0", kind="k",
                            timestamp="t", metrics={"x": 1}))
        diff = report_revision(store, "aaaa")
        assert diff["base_rev"] == diff["current_rev"] == "aaaa"
        assert diff["summary"]["regressed"] == 0

    def test_explicit_baseline(self):
        store = seeded({"speedup": 8.0}, {"speedup": 8.0})
        store.add(RunRecord(git_rev="cccc", run_id="r0",
                            kind="bench-decode", timestamp="2026-01-03",
                            metrics={"speedup": 2.0}))
        diff = report_revision(store, "cccc", baseline="aaaa")
        assert diff["base_rev"] == "aaaa"
        assert diff["summary"]["regressed"] == 1


class TestFleetTrendGate:
    """The store is the fleet's only cross-revision gate: a fresh trend
    recorded next to the committed baseline must be compared metric by
    metric, and every corrected-tool regression must be named."""

    BASELINE = (Path(__file__).resolve().parents[2] / "benchmarks"
                / "results" / "TREND_fleet.json")

    @pytest.fixture
    def baseline(self):
        return json.loads(self.BASELINE.read_text())

    def gate(self, tmp_path, base_trend, current_trend):
        store = RunStore()
        for rev, trend in (("base", base_trend), ("head", current_trend)):
            path = write_trend(tmp_path / f"{rev}.json", trend)
            store.add(ingest_file(path, git_rev=rev, run_id="r0",
                                  timestamp=rev))
        diff = diff_revisions(store, "base", "head")
        assert "only_in" not in diff["kinds"]["fleet-trend"]
        return diff, regressions(diff)

    def test_same_trend_has_no_regressions(self, tmp_path, baseline):
        diff, problems = self.gate(tmp_path, baseline, baseline)
        assert problems == []
        compared = diff["kinds"]["fleet-trend"]["metrics"]
        assert compared and all(cell["status"] == "unchanged"
                                for cell in compared.values())

    @pytest.mark.parametrize("cls", [cls.value for cls in ALL_CLASSES])
    def test_one_more_corrected_class_error_is_named(self, tmp_path,
                                                     baseline, cls):
        worse = copy.deepcopy(baseline)
        worse["tools"][CORRECTED]["taxonomy"][cls]["errors"] += 1
        _, problems = self.gate(tmp_path, baseline, worse)
        assert len(problems) == 1
        assert problems[0].startswith(
            f"fleet-trend:{CORRECTED}.taxonomy.{cls}.errors:")

    def test_higher_ground_truth_error_rate_is_named(self, tmp_path,
                                                     baseline):
        worse = copy.deepcopy(baseline)
        gt = worse["tools"][CORRECTED]["gt"]
        gt["total_error_rate"] = round(gt["total_error_rate"] * 1.05, 8)
        _, problems = self.gate(tmp_path, baseline, worse)
        assert [p.split(":")[1] for p in problems] == \
            [f"{CORRECTED}.total_error_rate"]

    def test_one_failed_binary_flags_the_failure_rate(self, tmp_path,
                                                      baseline):
        worse = copy.deepcopy(baseline)
        worse["binaries"]["total"] += 1
        worse["binaries"]["failed"] += 1
        worse["failures"].append({"id": "file/x", "error": "boom"})
        _, problems = self.gate(tmp_path, baseline, worse)
        assert any(p.startswith("fleet-trend:binaries.failure_rate:")
                   for p in problems)
