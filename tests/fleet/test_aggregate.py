"""Aggregation: determinism, taxonomy pooling, separation, metrics."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.fleet import (ALL_CLASSES, CORRECTED, aggregate,
                         check_separation, publish_metrics,
                         render_report, trend_json)
from repro.fleet.aggregate import TREND_SCHEMA
from repro.fleet.schema import validate_document
from repro.obs.metrics import MetricsRegistry

TREND_BASELINE = (Path(__file__).resolve().parents[2] / "benchmarks"
                  / "results" / "TREND_fleet.json")


@pytest.fixture(scope="module")
def trend(small_reports):
    return aggregate(small_reports)


def test_trend_shape_validates(trend):
    summary = validate_document(trend)
    assert summary == {"kind": "trend", "binaries": 4, "failed": 0}
    assert trend["schema"] == TREND_SCHEMA


def test_aggregation_is_order_independent(small_reports, trend):
    shuffled = list(small_reports)
    random.Random(42).shuffle(shuffled)
    assert trend_json(aggregate(shuffled)) == trend_json(trend)


def test_duplicate_reports_rejected(small_reports):
    with pytest.raises(ValueError, match="duplicate"):
        aggregate(small_reports + [small_reports[0]])


def test_failed_reports_become_failures(small_reports):
    broken = {"schema": small_reports[0]["schema"], "id": "file/x",
              "status": "failed", "error": "boom", "style": "file"}
    trend = aggregate(small_reports + [broken])
    assert trend["binaries"] == {"total": 5, "ok": 4, "failed": 1}
    assert trend["failures"] == [{"id": "file/x", "error": "boom"}]
    validate_document(trend)


def test_taxonomy_pools_every_class_for_every_tool(trend):
    for per_tool in trend["tools"].values():
        assert set(per_tool["taxonomy"]) == \
            {cls.value for cls in ALL_CLASSES}
        for bucket in per_tool["taxonomy"].values():
            assert 0 <= bucket["errors"] <= bucket["diagnostics"]


def test_gt_rates_are_derived_and_rounded(trend):
    gt = trend["tools"][CORRECTED]["gt"]
    assert gt["scored_bytes"] == gt["code_bytes"] + gt["data_bytes"]
    expected = (gt["false_code"] + gt["missed_code"]) / gt["scored_bytes"]
    assert gt["total_error_rate"] == round(expected, 8)
    assert 0.0 <= gt["instr_f1"] <= 1.0


def test_separation_holds_on_the_small_corpus(trend):
    assert check_separation(trend) == []
    for axes in trend["separation"].values():
        for cell in axes.values():
            assert cell["holds"] is True
            assert cell["corrected"] < cell["baseline"]


def test_separation_reported_when_broken(trend):
    import copy
    broken = copy.deepcopy(trend)
    cell = broken["separation"]["linear-sweep"]["false-code"]
    cell["holds"] = False
    problems = check_separation(broken)
    assert any("linear-sweep" in p and "false-code" in p
               for p in problems)


def test_committed_trend_baseline_is_canonical():
    # The accuracy baseline `repro obs diff` compares every fresh fleet
    # trend against: schema-valid and in canonical trend_json bytes,
    # so a re-run of the CI grid reproduces it byte for byte.
    text = TREND_BASELINE.read_text()
    trend = json.loads(text)
    assert validate_document(trend)["kind"] == "trend"
    assert trend_json(trend) == text


def test_publish_metrics_exports_fleet_series(trend):
    registry = MetricsRegistry()
    publish_metrics(trend, registry)
    rendered = registry.render_prometheus()
    assert 'repro_fleet_binaries_total{status="ok"} 4' in rendered
    assert "repro_fleet_taxonomy_errors_total" in rendered
    assert "repro_fleet_gt_error_bytes_total" in rendered
    assert 'repro_fleet_separation_ok{' in rendered


class TestOrderInvarianceProperty:
    """Hypothesis: aggregation is invariant under any reordering --
    the property that makes shard size, worker count, and
    resume-after-kill invisible in the trend bytes."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(permutation=st.permutations(range(4)),
           failures=st.lists(
               st.tuples(st.text(min_size=1, max_size=8,
                                 alphabet="abcdef"),
                         st.text(min_size=1, max_size=12)),
               max_size=3, unique_by=lambda f: f[0]))
    @settings(max_examples=25, deadline=None)
    def test_any_schedule_yields_identical_bytes(self, small_reports,
                                                 permutation, failures):
        synthetic = [{"schema": small_reports[0]["schema"],
                      "id": f"file/{name}", "status": "failed",
                      "error": error, "style": "file"}
                     for name, error in failures]
        canonical = trend_json(aggregate(small_reports + synthetic))
        shuffled = [small_reports[i] for i in permutation] + synthetic
        shuffled.reverse()
        assert trend_json(aggregate(shuffled)) == canonical


def test_render_report_is_human_readable(trend):
    text = render_report(trend)
    assert "fleet: 4/4 binaries ok" in text
    assert "false-code" in text
    assert "separation vs linear-sweep" in text
