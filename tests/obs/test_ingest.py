"""Tests for artifact ingestion (repro.obs.ingest)."""

import json

import pytest

from repro.obs.ingest import (IngestError, flatten_access_log,
                              flatten_bench, flatten_numeric,
                              flatten_profile, flatten_trace,
                              flatten_trend, ingest_file)
from repro.obs.metrics import MetricsRegistry

TREND = {
    "schema": "repro-fleet-trend-v1",
    "binaries": {"total": 10, "ok": 9, "failed": 1},
    "tools": {
        "corrected": {
            "gt": {"binaries": 9, "instr_f1": 0.995,
                   "false_code_rate": 0.001, "missed_code_rate": 0.002,
                   "total_error_rate": 0.003},
            "taxonomy": {"data-in-text": {"errors": 4}},
        },
        "linear": {"gt": {"binaries": 0}},   # no scored binaries
    },
    "styles": {
        "msvc-like": {"tools": {"corrected": {
            "gt": {"binaries": 3, "instr_f1": 0.99,
                   "total_error_rate": 0.004}}}},
    },
    "separation": {"linear": {"instr_f1": {"holds": True}}},
}


class TestFlattenNumeric:
    def test_nested_dicts_get_dotted_names(self):
        flat = flatten_numeric({"a": {"b": 1, "c": {"d": 2.5}}, "e": 3})
        assert flat == {"a.b": 1, "a.c.d": 2.5, "e": 3}

    def test_non_numeric_leaves_are_dropped(self):
        flat = flatten_numeric({"name": "decode", "n": 1,
                                "xs": [1, 2, 3]})
        assert flat == {"n": 1}

    def test_bools_become_floats(self):
        assert flatten_numeric({"ok": True}) == {"ok": 1.0}


class TestFlattenTrend:
    def test_headline_metrics_present(self):
        flat = flatten_trend(TREND)
        assert flat["binaries.failure_rate"] == pytest.approx(0.1)
        assert flat["corrected.instr_f1"] == 0.995
        assert flat["corrected.taxonomy.data-in-text.errors"] == 4
        assert flat["style.msvc-like.instr_f1"] == 0.99
        assert flat["separation.linear.instr_f1.holds"] == 1.0

    def test_unscored_tools_are_skipped(self):
        assert not any(name.startswith("linear.")
                       for name in flatten_trend(TREND))


class TestFlattenBench:
    def test_envelope_metrics_are_flattened_under_tool_kind(self):
        kind, flat = flatten_bench({
            "schema": "repro-bench-v1", "tool": "decode",
            "config": {"sections": 4},
            "metrics": {"speedup": 8.0, "seconds": {"warm": 0.5}}})
        assert kind == "bench-decode"
        assert flat == {"speedup": 8.0, "seconds.warm": 0.5}
        # Config is context, not a trended measurement.
        assert "sections" not in flat

    def test_pre_envelope_payload_is_rejected_with_its_problems(self):
        with pytest.raises(IngestError) as caught:
            flatten_bench({
                "kind": "fleet", "python": "3.11", "cpu_count": 8,
                "throughput": 2.5, "trend": {"binaries": {"total": 9}}})
        message = str(caught.value)
        assert "repro-bench-v1" in message
        for problem in ("schema", "'tool'", "'config'", "'metrics'"):
            assert problem in message

    def test_toolless_payload_is_an_error(self):
        with pytest.raises(IngestError, match="tool"):
            flatten_bench({"speedup": 8.0})


class TestFlattenAccessLog:
    LINES = [
        {"endpoint": "/disassemble", "status": 200, "latency_ms": 10.0},
        {"endpoint": "/disassemble", "status": 500, "latency_ms": 30.0},
        {"endpoint": "/healthz", "status": 200, "latency_ms": 1.0},
        {"event": "drain-complete"},          # lifecycle line: skipped
    ]

    def test_per_endpoint_and_rollup(self):
        flat = flatten_access_log(self.LINES)
        assert flat["disassemble.requests"] == 2
        assert flat["disassemble.error_rate"] == 0.5
        assert flat["disassemble.p99_ms"] == 30.0
        assert flat["all.requests"] == 3
        assert flat["all.error_rate"] == pytest.approx(1 / 3)

    def test_request_free_log_is_an_error(self):
        with pytest.raises(IngestError, match="no request lines"):
            flatten_access_log([{"event": "drain-complete"}])


class TestFlattenTrace:
    def test_self_time_subtracts_children(self):
        spans = [
            {"schema": "repro-trace-v1", "name": "disasm",
             "span_id": "s1", "parent_id": None, "dur_us": 1_000_000},
            {"schema": "repro-trace-v1", "name": "superset",
             "span_id": "s2", "parent_id": "s1", "dur_us": 600_000},
        ]
        flat = flatten_trace(spans)
        assert flat["span.disasm.total_s"] == 1.0
        assert flat["span.disasm.self_s"] == pytest.approx(0.4)
        assert flat["span.superset.self_s"] == pytest.approx(0.6)
        assert flat["span.superset.count"] == 1

    def test_self_time_clamps_at_zero(self):
        spans = [
            {"name": "parent", "span_id": "s1", "parent_id": None,
             "dur_us": 100},
            {"name": "child", "span_id": "s2", "parent_id": "s1",
             "dur_us": 500},    # async child outlives the parent
        ]
        assert flatten_trace(spans)["span.parent.self_s"] == 0.0

    def test_empty_trace_is_an_error(self):
        with pytest.raises(IngestError, match="no spans"):
            flatten_trace([])


class TestFlattenProfile:
    def test_phase_fractions(self):
        flat = flatten_profile({"samples": 10,
                                "phases": {"superset": 6,
                                           "(no phase)": 4}})
        assert flat["samples.total"] == 10
        assert flat["phase.superset.self_fraction"] == 0.6

    def test_zero_samples_yields_no_fractions(self):
        assert flatten_profile({"samples": 0, "phases": {}}) == \
            {"samples.total": 0}


class TestIngestFile:
    def ingest(self, tmp_path, name, content):
        path = tmp_path / name
        if isinstance(content, str):
            path.write_text(content)
        else:
            path.write_text(json.dumps(content))
        return ingest_file(path, git_rev="aaaa", run_id="r0",
                           timestamp="2026-01-01")

    def test_detects_fleet_trend(self, tmp_path):
        rec = self.ingest(tmp_path, "trend.json", TREND)
        assert rec.kind == "fleet-trend"
        assert rec.meta["source"] == "trend.json"

    def test_detects_bench_envelope(self, tmp_path):
        rec = self.ingest(tmp_path, "BENCH_decode.json", {
            "schema": "repro-bench-v1", "tool": "decode",
            "config": {}, "metrics": {"speedup": 8.0}})
        assert rec.kind == "bench-decode"
        assert rec.metrics == {"speedup": 8.0}

    def test_detects_profile_and_keeps_stacks_in_meta(self, tmp_path):
        rec = self.ingest(tmp_path, "profile.json", {
            "schema": "repro-profile-v1", "interval_ms": 5.0,
            "samples": 4, "phases": {"superset": 4},
            "stacks": {"m:f;m:g": 4}})
        assert rec.kind == "profile"
        assert rec.metrics["phase.superset.self_fraction"] == 1.0
        assert rec.meta["stacks"] == {"m:f;m:g": 4}

    def test_detects_metrics_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_traces_total").inc(3, outcome="kept")
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        rec = self.ingest(tmp_path, "metrics.json",
                          registry.snapshot())
        assert rec.kind == "metrics-snapshot"
        assert rec.metrics['repro_traces_total{outcome="kept"}'] == 3
        assert rec.metrics["h_seconds.count"] == 1

    def test_detects_access_log_jsonl(self, tmp_path):
        lines = "\n".join(json.dumps(line)
                          for line in TestFlattenAccessLog.LINES)
        rec = self.ingest(tmp_path, "access.jsonl", lines)
        assert rec.kind == "serve-access"
        assert rec.metrics["all.requests"] == 3

    def test_detects_trace_jsonl(self, tmp_path):
        lines = "\n".join(json.dumps(
            {"schema": "repro-trace-v1", "name": "d",
             "span_id": f"s{index}", "parent_id": None, "dur_us": 10})
            for index in range(2))
        rec = self.ingest(tmp_path, "trace.jsonl", lines)
        assert rec.kind == "trace-rollup"

    def test_kind_override_wins(self, tmp_path):
        path = tmp_path / "trend.json"
        path.write_text(json.dumps(TREND))
        rec = ingest_file(path, git_rev="aaaa", run_id="r0",
                          timestamp="t", kind="nightly-trend")
        assert rec.kind == "nightly-trend"

    def test_unrecognized_json_is_an_error(self, tmp_path):
        with pytest.raises(IngestError, match="unrecognized JSON"):
            self.ingest(tmp_path, "junk.json", {"schema": "mystery-v9"})

    def test_unrecognized_jsonl_is_an_error(self, tmp_path):
        with pytest.raises(IngestError, match="unrecognized JSONL"):
            self.ingest(tmp_path, "junk.jsonl",
                        '{"x": 1}\n{"x": 2}')

    def test_empty_file_is_an_error(self, tmp_path):
        with pytest.raises(IngestError, match="empty"):
            self.ingest(tmp_path, "empty.json", "")
