"""Tests of the pipeline benchmark's own code.

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline -q``.
The workload smoke tests call the runners in this process on
6-function binaries, so they check the harness, not the timings.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

import layers
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="module", autouse=True)
def model_cache(tmp_path_factory):
    """Keep the trained-model cache out of the home directory."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR",
                     str(tmp_path_factory.mktemp("model-cache")))
        yield


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to 6-function binaries and one fleet seed."""
    for name in workloads.WORKLOADS:
        monkeypatch.setitem(workloads.FUNCTIONS, name, 6)
    monkeypatch.setattr(workloads, "FLEET_SEEDS", 1)


def _args(workload: str, trace: int, tmp_path: Path) -> argparse.Namespace:
    return argparse.Namespace(
        workload=workload, seed=0, seconds=0.0, trace=trace,
        out=str(tmp_path / "out.json"),
        spans=str(tmp_path / "spans.jsonl") if trace else None,
        workdir=str(tmp_path))


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 500) == 50
    assert run.percentile(values, 900) == 90
    assert run.percentile([7.0], 990) == 7.0
    assert run.percentile([3, 1, 2], 500) == 2


@pytest.mark.parametrize("count, expected", [
    (9, None), (39, None), (40, 750), (99, 750), (100, 900), (199, 900),
    (200, 950), (1000, 990), (10000, 999)])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert run.tail_per_mille(count) == expected
    if expected is not None:
        rank = -(-expected * count // 1000)
        assert count - rank >= 10


def test_p90_withheld_below_100_samples():
    result = {"latencies_ms": [float(i) for i in range(99)],
              "text_bytes": 1024, "timed_s": 1.0, "peak_rss_mb": 1.0,
              "error_bytes": 0, "scored_bytes": 10,
              "census_error_bytes": 0, "census_ops": 6, "failed": 0,
              "attempted": 99}
    metrics = run.end_to_end(result, 1.0)
    assert "latency_p90_ms" not in metrics
    assert metrics["latency_p75_ms"] == 74.0
    assert metrics["latency_p50_ms"] == 49.0
    result["latencies_ms"].append(99.0)
    result["attempted"] = 100
    assert run.end_to_end(result, 1.0)["latency_p90_ms"] == 89.0


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------

def _span(span_id, parent, name, start, end, op=1, census=True, **counts):
    attrs = {"op": op, **counts}
    if parent is None:
        attrs["census"] = census
    return {"schema": layers.SPAN_SCHEMA, "trace_id": "t",
            "span_id": span_id, "parent_id": parent, "name": name,
            "start_us": start, "dur_us": end - start, "pid": 1,
            "attrs": attrs}


def test_self_time_subtracts_the_union_of_children():
    spans = [_span("r", None, "top", 0, 100),
             _span("a", "r", "x", 10, 40),
             _span("b", "r", "y", 30, 60),       # overlaps a
             _span("g", "a", "z", 15, 20),
             _span("c", "r", "y", 90, 120)]      # runs past the parent
    selfs = layers.self_times(spans)
    assert selfs == {"r": 100 - 50 - 10, "a": 25, "b": 30, "g": 5,
                     "c": 30}


def test_layer_metrics_take_median_self_time_and_census_counts():
    spans = [_span("r1", None, "core.disassembler", 0, 10_000, op=1),
             _span("s1", "r1", "superset", 0, 4_000, op=1, lookups=1,
                   hits=0, offsets=100),
             _span("r2", None, "core.disassembler", 20_000, 26_000, op=2),
             _span("s2", "r2", "superset", 20_000, 22_000, op=2,
                   lookups=1, hits=1, offsets=0),
             _span("r3", None, "core.disassembler", 30_000, 38_000, op=3,
                   census=False),
             _span("s3", "r3", "superset", 30_000, 33_000, op=3,
                   lookups=1, hits=0, offsets=100)]
    metrics = layers.layer_metrics(spans)
    assert metrics["superset.self_ms"] == 3.0
    assert metrics["core.disassembler.self_ms"] == 5.0
    assert metrics["superset.offsets"] == 100
    assert metrics["superset.cache_hit_ratio"] == 0.5
    assert layers.coverage(spans) == pytest.approx([0.4, 1 / 3, 0.375])


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------

def _originals():
    return {entry.label: vars(layers._owner(entry))[entry.attr]
            for entry in layers.ENTRIES}


def test_wrappers_are_restored_after_a_traced_op():
    from repro.core import Disassembler
    from repro.synth.corpus import BinarySpec, generate_binary
    before = _originals()
    recorder = layers.SpanRecorder()
    case = generate_binary(BinarySpec(name="t", function_count=6, seed=1))
    disassembler = Disassembler()
    with layers.Wrapped(recorder):
        assert all(vars(layers._owner(entry))[entry.attr]
                   is not before[entry.label] for entry in layers.ENTRIES)
        disassembler.disassemble_rich(case)
    traced = len(recorder.spans)
    assert traced > 0
    assert _originals() == before
    disassembler.disassemble_rich(case)
    assert len(recorder.spans) == traced


def test_a_vanished_entry_point_fails_loudly_and_restores_the_rest():
    before = _originals()
    gone = layers.Entry("superset", "repro.core.disassembler",
                        "no_such_function", layers.EVERY)
    with pytest.raises(layers.LayerError, match="no_such_function"):
        with layers.Wrapped(layers.SpanRecorder(),
                            layers.ENTRIES + (gone,)):
            pass
    assert _originals() == before


def test_an_entry_point_that_never_runs_fails_loudly():
    recorder = layers.SpanRecorder()
    with pytest.raises(layers.LayerError, match="never ran"):
        recorder.check_fired("fleet-triage")


def test_every_entry_names_known_workloads():
    for entry in layers.ENTRIES:
        assert entry.workloads <= set(workloads.WORKLOADS), entry.label


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------

def test_benchmark_json_matches_what_the_runner_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert spec["paths"] == ["benchmarks/pipeline"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_missing_program_exits_nonzero_without_a_result(tmp_path, capsys):
    assert run.main(["--src", str(tmp_path), "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_final_line_has_the_contract_keys():
    results = {"cold-mixed": {"attempted": 4, "failed": 1}}
    metrics = {"cold-mixed": {name: 1.5 for name, _ in run.END_TO_END}}
    line = run.final_line(results, metrics, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}


# ----------------------------------------------------------------------
# Tiny-input smoke runs of each workload runner
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_runner_smoke(workload, tiny, tmp_path):
    result = workloads.run_workload(_args(workload, 0, tmp_path))
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 1
    assert len(result["latencies_ms"]) == result["attempted"]
    assert result["text_bytes"] > 0 and result["timed_s"] > 0
    assert result["traced_latencies_ms"] == []
    metrics = run.end_to_end(result, 1.0)
    assert all(metrics[name] > 0 for name, _ in run.END_TO_END)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runner_fires_every_layer(workload, tiny, tmp_path):
    args = _args(workload, 1, tmp_path)
    result = workloads.run_workload(args)    # raises if a layer is silent
    assert result["failed"] == 0, result["failures"]
    assert result["traced_latencies_ms"] and result["latencies_ms"]
    spans = run.load_spans(Path(args.spans))
    metrics = run.per_layer(result, spans)
    for name, _ in run.PER_LAYER:
        assert name in metrics, name
    for entry in layers.ENTRIES:
        if workload in entry.workloads:
            assert layers.time_metric(entry.layer) in metrics
