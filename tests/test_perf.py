"""Tests for the bench envelope, plus the perf smoke test."""

import json
import time

import pytest

from repro.perf import (bench_envelope, validate_bench_envelope,
                        write_bench_json)
from repro.synth import BinarySpec, MSVC_LIKE, generate_binary

#: Phases disassemble_rich must always report, in pipeline order.
PIPELINE_PHASES = ("superset", "behavior", "scoring", "tables",
                   "correction", "gaps", "functions")

#: Generous wall-clock bound for disassembling a mid-size binary; the
#: real cost is well under a tenth of this on any modern machine, so a
#: failure means a genuine performance regression, not a slow runner.
SMOKE_BUDGET_SECONDS = 90.0


class TestBenchJson:
    def test_write_bench_json_round_trips(self, tmp_path):
        payload = bench_envelope("unit-test", metrics={"x": 1.5})
        path = write_bench_json(tmp_path / "sub" / "BENCH_test.json",
                                payload)
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == "repro-bench-v1"
        assert loaded["tool"] == "unit-test"
        assert loaded["metrics"] == {"x": 1.5}
        assert loaded["cpu_count"] >= 1


class TestBenchEnvelope:
    def test_envelope_shape_and_environment_stamp(self):
        doc = bench_envelope("decode", config={"sections": 4},
                             metrics={"speedup": 8.0})
        assert doc["schema"] == "repro-bench-v1"
        assert doc["tool"] == "decode"
        assert doc["config"] == {"sections": 4}
        assert doc["metrics"] == {"speedup": 8.0}
        assert doc["cpu_count"] >= 1 and "python" in doc

    def test_valid_envelope_round_trips_validation(self, tmp_path):
        doc = bench_envelope("obs", config={"repeats": 3},
                             metrics={"seconds": {"off": 1.0},
                                      "overhead_pct": 1.5})
        path = write_bench_json(tmp_path / "BENCH_obs.json", doc)
        assert validate_bench_envelope(
            json.loads(path.read_text())) == []

    @pytest.mark.parametrize("breakage, fragment", [
        ({"schema": "repro-bench-v0"}, "schema"),
        ({"tool": ""}, "tool"),
        ({"config": None}, "config"),
        ({"metrics": [1, 2]}, "metrics"),
        ({"metrics": {"name": "fast"}}, "numeric"),
        ({"metrics": {"ok": True}}, "numeric"),
        ({"metrics": {"nested": {"flag": "x"}}}, "numeric"),
    ])
    def test_validation_names_each_defect(self, breakage, fragment):
        doc = bench_envelope("decode", metrics={"speedup": 8.0})
        doc.update(breakage)
        problems = validate_bench_envelope(doc)
        assert problems, breakage
        assert any(fragment in problem for problem in problems)

    def test_every_bench_script_payload_validates(self):
        # One representative payload per migrated bench_*.py script;
        # keeps the scripts and the validator from drifting apart.
        shapes = {
            "decode": {"seconds": 1.2, "speedup": 8.0,
                       "superset_identical": 1},
            "correct": {"ms_per_binary": 50.0,
                        "mean_reused_fraction": 0.9, "speedup": 3.5},
            "fleet": {"throughput": 2.0, "seconds": 4.5},
            "serve": {"cold_rps": 10.0,
                      "cold": {"p50_ms": 5.0, "p99_ms": 9.0},
                      "hit_speedup": 20.0},
            "formats": {"results": {"elf": {"bytes": 100}},
                        "elf_over_rprb_ratio": 1.2},
            "obs": {"seconds": {"control": 1.0, "off": 1.01},
                    "off_overhead_pct": 1.0, "spans_disabled": 0,
                    "samples_disabled": 0},
            "experiments": {"experiments": {"t2": {"f1": 0.99}},
                            "total_s": 12.0},
        }
        for tool, metrics in shapes.items():
            doc = bench_envelope(tool, config={"n": 1},
                                 metrics=metrics)
            assert validate_bench_envelope(doc) == [], tool


class TestPerfSmoke:
    def test_midsize_binary_within_budget_with_full_phase_report(
            self, disassembler):
        case = generate_binary(BinarySpec(name="perf-smoke",
                                          style=MSVC_LIKE,
                                          function_count=30, seed=11))
        started = time.perf_counter()
        rich = disassembler.disassemble_rich(case)
        elapsed = time.perf_counter() - started

        assert elapsed < SMOKE_BUDGET_SECONDS, (
            f"disassembly took {elapsed:.1f}s -- performance regression")
        assert list(rich.timings) == list(PIPELINE_PHASES)
        assert all(seconds >= 0.0 for seconds in rich.timings.values())
        assert sum(rich.timings.values()) <= elapsed

    def test_disassembly_intermediates_still_exposed(self, disassembler,
                                                     msvc_case):
        rich = disassembler.disassemble_rich(msvc_case)
        assert isinstance(rich.resolved_tables, list)
        assert rich.result.instructions
