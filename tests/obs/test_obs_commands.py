"""End-to-end tests for the ``repro obs`` CLI family.

The scenario mirrors CI: artifacts from two revisions of a mini fleet
run land in one store via ``obs record``, then ``obs diff`` trends
across them, ``obs gate`` enforces an SLO spec, and an injected
regression must flip both to a non-zero exit.
"""

import json

import pytest

from repro.cli import main

REV_A = "aaaa111122223333"
REV_B = "bbbb444455556666"


def trend_doc(f1=0.995, failed=0):
    return {
        "schema": "repro-fleet-trend-v1",
        "binaries": {"total": 6, "ok": 6 - failed, "failed": failed},
        "tools": {"corrected": {
            "gt": {"binaries": 6 - failed, "instr_f1": f1,
                   "false_code_rate": 0.001,
                   "missed_code_rate": 0.002,
                   "total_error_rate": round(1 - f1, 6)},
            "taxonomy": {"data-in-text": {"errors": 2}},
        }},
        "styles": {},
    }


def bench_doc(speedup=8.0):
    return {"schema": "repro-bench-v1", "tool": "decode",
            "config": {"seeds": 2},
            "metrics": {"speedup": speedup, "seconds": 0.25}}


@pytest.fixture
def recorded(tmp_path):
    """A store holding two revisions of trend + bench artifacts."""
    store = tmp_path / "obs.sqlite"

    def record(rev, stamp, docs):
        paths = []
        for name, doc in docs.items():
            path = tmp_path / rev / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        code = main(["obs", "record", "--store", str(store),
                     "--rev", rev, "--timestamp", stamp, *paths])
        assert code == 0
        return paths

    record(REV_A, "2026-01-01T00:00:00+00:00",
           {"trend.json": trend_doc(), "BENCH_decode.json": bench_doc()})
    record(REV_B, "2026-01-02T00:00:00+00:00",
           {"trend.json": trend_doc(), "BENCH_decode.json": bench_doc()})
    return store


class TestRecord:
    def test_reports_kind_and_metric_count(self, tmp_path, capsys):
        artifact = tmp_path / "trend.json"
        artifact.write_text(json.dumps(trend_doc()))
        code = main(["obs", "record", "--store",
                     str(tmp_path / "s.sqlite"), "--rev", REV_A,
                     "--timestamp", "t", str(artifact)])
        assert code == 0
        out = capsys.readouterr().out
        assert "recorded fleet-trend" in out
        assert f"for {REV_A} run r0" in out

    def test_rerecording_is_idempotent(self, recorded, tmp_path,
                                       capsys):
        artifact = tmp_path / REV_A / "trend.json"
        code = main(["obs", "record", "--store", str(recorded),
                     "--rev", REV_A,
                     "--timestamp", "2026-01-01T00:00:00+00:00",
                     str(artifact)])
        assert code == 0
        assert "already recorded" in capsys.readouterr().out

    def test_unrecognized_artifact_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text('{"schema": "mystery-v9"}')
        code = main(["obs", "record", "--store",
                     str(tmp_path / "s.sqlite"), "--rev", REV_A,
                     "--timestamp", "t", str(junk)])
        assert code == 2
        assert "unrecognized" in capsys.readouterr().err


class TestQuery:
    def test_text_listing(self, recorded, capsys):
        assert main(["obs", "query", "--store", str(recorded)]) == 0
        out = capsys.readouterr().out
        assert out.count("fleet-trend") == 2
        assert out.count("bench-decode") == 2

    def test_json_filtered_by_kind(self, recorded, capsys):
        assert main(["obs", "query", "--store", str(recorded),
                     "--kind", "bench-decode", "--format",
                     "json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [doc["kind"] for doc in docs] == ["bench-decode"] * 2


class TestDiff:
    def test_clean_diff_exits_zero(self, recorded, capsys):
        code = main(["obs", "diff", "--store", str(recorded),
                     REV_A, REV_B])
        captured = capsys.readouterr()
        assert code == 0
        assert "0 regressed" in captured.out
        assert captured.err == ""

    def test_diff_is_deterministic(self, recorded, capsys):
        main(["obs", "diff", "--store", str(recorded), REV_A, REV_B,
              "--format", "json"])
        first = capsys.readouterr().out
        main(["obs", "diff", "--store", str(recorded), REV_A, REV_B,
              "--format", "json"])
        assert capsys.readouterr().out == first

    def test_prefix_revisions_resolve(self, recorded, capsys):
        assert main(["obs", "diff", "--store", str(recorded),
                     "aaaa", "bbbb"]) == 0
        assert REV_A in capsys.readouterr().out

    def test_injected_regression_flips_the_exit_code(self, recorded,
                                                     tmp_path, capsys):
        bad = tmp_path / "bad-trend.json"
        bad.write_text(json.dumps(trend_doc(f1=0.80, failed=2)))
        assert main(["obs", "record", "--store", str(recorded),
                     "--rev", "cccc7777", "--timestamp",
                     "2026-01-03T00:00:00+00:00", str(bad)]) == 0
        capsys.readouterr()
        code = main(["obs", "diff", "--store", str(recorded),
                     REV_B, "cccc7777"])
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSION: fleet-trend:corrected.instr_f1" \
            in captured.err

    def test_markdown_format(self, recorded, capsys):
        assert main(["obs", "diff", "--store", str(recorded),
                     REV_A, REV_B, "--format", "markdown",
                     "--all"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Regression report")
        assert "| `speedup` |" in out

    def test_unknown_revision_exits_2(self, recorded, capsys):
        assert main(["obs", "diff", "--store", str(recorded),
                     REV_A, "feedbeef"]) == 2
        assert "no records" in capsys.readouterr().err


class TestGitRevResolution:
    def test_head_resolves_to_a_recorded_full_hash(self, tmp_path,
                                                   capsys):
        # CI records under $GITHUB_SHA and diffs HEAD against itself
        # as the bootstrap smoke check.
        import subprocess
        try:
            probe = subprocess.run(["git", "rev-parse", "HEAD"],
                                   capture_output=True, text=True)
        except OSError as error:
            pytest.skip(f"git rev-parse HEAD cannot run: {error}")
        if probe.returncode != 0:
            pytest.skip("git rev-parse HEAD failed: not a git checkout")
        head = probe.stdout.strip()
        store = tmp_path / "s.sqlite"
        artifact = tmp_path / "BENCH_decode.json"
        artifact.write_text(json.dumps(bench_doc()))
        assert main(["obs", "record", "--store", str(store),
                     "--rev", head, "--timestamp", "t",
                     str(artifact)]) == 0
        assert main(["obs", "diff", "--store", str(store),
                     "HEAD", "HEAD"]) == 0
        assert "0 regressed" in capsys.readouterr().out


class TestReport:
    def test_report_defaults_to_newest_vs_predecessor(self, recorded,
                                                      capsys):
        assert main(["obs", "report", "--store", str(recorded)]) == 0
        out = capsys.readouterr().out
        assert f"`{REV_A}` → `{REV_B}`" in out

    def test_report_to_file(self, recorded, tmp_path):
        out = tmp_path / "report.md"
        assert main(["obs", "report", "--store", str(recorded),
                     "--output", str(out)]) == 0
        assert out.read_text().startswith("# Regression report")


class TestGate:
    def spec(self, tmp_path, f1_floor=0.99):
        path = tmp_path / "slo.toml"
        path.write_text(
            '[[slo]]\nname = "fleet-f1"\nkind = "fleet-trend"\n'
            f'metric = "corrected.instr_f1"\nmin = {f1_floor}\n'
            'window = 2\n\n'
            '[[slo]]\nname = "decode-speedup"\n'
            'kind = "bench-decode"\nmetric = "speedup"\nmin = 2.0\n')
        return str(path)

    def test_healthy_store_passes(self, recorded, tmp_path, capsys):
        code = main(["obs", "gate", "--store", str(recorded),
                     "--spec", self.spec(tmp_path)])
        assert code == 0
        assert "gate: PASS (2/2 objectives ok)" in \
            capsys.readouterr().out

    def test_violation_exits_nonzero(self, recorded, tmp_path,
                                     capsys):
        code = main(["obs", "gate", "--store", str(recorded),
                     "--spec", self.spec(tmp_path, f1_floor=0.999)])
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "gate: FAIL" in out

    def test_missing_data_fails_the_gate(self, tmp_path, capsys):
        code = main(["obs", "gate", "--store",
                     str(tmp_path / "empty.sqlite"),
                     "--spec", self.spec(tmp_path)])
        assert code == 1
        assert "NO DATA" in capsys.readouterr().out

    def test_malformed_spec_exits_2(self, recorded, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('[[slo]]\nname = "x"\n')
        assert main(["obs", "gate", "--store", str(recorded),
                     "--spec", str(bad)]) == 2


class TestInterchange:
    def test_export_import_round_trip(self, recorded, tmp_path,
                                      capsys):
        dump = tmp_path / "records.jsonl"
        assert main(["obs", "export", "--store", str(recorded),
                     str(dump)]) == 0
        assert "exported 4 record(s)" in capsys.readouterr().out
        other = tmp_path / "other.sqlite"
        assert main(["obs", "import", "--store", str(other),
                     str(dump)]) == 0
        assert "imported 4 new record(s)" in capsys.readouterr().out
        assert main(["obs", "diff", "--store", str(other),
                     REV_A, REV_B]) == 0


class TestFlame:
    PROFILE = {"schema": "repro-profile-v1", "interval_ms": 5.0,
               "samples": 7,
               "phases": {"superset": 5, "(no phase)": 2},
               "stacks": {"repro.cli:main;repro.core:run": 5,
                          "repro.cli:main": 2}}

    def test_flame_from_profile_file(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(self.PROFILE))
        assert main(["obs", "flame", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "repro.cli:main;repro.core:run 5" in lines
        assert "repro.cli:main 2" in lines

    def test_flame_from_the_store(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(self.PROFILE))
        store = tmp_path / "s.sqlite"
        assert main(["obs", "record", "--store", str(store),
                     "--rev", REV_A, "--timestamp", "t",
                     str(path)]) == 0
        capsys.readouterr()
        assert main(["obs", "flame", "--store", str(store)]) == 0
        assert "repro.cli:main;repro.core:run 5" in \
            capsys.readouterr().out

    def test_flame_on_non_profile_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(bench_doc()))
        assert main(["obs", "flame", str(path)]) == 2

    def test_flame_on_empty_store_exits_2(self, tmp_path, capsys):
        assert main(["obs", "flame", "--store",
                     str(tmp_path / "empty.sqlite")]) == 2
