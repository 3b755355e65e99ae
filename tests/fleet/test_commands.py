"""CLI-level tests: evalfleet plan/run/resume/report and the
`repro generate` manifest round trip."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.fleet import Manifest
from repro.fleet.schema import validate_file


@pytest.fixture(scope="module")
def plan_path(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fleet-cli")
    path = directory / "manifest.json"
    code = main(["evalfleet", "plan", str(path), "--style", "msvc-like",
                 "--functions", "4", "--seed-range", "0:2"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def finished_run(plan_path, models, tmp_path_factory):
    rundir = tmp_path_factory.mktemp("fleet-cli-run")
    code = main(["evalfleet", "run", str(plan_path),
                 "--rundir", str(rundir), "--shard-size", "1",
                 "--check-separation"])
    assert code == 0
    return rundir


class TestPlan:
    def test_writes_a_valid_manifest(self, plan_path, capsys):
        assert validate_file(plan_path)["kind"] == "manifest"
        assert len(Manifest.load(plan_path)) == 2

    def test_default_grid_covers_all_styles(self, tmp_path, capsys):
        path = tmp_path / "all.json"
        assert main(["evalfleet", "plan", str(path),
                     "--seed-range", "0:1"]) == 0
        styles = {item.style for item in Manifest.load(path)}
        assert styles == {"msvc-like", "gcc-like", "clang-like"}

    def test_limit(self, tmp_path, capsys):
        path = tmp_path / "lim.json"
        assert main(["evalfleet", "plan", str(path), "--limit", "3"]) == 0
        assert len(Manifest.load(path)) == 3

    def test_negative_limit_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        assert main(["evalfleet", "plan", str(path), "--functions", "6",
                     "--seed-range", "0:2", "--limit", "-1"]) == 2
        assert not path.exists()
        err = capsys.readouterr().err
        assert err == "evalfleet plan: limit must be >= 0, not -1\n"

    def test_bad_seed_range_is_a_usage_error(self, tmp_path, capsys):
        assert main(["evalfleet", "plan", str(tmp_path / "x.json"),
                     "--seed-range", "5:2"]) == 2

    def test_merges_an_existing_manifest(self, plan_path, tmp_path,
                                         capsys):
        path = tmp_path / "merged.json"
        assert main(["evalfleet", "plan", str(path),
                     "--manifest", str(plan_path)]) == 0
        assert Manifest.load(path).to_json() == \
            Manifest.load(plan_path).to_json()


class TestGenerateManifest:
    def test_seed_range_and_manifest_round_trip(self, tmp_path, capsys):
        prefix = tmp_path / "demo"
        manifest_path = tmp_path / "gen.json"
        code = main(["generate", str(prefix), "--functions", "4",
                     "--style", "gcc-like", "--seed-range", "2:5",
                     "--manifest", str(manifest_path)])
        assert code == 0
        for seed in (2, 3, 4):
            assert (tmp_path / f"demo-s{seed:06d}.bin").exists()
        items = list(Manifest.load(manifest_path))
        assert [item.seed for item in items] == [2, 3, 4]
        assert all(item.kind == "synth" and item.style == "gcc-like"
                   for item in items)
        # ... and the manifest feeds straight back into `evalfleet plan`.
        merged = tmp_path / "merged.json"
        assert main(["evalfleet", "plan", str(merged),
                     "--manifest", str(manifest_path)]) == 0
        assert len(Manifest.load(merged)) == 3

    def test_single_seed_output_unchanged(self, tmp_path, capsys):
        assert main(["generate", str(tmp_path / "one"),
                     "--functions", "4", "--seed-range", "9"]) == 0
        out = capsys.readouterr().out
        assert "text bytes" in out
        assert (tmp_path / "one.bin").exists()   # no -sNNNNNN suffix

    def test_bad_seed_range(self, tmp_path, capsys):
        assert main(["generate", str(tmp_path / "x"),
                     "--seed-range", "3:1"]) == 2


class TestRunReportDiff:
    def test_run_passes_separation_gate(self, finished_run):
        assert (finished_run / "trend.json").exists()
        assert validate_file(finished_run / "trend.json")["kind"] == \
            "trend"

    def test_report_text(self, finished_run, capsys):
        assert main(["evalfleet", "report", str(finished_run)]) == 0
        out = capsys.readouterr().out
        assert "binaries ok" in out and "error class" in out

    def test_report_json_matches_trend(self, finished_run, capsys):
        assert main(["evalfleet", "report", str(finished_run),
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == (finished_run / "trend.json").read_text()

    def test_report_prometheus(self, finished_run, capsys):
        assert main(["evalfleet", "report", str(finished_run),
                     "--format", "prometheus"]) == 0
        assert "repro_fleet_binaries_total" in capsys.readouterr().out

    def test_report_on_empty_rundir(self, tmp_path, capsys):
        assert main(["evalfleet", "report", str(tmp_path)]) == 2

    def test_resume_of_finished_run_recomputes_nothing(self,
                                                       finished_run,
                                                       capsys):
        before = (finished_run / "trend.json").read_text()
        assert main(["evalfleet", "resume",
                     "--rundir", str(finished_run)]) == 0
        out = capsys.readouterr().out
        assert "0 computed" in out
        assert (finished_run / "trend.json").read_text() == before

    def test_run_rejects_missing_manifest(self, tmp_path, capsys):
        assert main(["evalfleet", "run", str(tmp_path / "nope.json"),
                     "--rundir", str(tmp_path / "r")]) == 2

    def test_run_via_serve_requires_server(self, plan_path, tmp_path,
                                           capsys):
        assert main(["evalfleet", "run", str(plan_path),
                     "--rundir", str(tmp_path / "r"),
                     "--via", "serve"]) == 2

    @pytest.mark.parametrize("flag, message", [
        ("--limit", "limit must be >= 0, not -1"),
        ("--jobs", "jobs must be >= 0 (0 = one per CPU), not -1"),
    ])
    def test_run_rejects_negative_counts(self, plan_path, tmp_path,
                                         capsys, flag, message):
        rundir = tmp_path / "r"
        assert main(["evalfleet", "run", str(plan_path),
                     "--rundir", str(rundir), flag, "-1"]) == 2
        assert capsys.readouterr().err == f"evalfleet run: {message}\n"
        assert not rundir.exists()
