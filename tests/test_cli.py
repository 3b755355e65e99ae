"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main
from repro.core.disassembler import Disassembler


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli")
    prefix = directory / "demo"
    code = main(["generate", str(prefix), "--functions", "8",
                 "--seed", "5", "--style", "msvc-like"])
    assert code == 0
    return prefix


class TestGenerate:
    def test_writes_both_files(self, generated):
        assert generated.with_suffix(".bin").exists()
        assert (generated.parent / "demo.gt.json").exists()

    def test_output_message(self, tmp_path, capsys):
        main(["generate", str(tmp_path / "g"), "--functions", "5"])
        out = capsys.readouterr().out
        assert "text bytes" in out and "functions" in out


class TestDisasm:
    def test_summary_mode(self, generated, capsys):
        assert main(["disasm", str(generated.with_suffix(".bin"))]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out
        assert "functions at:" in out

    def test_listing_mode(self, generated, capsys):
        code = main(["disasm", str(generated.with_suffix(".bin")),
                     "--listing"])
        assert code == 0
        out = capsys.readouterr().out
        assert "<func_0000>:" in out
        assert "push" in out


#: Pipeline phases ``disasm --profile`` reports, in pipeline order.
PROFILE_PHASES = ("superset", "behavior", "scoring", "tables",
                  "correction", "gaps", "functions")

#: Dyadic per-phase seconds (sum 1.0) so the rendered block is exact.
FIXED_PHASES = {"superset": 0.125, "behavior": 0.25, "scoring": 0.125,
                "tables": 0.0625, "correction": 0.25, "gaps": 0.0625,
                "functions": 0.125}

PINNED_PROFILE = """\
superset        125.0ms   12.5%
behavior        250.0ms   25.0%
scoring         125.0ms   12.5%
tables           62.5ms    6.2%
correction      250.0ms   25.0%
gaps             62.5ms    6.2%
functions       125.0ms   12.5%
total          1000.0ms"""


def _profile_block(out: str) -> str:
    """The text between ``phase timings:`` and the following blank line."""
    _, found, rest = out.partition("\nphase timings:\n")
    assert found, out
    return rest.split("\n\n", 1)[0]


class TestProfileFlag:
    def test_real_run_reports_every_phase_in_order(self, generated,
                                                   capsys):
        binary = str(generated.with_suffix(".bin"))
        assert main(["disasm", binary, "--profile"]) == 0
        lines = _profile_block(capsys.readouterr().out).splitlines()
        assert [line.split()[0] for line in lines] == \
            [*PROFILE_PHASES, "total"]
        row = re.compile(r"^[a-z-]+ +\d+\.\dms +\d+\.\d%$")
        for line in lines[:-1]:
            assert row.match(line), line
        # Names are padded to one width, so the ms column lines up.
        assert len({line.index("ms") for line in lines}) == 1
        assert re.match(r"^total +\d+\.\dms$", lines[-1]), lines[-1]

    def _fixed_run(self, monkeypatch, generated, capsys, phases):
        original = Disassembler.disassemble_rich

        def with_fixed_timings(self, *args, **kwargs):
            rich = original(self, *args, **kwargs)
            rich.timings = dict(phases)
            return rich

        monkeypatch.setattr(Disassembler, "disassemble_rich",
                            with_fixed_timings)
        binary = str(generated.with_suffix(".bin"))
        assert main(["disasm", binary, "--profile"]) == 0
        return _profile_block(capsys.readouterr().out)

    def test_rendering_is_pinned(self, monkeypatch, generated, capsys):
        assert self._fixed_run(monkeypatch, generated, capsys,
                               FIXED_PHASES) == PINNED_PROFILE

    def test_no_phases(self, monkeypatch, generated, capsys):
        assert self._fixed_run(monkeypatch, generated, capsys, {}) \
            == "no phases recorded"


class TestEvaluate:
    def test_scores_against_ground_truth(self, generated, capsys):
        assert main(["evaluate", str(generated)]) == 0
        out = capsys.readouterr().out
        assert "instruction F1:" in out
        assert "byte errors:" in out

    def test_accepts_the_bin_path_itself(self, generated, capsys):
        assert main(["evaluate", str(generated.with_suffix(".bin"))]) == 0
        assert "instruction F1:" in capsys.readouterr().out

    @pytest.mark.parametrize("missing", [".bin", ".gt.json"])
    def test_missing_file_is_a_one_line_usage_error(self, generated,
                                                    tmp_path, missing,
                                                    capsys):
        prefix = tmp_path / "partial"
        for suffix in (".bin", ".gt.json"):
            if suffix != missing:
                source = generated.parent / f"demo{suffix}"
                (tmp_path / f"partial{suffix}").write_bytes(
                    source.read_bytes())
        assert main(["evaluate", str(prefix)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("evaluate: ")
        assert err.count("\n") == 1 and f"partial{missing}" in err


class TestLint:
    def test_text_output(self, generated, capsys):
        code = main(["lint", str(generated.with_suffix(".bin")),
                     "--fail-on", "never"])
        assert code == 0
        out = capsys.readouterr().out
        assert "diagnostics (" in out.splitlines()[-1]

    def test_json_schema(self, generated, capsys):
        main(["lint", str(generated.with_suffix(".bin")),
              "--format", "json", "--fail-on", "never"])
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"tool", "rules_run", "counts", "diagnostics"}
        assert report["tool"] == "repro"
        assert set(report["counts"]) == {"info", "warning", "error"}
        for diagnostic in report["diagnostics"]:
            assert set(diagnostic) == {"rule", "severity", "start", "end",
                                       "message", "suggestion"}

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 18
        assert any(line.startswith("orphan-code") for line in lines)

    def test_missing_binary_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_disable_is_usage_error(self, generated, capsys):
        code = main(["lint", str(generated.with_suffix(".bin")),
                     "--disable", "no-such-rule"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_fail_on_threshold_controls_exit(self, generated, capsys):
        binary = str(generated.with_suffix(".bin"))
        assert main(["lint", binary, "--fail-on", "never"]) == 0
        # The demo binary produces warnings but no errors.
        assert main(["lint", binary, "--fail-on", "error"]) == 0
        assert main(["lint", binary, "--fail-on", "info"]) == 1
        capsys.readouterr()


class TestExperimentsPassthrough:
    def test_unknown_id_fails(self):
        assert main(["experiments", "zzz"]) == 1


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_style(self):
        with pytest.raises(SystemExit):
            main(["generate", "x", "--style", "icc"])


class TestRealFormats:
    @pytest.fixture(scope="class")
    def elf_prefix(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-elf")
        prefix = directory / "real"
        code = main(["generate", str(prefix), "--functions", "6",
                     "--seed", "9", "--format", "elf"])
        assert code == 0
        return prefix

    def test_generate_elf_writes_elf(self, elf_prefix):
        elf = elf_prefix.with_suffix(".elf")
        assert elf.exists()
        assert elf.read_bytes()[:4] == b"\x7fELF"

    def test_disasm_accepts_elf(self, elf_prefix, capsys):
        code = main(["disasm", str(elf_prefix.with_suffix(".elf"))])
        assert code == 0
        assert "instructions" in capsys.readouterr().out

    def test_disasm_json_matches_rprb_path(self, elf_prefix, tmp_path,
                                           capsys):
        main(["generate", str(tmp_path / "real"), "--functions", "6",
              "--seed", "9"])
        capsys.readouterr()
        assert main(["disasm", "--json",
                     str(elf_prefix.with_suffix(".elf"))]) == 0
        via_elf = capsys.readouterr().out
        assert main(["disasm", "--json",
                     str(tmp_path / "real.bin")]) == 0
        assert via_elf == capsys.readouterr().out

    def test_lint_accepts_elf(self, elf_prefix, capsys):
        code = main(["lint", str(elf_prefix.with_suffix(".elf")),
                     "--format", "json"])
        assert code == 0
        assert "diagnostics" in capsys.readouterr().out

    def test_unrecognized_format_is_exit_2_one_line(self, tmp_path,
                                                    capsys):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"\x00\x01\x02\x03 not a binary")
        assert main(["disasm", str(junk)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unrecognized format (magic=00010203)" in err
        assert main(["lint", str(junk)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unrecognized format" in err

    def test_truncated_elf_is_exit_2(self, elf_prefix, tmp_path, capsys):
        blob = elf_prefix.with_suffix(".elf").read_bytes()
        bad = tmp_path / "trunc.elf"
        bad.write_bytes(blob[:48])
        assert main(["disasm", str(bad)]) == 2
        assert "offset" in capsys.readouterr().err


class TestExplain:
    @pytest.fixture(scope="class")
    def seed49(self, tmp_path_factory):
        # The PR-3 regression binary whose root cause the audit trail
        # must reproduce (see tests/obs/test_pipeline.py).
        prefix = tmp_path_factory.mktemp("cli-explain") / "seed49"
        assert main(["generate", str(prefix), "--functions", "6",
                     "--seed", "49", "--style", "msvc-like"]) == 0
        return prefix.with_suffix(".bin")

    def test_entry_point_chain(self, generated, capsys):
        binary = str(generated.with_suffix(".bin"))
        assert main(["explain", binary, "0x0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("0x0: code (instruction start)")
        assert "accept-trace" in out
        assert "entry-point" in out

    def test_json_output(self, generated, capsys):
        binary = str(generated.with_suffix(".bin"))
        assert main(["explain", binary, "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["address"] == "0x0"
        assert payload["classification"] == "code (instruction start)"
        assert payload["events"]
        assert all("pass" in event for event in payload["events"])

    def test_seed49_refuted_soft_trace(self, seed49, capsys):
        assert main(["explain", str(seed49), "0x259"]) == 0
        out = capsys.readouterr().out
        assert "refuted SOFT trace" in out
        assert "strict soft-trace gate" in out

    def test_seed49_padding_guard(self, seed49, capsys):
        assert main(["explain", str(seed49), "0x37c"]) == 0
        out = capsys.readouterr().out
        assert "skip-realign" in out
        assert "padding-as-code guard" in out

    def test_bad_address_is_exit_2(self, generated, capsys):
        binary = str(generated.with_suffix(".bin"))
        assert main(["explain", binary, "zzz"]) == 2
        assert "bad address" in capsys.readouterr().err
        assert main(["explain", binary, "0x999999"]) == 2
        assert "outside the text section" in capsys.readouterr().err


class TestMetricsCommand:
    def test_local_prometheus_dump(self, generated, capsys):
        binary = str(generated.with_suffix(".bin"))
        assert main(["metrics", binary]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_superset_cache_total counter" in out
        assert "repro_traces_total" in out

    def test_local_json_dump(self, generated, capsys):
        binary = str(generated.with_suffix(".bin"))
        assert main(["metrics", binary, "--format", "json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["repro_traces_total"]["kind"] == "counter"

    def test_requires_binary_or_server(self, capsys):
        assert main(["metrics"]) == 2
        assert "--server" in capsys.readouterr().err

    def test_unreachable_server_is_exit_1(self, capsys):
        assert main(["metrics", "--server", "127.0.0.1:1"]) == 1
        assert "metrics:" in capsys.readouterr().err


class TestTraceFlag:
    def test_disasm_trace_export_is_schema_valid(self, generated,
                                                 tmp_path, capsys):
        from repro.obs.schema import validate_jsonl
        path = tmp_path / "trace.jsonl"
        assert main(["disasm", str(generated.with_suffix(".bin")),
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        summary = validate_jsonl(path)
        assert summary["traces"] == 1
        assert summary["dangling_parents"] == 0
        names = {json.loads(line)["name"]
                 for line in path.read_text().splitlines()}
        assert "disassemble" in names
        assert "superset" in names

    def test_env_var_activates_tracing(self, generated, tmp_path,
                                       monkeypatch, capsys):
        from repro.obs.schema import validate_jsonl
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        assert main(["disasm", str(generated.with_suffix(".bin"))]) == 0
        capsys.readouterr()
        assert validate_jsonl(path)["spans"] > 0
