"""Tests for the serving wire protocol (`repro.serve.protocol`)."""

import base64
import dataclasses

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.serve.protocol import (JobRequest, ProtocolError,
                                  config_fingerprint,
                                  config_from_overrides,
                                  decode_binary_field, encode_binary,
                                  parse_job_body)


class TestBinaryField:
    def test_round_trip(self):
        blob = bytes(range(256))
        assert decode_binary_field(
            {"binary_b64": encode_binary(blob)}) == blob

    def test_missing_field_rejected(self):
        with pytest.raises(ProtocolError, match="binary_b64"):
            decode_binary_field({})

    def test_non_string_rejected(self):
        with pytest.raises(ProtocolError, match="binary_b64"):
            decode_binary_field({"binary_b64": 42})

    def test_invalid_base64_rejected(self):
        with pytest.raises(ProtocolError, match="base64"):
            decode_binary_field({"binary_b64": "!!!not base64!!!"})


BOOL_FIELDS = ["use_statistics", "use_behavior",
               "use_prioritized_correction", "use_table_resolution",
               "use_lint_feedback", "record_provenance"]


class TestConfigHandling:
    def test_no_overrides_is_default_config(self):
        assert config_from_overrides(None) is DEFAULT_CONFIG
        assert config_from_overrides({}) is DEFAULT_CONFIG

    def test_known_override_applies(self):
        config = config_from_overrides({"use_lint_feedback": True})
        assert config.use_lint_feedback is True

    def test_unknown_field_is_client_error(self):
        with pytest.raises(ProtocolError, match="no_such_knob") as exc:
            config_from_overrides({"no_such_knob": 1})
        assert exc.value.status == 400

    def test_fingerprint_stable_and_default_equals_empty(self):
        assert config_fingerprint(None) == config_fingerprint(None)
        assert config_fingerprint(None) == config_fingerprint({})

    def test_fingerprint_changes_with_config(self):
        assert config_fingerprint(None) != \
            config_fingerprint({"use_lint_feedback": True})

    def test_explicit_default_override_shares_fingerprint(self):
        # Overriding a field to its default value resolves to the same
        # effective config, so the cache key must not fork.
        name = dataclasses.fields(DEFAULT_CONFIG)[0].name
        value = getattr(DEFAULT_CONFIG, name)
        assert config_fingerprint({name: value}) == config_fingerprint(None)

    def test_overridable_fields_are_the_seven_config_fields(self):
        assert [f.name for f in dataclasses.fields(DEFAULT_CONFIG)] == \
            BOOL_FIELDS + ["code_threshold"]

    @pytest.mark.parametrize("name", ["chain_window", "gap_rounds",
                                      "alignment", "stat_weight"])
    def test_former_knobs_are_unknown_fields(self, name):
        with pytest.raises(ProtocolError, match=name) as exc:
            config_from_overrides({name: 5})
        assert exc.value.status == 400

    @pytest.mark.parametrize("name", BOOL_FIELDS)
    @pytest.mark.parametrize("bad", ["no", 0, None])
    def test_switch_must_be_a_boolean(self, name, bad):
        with pytest.raises(ProtocolError, match="boolean") as exc:
            config_from_overrides({name: bad})
        assert exc.value.status == 400

    @pytest.mark.parametrize("bad", ["x", "0.5", True, None])
    def test_threshold_must_be_a_number(self, bad):
        with pytest.raises(ProtocolError, match="number") as exc:
            config_from_overrides({"code_threshold": bad})
        assert exc.value.status == 400

    def test_threshold_is_coerced_to_float(self):
        config = config_from_overrides({"code_threshold": 1})
        assert type(config.code_threshold) is float
        assert config_fingerprint({"code_threshold": 0}) == \
            config_fingerprint({"code_threshold": 0.0}) == \
            config_fingerprint(None)
        assert config_fingerprint({"code_threshold": 1}) == \
            config_fingerprint({"code_threshold": 1.0})


class TestJobRequest:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="kind"):
            JobRequest(id="j1", kind="transpile", blob=b"")

    def test_worker_item_is_flat_and_complete(self):
        job = JobRequest(id="j1", kind="lint", blob=b"abc",
                         config_overrides={"use_lint_feedback": True},
                         lint_disable=("orphan-code",))
        assert job.worker_item() == (
            "j1", "lint", b"abc", {"use_lint_feedback": True},
            ("orphan-code",))


class TestParseJobBody:
    def body(self, **extra):
        return {"binary_b64": base64.b64encode(b"blob").decode(), **extra}

    def test_minimal_disassemble_body(self):
        parsed = parse_job_body(self.body(), "disassemble")
        assert parsed.blob == b"blob"
        assert parsed.config_overrides is None
        assert parsed.timeout_ms is None
        assert parsed.lint_disable == ()

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_job_body(["nope"], "disassemble")

    def test_config_must_be_object(self):
        with pytest.raises(ProtocolError, match="'config'"):
            parse_job_body(self.body(config=[1]), "disassemble")

    def test_config_fields_validated_early(self):
        with pytest.raises(ProtocolError, match="typo_field"):
            parse_job_body(self.body(config={"typo_field": 1}),
                           "disassemble")

    def test_config_types_validated_early(self):
        with pytest.raises(ProtocolError, match="use_behavior") as exc:
            parse_job_body(self.body(config={"use_behavior": "no"}),
                           "disassemble")
        assert exc.value.status == 400

    @pytest.mark.parametrize("bad", [0, -5, 1.5, "100"])
    def test_timeout_must_be_positive_int(self, bad):
        with pytest.raises(ProtocolError, match="timeout_ms"):
            parse_job_body(self.body(timeout_ms=bad), "disassemble")

    def test_lint_disable_parsed_only_for_lint(self):
        body = self.body(disable=["orphan-code", "padding-as-code"])
        assert parse_job_body(body, "lint").lint_disable == \
            ("orphan-code", "padding-as-code")
        assert parse_job_body(body, "disassemble").lint_disable == ()

    def test_lint_disable_must_be_string_list(self):
        with pytest.raises(ProtocolError, match="'disable'"):
            parse_job_body(self.body(disable="orphan-code"), "lint")


class TestBaseFingerprint:
    def body(self, **extra):
        return {"binary_b64": base64.b64encode(b"blob").decode(), **extra}

    def test_worker_item_appends_base_when_set(self):
        job = JobRequest(id="j1", kind="disassemble", blob=b"abc",
                         base="f" * 64)
        assert job.worker_item() == (
            "j1", "disassemble", b"abc", None, (), "f" * 64)

    def test_worker_item_pads_base_before_trace_ctx(self):
        # The span context is always the seventh element, so workers
        # can unpack positionally.
        ctx = {"trace_id": "t", "span_id": "s"}
        job = JobRequest(id="j1", kind="disassemble", blob=b"abc",
                         trace_ctx=ctx)
        assert job.worker_item() == (
            "j1", "disassemble", b"abc", None, (), "", ctx)

    def test_valid_base_parsed_for_disassemble(self):
        parsed = parse_job_body(self.body(base="a" * 64), "disassemble")
        assert parsed.base == "a" * 64

    def test_base_defaults_to_empty(self):
        assert parse_job_body(self.body(), "disassemble").base == ""

    def test_base_ignored_for_lint(self):
        assert parse_job_body(self.body(base="a" * 64), "lint").base == ""

    @pytest.mark.parametrize("bad", ["short", "A" * 64, "g" * 64, 7])
    def test_malformed_base_rejected(self, bad):
        with pytest.raises(ProtocolError, match="base"):
            parse_job_body(self.body(base=bad), "disassemble")
