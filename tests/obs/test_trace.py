"""Tests for hierarchical spans, the process-wide tracer, and export."""

import json
import os
import time

from repro.obs.schema import validate_jsonl
from repro.obs.trace import (SPAN_SCHEMA, Span, SpanContext, Tracer,
                             activate, current_tracer, phase_span,
                             set_tracer, spans_started, tracing_active,
                             trace_path_from_env)


class TestSpanContext:
    def test_round_trips_through_dict(self):
        ctx = SpanContext(trace_id="t1", span_id="s1")
        assert SpanContext.from_dict(ctx.as_dict()) == ctx

    def test_from_dict_of_none_is_none(self):
        assert SpanContext.from_dict(None) is None
        assert SpanContext.from_dict({}) is None


class TestSpanTree:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id == tracer.trace_id
        # Inner finishes first (stack order).
        assert [s.name for s in tracer.finished] == ["inner", "outer"]

    def test_span_records_duration_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work", tool="x") as span:
            span.attrs["extra"] = 1
        assert span.duration >= 0.0
        assert span.attrs == {"tool": "x", "extra": 1}
        assert "_t0" not in span.attrs

    def test_start_finish_with_explicit_parent(self):
        # The async shape: no stack, explicit parents per request.
        tracer = Tracer()
        root = tracer.start("request", parent="")
        child = tracer.start("job", parent=root.span_id)
        tracer.finish(child)
        tracer.finish(root, status=200)
        assert root.parent_id is None          # "" means true root
        assert child.parent_id == root.span_id
        assert root.attrs["status"] == 200

    def test_emit_records_externally_measured_span(self):
        tracer = Tracer()
        span = tracer.emit("queue-wait", 0.25, parent="p1", id="j1")
        assert span.duration == 0.25
        assert span.parent_id == "p1"
        assert span.attrs == {"id": "j1"}
        assert span in tracer.finished

    def test_context_points_at_current_span(self):
        tracer = Tracer()
        assert tracer.context() == SpanContext(tracer.trace_id, "")
        with tracer.span("outer") as outer:
            assert tracer.context() == outer.context()

    def test_worker_tracer_inherits_parent_context(self):
        coordinator = Tracer()
        with coordinator.span("corpus") as corpus:
            ctx = coordinator.context()
        worker = Tracer(parent=SpanContext.from_dict(ctx.as_dict()))
        assert worker.trace_id == coordinator.trace_id
        with worker.span("eval-pair") as span:
            pass
        assert span.parent_id == corpus.span_id


class TestAdopt:
    def test_same_trace_spans_adopted_verbatim(self):
        coordinator = Tracer()
        worker = Tracer(parent=coordinator.context())
        with worker.span("eval-pair"):
            pass
        dumps = [span.to_dict() for span in worker.drain()]
        assert coordinator.adopt(dumps) == 1
        adopted = coordinator.finished[-1]
        assert adopted.trace_id == coordinator.trace_id
        assert adopted.name == "eval-pair"

    def test_foreign_trace_rewritten_and_reparented(self):
        coordinator = Tracer()
        foreign = Tracer()                     # distinct trace id
        with foreign.span("orphan"):
            pass
        with coordinator.span("parent") as parent:
            coordinator.adopt([s.to_dict() for s in foreign.drain()])
        adopted = [s for s in coordinator.finished if s.name == "orphan"]
        assert adopted[0].trace_id == coordinator.trace_id
        assert adopted[0].parent_id == parent.span_id


class TestExport:
    def test_export_jsonl_is_schema_valid(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        path = tracer.export_jsonl(tmp_path / "trace.jsonl")
        summary = validate_jsonl(path)
        assert summary["spans"] == 2
        assert summary["traces"] == 1
        assert summary["roots"] == 1
        assert summary["dangling_parents"] == 0

    def test_exported_lines_carry_schema_tag(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root"):
            pass
        path = tracer.export_jsonl(tmp_path / "trace.jsonl")
        record = json.loads(path.read_text().splitlines()[0])
        assert record["schema"] == SPAN_SCHEMA
        assert record["pid"] == os.getpid()

    def test_flush_appends_and_clears(self, tmp_path):
        tracer = Tracer()
        path = tmp_path / "trace.jsonl"
        with tracer.span("a"):
            pass
        assert tracer.flush_jsonl(path) == 1
        assert tracer.finished == []
        with tracer.span("b"):
            pass
        assert tracer.flush_jsonl(path) == 1
        assert tracer.flush_jsonl(path) == 0    # nothing buffered
        assert len(path.read_text().splitlines()) == 2

    def test_span_dict_round_trip(self):
        tracer = Tracer()
        with tracer.span("op", k="v") as span:
            pass
        clone = Span.from_dict(span.to_dict())
        assert clone.span_id == span.span_id
        assert clone.name == "op"
        assert clone.attrs == {"k": "v"}


class TestProcessWideTracer:
    def test_activate_installs_restores_and_exports(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert current_tracer() is None
        with activate(path) as tracer:
            assert current_tracer() is tracer
            assert tracing_active()
            with tracer.span("root"):
                pass
        assert current_tracer() is None
        assert validate_jsonl(path)["spans"] == 1

    def test_fork_inherited_tracer_is_ignored(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert current_tracer() is tracer
            tracer._pid += 1                   # simulate the fork child
            assert current_tracer() is None
            assert not tracing_active()
        finally:
            set_tracer(previous)

    def test_trace_path_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert trace_path_from_env() is None
        monkeypatch.setenv("REPRO_TRACE", "")
        assert trace_path_from_env() is None
        monkeypatch.setenv("REPRO_TRACE", "/tmp/t.jsonl")
        assert trace_path_from_env() == "/tmp/t.jsonl"


class TestPhaseSpan:
    def test_disabled_path_adds_to_timings_without_a_span(self):
        # With no tracer this is a plain perf_counter timer: a timings
        # entry, no span, no span-counter movement.
        timings: dict[str, float] = {}
        before = spans_started()
        with phase_span("superset", timings):
            time.sleep(0.01)
        assert spans_started() == before
        assert timings["superset"] >= 0.01

    def test_reentered_phase_accumulates(self):
        timings = {"loop": 1.0}
        for _ in range(3):
            with phase_span("loop", timings):
                pass
        assert list(timings) == ["loop"]
        assert timings["loop"] >= 1.0

    def test_nested_phases_account_time_to_both_levels(self):
        # The outer entry must cover the inner one.
        timings: dict[str, float] = {}
        with phase_span("correction", timings):
            with phase_span("correction/trace", timings):
                time.sleep(0.01)
        assert timings["correction"] >= timings["correction/trace"] >= 0.01

    def test_disabled_path_records_on_exception(self):
        timings: dict[str, float] = {}
        try:
            with phase_span("boom", timings):
                raise RuntimeError
        except RuntimeError:
            pass
        assert "boom" in timings

    def test_traced_path_records_on_exception(self):
        timings: dict[str, float] = {}
        with activate():
            try:
                with phase_span("boom", timings):
                    raise RuntimeError
            except RuntimeError:
                pass
        assert "boom" in timings

    def test_traced_path_feeds_timings_from_span(self):
        timings = {"scoring": 0.5}
        with activate() as tracer:
            with phase_span("scoring", timings, bytes=10) as span:
                pass
        assert span in tracer.finished
        assert span.attrs["bytes"] == 10
        # One measurement point: the entry grows by the span duration.
        assert timings["scoring"] == 0.5 + span.duration

    def test_traced_path_without_timings(self):
        with activate() as tracer:
            with phase_span("scoring") as span:
                pass
        assert span in tracer.finished
