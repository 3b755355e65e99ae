"""Tests for serving metrics and the JSONL access log."""

import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serve.access_log import AccessLog
from repro.serve.cache import ResultCache
from repro.serve.metrics import ServeMetrics


#: The pipeline phases a worker batch reports.
PHASES = ("superset", "behavior", "scoring", "tables", "correction",
          "gaps", "functions")


class TestServeMetrics:
    def test_request_counting_and_latency(self):
        metrics = ServeMetrics()
        metrics.record_request("/healthz", 200, 0.001)
        metrics.record_request("/v1/disassemble", 200, 0.5)
        metrics.record_request("/v1/disassemble", 429, 0.002)
        snap = metrics.snapshot()
        assert snap["requests"] == {"/healthz:200": 1,
                                    "/v1/disassemble:200": 1,
                                    "/v1/disassemble:429": 1}
        assert snap["latency"]["/v1/disassemble"]["count"] == 2

    def test_latency_min_max_mean(self):
        metrics = ServeMetrics()
        for seconds in (0.1, 0.3, 0.2):
            metrics.record_request("/v1/lint", 200, seconds)
        out = metrics.snapshot()["latency"]["/v1/lint"]
        assert out["count"] == 3
        assert out["min_s"] == 0.1
        assert out["max_s"] == 0.3
        assert abs(out["mean_s"] - 0.2) < 1e-9

    def test_no_requests_no_latency_entries(self):
        snap = ServeMetrics().snapshot()
        assert snap["latency"] == {}
        assert snap["requests"] == {}

    def test_batching_and_queue_stats(self):
        metrics = ServeMetrics()
        metrics.record_batch(3)
        metrics.record_batch(5)
        metrics.record_queue_depth(7)
        metrics.record_queue_depth(2)
        snap = metrics.snapshot()
        assert snap["batching"] == {"batches": 2, "batched_jobs": 8,
                                    "mean_batch_size": 4.0}
        assert snap["queue"]["depth"] == 2
        assert snap["queue"]["peak"] == 7

    def test_worker_phase_merge_skips_total(self):
        metrics = ServeMetrics()
        metrics.record_worker_phases({"superset": 0.5, "scoring": 0.25,
                                      "total": 0.75})
        metrics.record_worker_phases({"superset": 0.5})
        phases = metrics.snapshot()["worker_phases_s"]
        assert phases["superset"] == 1.0
        assert phases["scoring"] == 0.25
        # A batch's own "total" key is derived: skipped, never added.
        assert phases["total"] == 1.25

    @given(batches=st.lists(
        st.tuples(st.lists(st.tuples(st.sampled_from(PHASES),
                                     st.floats(min_value=0.0,
                                               max_value=1e6,
                                               allow_nan=False)),
                           max_size=8),
                  st.booleans()),
        max_size=6))
    def test_batches_split_n_ways_add_up_to_one_accumulated_run(
            self, batches):
        # A workload's phase seconds, split over N worker batches (some
        # carrying a derived "total" key), sum to the phase seconds of
        # one accumulated run, total included, up to summation order.
        metrics = ServeMetrics()
        accumulated: dict[str, float] = {}
        for run, with_total in batches:
            batch: dict[str, float] = {}
            for name, seconds in run:
                batch[name] = batch.get(name, 0.0) + seconds
                accumulated[name] = accumulated.get(name, 0.0) + seconds
            if with_total:
                batch["total"] = sum(batch.values())
            metrics.record_worker_phases(batch)
        expected = {**accumulated, "total": sum(accumulated.values())}
        phases = metrics.snapshot()["worker_phases_s"]
        assert phases == pytest.approx(expected, rel=1e-9, abs=1e-6)

    def test_snapshot_embeds_cache_stats_and_live_queue(self):
        metrics = ServeMetrics()
        metrics.record_queue_depth(9)
        snap = metrics.snapshot(cache_stats={"hits": 3})
        assert snap["cache"] == {"hits": 3}
        assert snap["queue"]["depth"] == 9


#: The Prometheus body of the fixed event sequence in ``_drive``, minus
#: the uptime sample (wall-clock dependent).  Dyadic durations keep
#: every float sum exact.
PINNED_PROMETHEUS = """\
# HELP repro_serve_batched_jobs_total Jobs dispatched inside micro-batches
# TYPE repro_serve_batched_jobs_total counter
repro_serve_batched_jobs_total 4
# HELP repro_serve_batches_total Micro-batches dispatched to workers
# TYPE repro_serve_batches_total counter
repro_serve_batches_total 2
# HELP repro_serve_cache_entries Result-cache entries resident
# TYPE repro_serve_cache_entries gauge
repro_serve_cache_entries 1
# HELP repro_serve_cache_total Result-cache lookups, by outcome
# TYPE repro_serve_cache_total counter
repro_serve_cache_total{outcome="evictions"} 1
repro_serve_cache_total{outcome="hits"} 1
repro_serve_cache_total{outcome="misses"} 1
# HELP repro_serve_in_flight Jobs currently running on workers
# TYPE repro_serve_in_flight gauge
repro_serve_in_flight 1
# HELP repro_serve_job_seconds Per-job worker latency (batch wall time / \
batch size)
# TYPE repro_serve_job_seconds histogram
# HELP repro_serve_jobs_total Jobs by terminal outcome
# TYPE repro_serve_jobs_total counter
repro_serve_jobs_total{outcome="cancelled"} 1
repro_serve_jobs_total{outcome="completed"} 1
repro_serve_jobs_total{outcome="failed"} 1
repro_serve_jobs_total{outcome="rejected_queue_full"} 1
repro_serve_jobs_total{outcome="submitted"} 5
repro_serve_jobs_total{outcome="timed_out"} 1
# HELP repro_serve_queue_depth Jobs queued, not yet dispatched
# TYPE repro_serve_queue_depth gauge
repro_serve_queue_depth 2
# HELP repro_serve_queue_peak Highest observed queue depth
# TYPE repro_serve_queue_peak gauge
repro_serve_queue_peak 7
# HELP repro_serve_request_seconds_count Requests contributing to \
repro_serve_request_seconds_total
# TYPE repro_serve_request_seconds_count counter
repro_serve_request_seconds_count{endpoint="/healthz"} 1
repro_serve_request_seconds_count{endpoint="/v1/disassemble"} 3
# HELP repro_serve_request_seconds_max Slowest request wall time, by endpoint
# TYPE repro_serve_request_seconds_max gauge
repro_serve_request_seconds_max{endpoint="/healthz"} 0.0625
repro_serve_request_seconds_max{endpoint="/v1/disassemble"} 0.5
# HELP repro_serve_request_seconds_min Fastest request wall time, by endpoint
# TYPE repro_serve_request_seconds_min gauge
repro_serve_request_seconds_min{endpoint="/healthz"} 0.0625
repro_serve_request_seconds_min{endpoint="/v1/disassemble"} 0.125
# HELP repro_serve_request_seconds_total Cumulative request wall time, \
by endpoint
# TYPE repro_serve_request_seconds_total counter
repro_serve_request_seconds_total{endpoint="/healthz"} 0.0625
repro_serve_request_seconds_total{endpoint="/v1/disassemble"} 0.875
# HELP repro_serve_requests_total HTTP requests served, by endpoint and \
status
# TYPE repro_serve_requests_total counter
repro_serve_requests_total{endpoint="/healthz",status="200"} 1
repro_serve_requests_total{endpoint="/v1/disassemble",status="200"} 2
repro_serve_requests_total{endpoint="/v1/disassemble",status="429"} 1
# HELP repro_serve_uptime_seconds Seconds since the server started
# TYPE repro_serve_uptime_seconds gauge
# HELP repro_serve_worker_phase_seconds_total Worker pipeline time, by phase
# TYPE repro_serve_worker_phase_seconds_total counter
repro_serve_worker_phase_seconds_total{phase="correction"} 0.125
repro_serve_worker_phase_seconds_total{phase="scoring"} 0.25
repro_serve_worker_phase_seconds_total{phase="superset"} 0.75
repro_serve_worker_phase_seconds_total{phase="total"} 1.125
# HELP repro_serve_workers_alive Live worker processes (dispatcher \
liveness in inline mode)
# TYPE repro_serve_workers_alive gauge
repro_serve_workers_alive 1
"""

#: The JSON ``/metrics`` body of the same sequence, minus ``uptime_s``,
#: exactly as the server serializes it (key order and int-vs-float
#: included).
PINNED_JSON = (
    '{"requests": {"/healthz:200": 1, "/v1/disassemble:200": 2, '
    '"/v1/disassemble:429": 1}, '
    '"jobs": {"submitted": 5, "completed": 1, "failed": 1, '
    '"cancelled": 1, "timed_out": 1, "rejected_queue_full": 1}, '
    '"batching": {"batches": 2, "batched_jobs": 4, '
    '"mean_batch_size": 2.0}, '
    '"queue": {"depth": 2, "peak": 7, "in_flight": 1}, '
    '"latency": {"/healthz": {"count": 1, "total_s": 0.0625, '
    '"mean_s": 0.0625, "min_s": 0.0625, "max_s": 0.0625}, '
    '"/v1/disassemble": {"count": 3, "total_s": 0.875, '
    '"mean_s": 0.291667, "min_s": 0.125, "max_s": 0.5}}, '
    '"worker_phases_s": {"superset": 0.75, "scoring": 0.25, '
    '"correction": 0.125, "total": 1.125}, '
    '"cache": {"entries": 1, "max_entries": 1, "hits": 1, "misses": 1, '
    '"evictions": 1}}')


def _drive() -> tuple[str, dict]:
    """One fixed event sequence; returns (Prometheus text, JSON body)."""
    metrics = ServeMetrics()
    cache = ResultCache(max_entries=1, registry=metrics.registry)
    for endpoint, status, seconds in (
            ("/v1/disassemble", 200, 0.5), ("/v1/disassemble", 200, 0.25),
            ("/v1/disassemble", 429, 0.125), ("/healthz", 200, 0.0625)):
        metrics.record_request(endpoint, status, seconds)
    metrics.jobs.inc(5, outcome="submitted")
    for outcome in ("completed", "failed", "cancelled", "timed_out",
                    "rejected_queue_full"):
        metrics.jobs.inc(outcome=outcome)
    metrics.record_batch(3)
    metrics.record_batch(1)
    metrics.record_queue_depth(7)
    metrics.record_queue_depth(2)
    metrics.in_flight.set(1)
    metrics.record_worker_phases({"superset": 0.5, "scoring": 0.25,
                                  "total": 0.75})
    metrics.record_worker_phases({"superset": 0.25, "correction": 0.125})
    assert cache.get("a") is None                # miss
    cache.put("a", "1")
    assert cache.get("a") == "1"                 # hit
    cache.put("b", "2")                          # evicts "a"
    metrics.probe(workers_alive=1, cache_entries=len(cache))
    text = metrics.registry.render_prometheus()
    body = metrics.snapshot(cache_stats=cache.stats())
    return text, body


class TestExpositionPin:
    """Both ``/metrics`` bodies of one fixed event sequence, verbatim."""

    def test_prometheus_text(self):
        text, _ = _drive()
        lines = text.splitlines(keepends=True)
        kept = "".join(line for line in lines
                       if not line.startswith("repro_serve_uptime_seconds "))
        assert len(kept) < len(text)           # the uptime sample existed
        assert kept == PINNED_PROMETHEUS

    def test_json_body(self):
        _, body = _drive()
        assert body.pop("uptime_s") >= 0
        assert body == json.loads(PINNED_JSON)
        assert json.dumps(body) == PINNED_JSON


class TestAccessLog:
    def test_writes_one_sorted_json_object_per_line(self):
        stream = io.StringIO()
        log = AccessLog(stream=stream)
        log.record(id="r1", status=200, endpoint="/healthz")
        log.record(id="r2", status=404, endpoint="/nope")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["id"] == "r1"
        assert first["status"] == 200
        assert "ts" in first
        keys = list(json.loads(lines[1]))
        assert keys == sorted(keys)
        assert log.lines_written == 2

    def test_file_target_appends_jsonl(self, tmp_path):
        path = tmp_path / "logs" / "access.jsonl"
        log = AccessLog(path=path)
        log.record(id="r1", status=200)
        log.close()
        log = AccessLog(path=path)
        log.record(id="r2", status=200)
        log.close()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["id"] for r in records] == ["r1", "r2"]

    def test_disabled_log_writes_nothing(self):
        stream = io.StringIO()
        log = AccessLog(stream=stream, enabled=False)
        log.record(id="r1")
        assert stream.getvalue() == ""

    def test_write_failure_disables_instead_of_raising(self):
        stream = io.StringIO()
        log = AccessLog(stream=stream)
        stream.close()
        log.record(id="r1")          # must not raise
        assert log.enabled is False
        log.record(id="r2")          # still quiet after self-disable

    def test_close_is_idempotent_and_silences_record(self):
        stream = io.StringIO()
        log = AccessLog(stream=stream)
        log.close()
        log.close()
        log.record(id="r1")
        assert log.enabled is False
