"""Serving-layer observability: health, Prometheus exposition, tracing."""

import json

from repro.obs.schema import validate_jsonl


class TestHealthz:
    def test_reports_liveness_from_the_metrics_registry(
            self, serve_harness):
        client = serve_harness().client()
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        assert health["in_flight"] == 0
        # Inline mode (workers=0): liveness is the dispatcher task.
        assert health["workers_alive"] == 1

    def test_registry_gauges_back_the_health_report(self, serve_harness):
        harness = serve_harness()
        harness.client().healthz()
        registry = harness.app.metrics.registry
        assert registry.get("repro_serve_queue_depth").value() == 0
        assert registry.get("repro_serve_workers_alive").value() == 1


class TestPrometheusExposition:
    def test_metrics_endpoint_speaks_prometheus(self, serve_harness,
                                                msvc_blob):
        client = serve_harness().client()
        client.disassemble(msvc_blob)
        status, headers, body = client.request(
            "GET", "/metrics?format=prometheus")
        assert status == 200
        assert headers["content-type"] \
            == "text/plain; version=0.0.4; charset=utf-8"
        assert isinstance(body, str)
        assert "# TYPE repro_serve_requests_total counter" in body
        assert ('repro_serve_requests_total{endpoint="/v1/disassemble"'
                ',status="200"} 1') in body
        assert "repro_serve_workers_alive 1" in body
        assert "repro_serve_cache_total" in body
        # Inline mode runs jobs in-process, so the pipeline's global
        # registry (superset cache, trace counters) rides along.
        assert "repro_superset_cache_total" in body

    def test_json_metrics_shape_is_unchanged(self, serve_harness,
                                             msvc_blob):
        client = serve_harness().client()
        client.disassemble(msvc_blob)
        snap = client.metrics()
        assert isinstance(snap, dict)
        assert set(snap) >= {"requests", "jobs", "batching", "cache",
                             "latency", "worker_phases_s"}


class TestServeTracing:
    def test_trace_export_covers_the_request_lifecycle(
            self, serve_harness, msvc_blob, tmp_path):
        path = tmp_path / "serve.jsonl"
        harness = serve_harness(trace_path=str(path))
        client = harness.client()
        client.disassemble(msvc_blob)
        client.healthz()
        harness.drain()

        summary = validate_jsonl(path)
        spans = [json.loads(line)
                 for line in path.read_text().splitlines()]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)

        # One request span per HTTP round trip, each a root.
        requests = by_name["request"]
        assert len(requests) == 2
        assert all(s["parent_id"] is None for s in requests)
        endpoints = {s["attrs"]["endpoint"] for s in requests}
        assert endpoints == {"/v1/disassemble", "/healthz"}

        # The job lifecycle hangs off the disassemble request span.
        disasm = next(s for s in requests
                      if s["attrs"]["endpoint"] == "/v1/disassemble")
        (job,) = by_name["job"]
        assert job["parent_id"] == disasm["span_id"]
        (wait,) = by_name["queue-wait"]
        assert wait["parent_id"] == disasm["span_id"]
        # A batch may cover jobs from several requests, so the batch
        # span is deliberately a root of the trace.
        (batch,) = by_name["worker-batch"]
        assert batch["attrs"]["jobs"] == 1
        assert batch["parent_id"] is None
        # The pipeline's own phases nest under the job span.
        assert "disassemble" in by_name
        assert "superset" in by_name

        assert summary["traces"] == 1
        assert summary["roots"] == 3            # 2 requests + the batch
        assert summary["dangling_parents"] == 0

    def test_untraced_server_writes_nothing(self, serve_harness,
                                            msvc_blob, tmp_path,
                                            monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        harness = serve_harness()
        assert harness.app.tracer is None
        client = harness.client()
        body = client.disassemble(msvc_blob)
        assert body["result"]
