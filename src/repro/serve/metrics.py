"""Operational metrics of the serving layer, exposed on ``/metrics``.

One per-server :class:`~repro.obs.metrics.MetricsRegistry` holds every
serve-layer series.  :class:`ServeMetrics` registers the instruments
once; the scheduler, server and result cache increment them where the
events happen, and ``/healthz``, JSON ``/metrics`` and Prometheus
``/metrics`` all read the same registry.  Worker-side phase seconds
arrive as dicts attached to batch results (filled by
:func:`repro.obs.trace.phase_span`, the same timer the offline CLI
prints under ``--profile``) and are added per phase, so ``/metrics``
shows where worker time actually goes.
"""

from __future__ import annotations

import time

from ..obs.metrics import Counter, MetricsRegistry

#: The outcomes ``repro_serve_jobs_total`` counts, in JSON order.
JOB_OUTCOMES = ("submitted", "completed", "failed", "cancelled",
                "timed_out", "rejected_queue_full")


def cache_lookups(registry: MetricsRegistry) -> Counter:
    """The result-cache counter, labeled hits/misses/evictions."""
    return registry.counter("repro_serve_cache_total",
                            "Result-cache lookups, by outcome")


class ServeMetrics:
    """The instruments of one serving process, in one registry."""

    def __init__(self) -> None:
        self.started = time.time()
        self.registry = registry = MetricsRegistry()
        self.requests = registry.counter(
            "repro_serve_requests_total",
            "HTTP requests served, by endpoint and status")
        #: Labeled ``outcome`` (see :data:`JOB_OUTCOMES`).
        self.jobs = registry.counter("repro_serve_jobs_total",
                                     "Jobs by terminal outcome")
        self.batches = registry.counter(
            "repro_serve_batches_total",
            "Micro-batches dispatched to workers")
        self.batched_jobs = registry.counter(
            "repro_serve_batched_jobs_total",
            "Jobs dispatched inside micro-batches")
        self.request_seconds = registry.counter(
            "repro_serve_request_seconds_total",
            "Cumulative request wall time, by endpoint")
        self.request_count = registry.counter(
            "repro_serve_request_seconds_count",
            "Requests contributing to repro_serve_request_seconds_total")
        self.request_min = registry.gauge(
            "repro_serve_request_seconds_min",
            "Fastest request wall time, by endpoint")
        self.request_max = registry.gauge(
            "repro_serve_request_seconds_max",
            "Slowest request wall time, by endpoint")
        #: Labeled ``phase``; ``phase="total"`` sums every batch's phases.
        self.worker_phases = registry.counter(
            "repro_serve_worker_phase_seconds_total",
            "Worker pipeline time, by phase")
        self.job_seconds = registry.histogram(
            "repro_serve_job_seconds",
            "Per-job worker latency (batch wall time / batch size)")
        cache_lookups(registry)      # counted by ResultCache
        self.uptime = registry.gauge("repro_serve_uptime_seconds",
                                     "Seconds since the server started")
        self.queue_peak = registry.gauge("repro_serve_queue_peak",
                                         "Highest observed queue depth")
        self.queue_depth = registry.gauge(
            "repro_serve_queue_depth", "Jobs queued, not yet dispatched")
        self.in_flight = registry.gauge(
            "repro_serve_in_flight", "Jobs currently running on workers")
        self.workers_alive = registry.gauge(
            "repro_serve_workers_alive",
            "Live worker processes (dispatcher liveness in inline mode)")
        self.cache_entries = registry.gauge(
            "repro_serve_cache_entries", "Result-cache entries resident")
        for gauge in (self.queue_peak, self.queue_depth, self.in_flight):
            gauge.set(0)

    # ------------------------------------------------------------------

    def record_request(self, endpoint: str, status: int,
                       seconds: float) -> None:
        self.requests.inc(endpoint=endpoint, status=str(status))
        first = not self.request_count.value(endpoint=endpoint)
        self.request_seconds.inc(seconds, endpoint=endpoint)
        self.request_count.inc(endpoint=endpoint)
        if first or seconds < self.request_min.value(endpoint=endpoint):
            self.request_min.set(seconds, endpoint=endpoint)
        if first or seconds > self.request_max.value(endpoint=endpoint):
            self.request_max.set(seconds, endpoint=endpoint)

    def record_batch(self, size: int) -> None:
        self.batches.inc()
        self.batched_jobs.inc(size)

    def record_queue_depth(self, depth: int) -> None:
        self.queue_depth.set(depth)
        if depth > self.queue_peak.value():
            self.queue_peak.set(depth)

    def record_worker_phases(self, phases: dict[str, float]) -> None:
        """Add one batch's phase seconds, and their sum as ``total``.

        A ``total`` key in ``phases`` is derived, so it is skipped.
        """
        measured = {name: seconds for name, seconds in phases.items()
                    if name != "total"}
        for name, seconds in measured.items():
            self.worker_phases.inc(seconds, phase=name)
        if measured:
            self.worker_phases.inc(sum(measured.values()), phase="total")

    def probe(self, *, workers_alive: int, cache_entries: int) -> None:
        """Set the gauges that are probed, not counted (at read time)."""
        self.uptime.set(time.time() - self.started)
        self.workers_alive.set(workers_alive)
        self.cache_entries.set(cache_entries)

    # ------------------------------------------------------------------

    def snapshot(self, *, cache_stats: dict | None = None) -> dict:
        """The JSON ``/metrics`` response body."""
        requests = {}
        for _, key, count in self.requests.samples():
            labels = dict(key)
            requests[f"{labels['endpoint']}:{labels['status']}"] = int(count)
        batches = int(self.batches.value())
        batched = int(self.batched_jobs.value())
        latency = {}
        for endpoint in sorted(self.request_count.by_label("endpoint")):
            count = int(self.request_count.value(endpoint=endpoint))
            total = self.request_seconds.value(endpoint=endpoint)
            latency[endpoint] = {
                "count": count,
                "total_s": round(total, 6),
                "mean_s": round(total / count, 6),
                "min_s": round(self.request_min.value(endpoint=endpoint), 6),
                "max_s": round(self.request_max.value(endpoint=endpoint), 6),
            }
        phases = self.worker_phases.by_label("phase")
        phases["total"] = phases.pop("total", 0.0)
        out = {
            "uptime_s": round(self.uptime.value(), 3),
            "requests": requests,
            "jobs": {outcome: int(self.jobs.value(outcome=outcome))
                     for outcome in JOB_OUTCOMES},
            "batching": {
                "batches": batches,
                "batched_jobs": batched,
                "mean_batch_size": (round(batched / batches, 3)
                                    if batches else 0.0),
            },
            "queue": {
                "depth": int(self.queue_depth.value()),
                "peak": int(self.queue_peak.value()),
                "in_flight": int(self.in_flight.value()),
            },
            "latency": latency,
            "worker_phases_s": {name: round(seconds, 6)
                                for name, seconds in phases.items()},
        }
        if cache_stats is not None:
            out["cache"] = cache_stats
        return out
