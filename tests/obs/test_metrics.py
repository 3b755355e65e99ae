"""Tests for the metrics registry and Prometheus text exposition."""

import pytest

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               REGISTRY)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labels_keep_separate_series(self):
        counter = Counter("c_total")
        counter.inc(outcome="hit")
        counter.inc(3, outcome="miss")
        assert counter.value(outcome="hit") == 1
        assert counter.value(outcome="miss") == 3
        assert counter.total() == 4

    def test_label_order_is_irrelevant(self):
        counter = Counter("c_total")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(b="2", a="1") == 2


class TestGauge:
    def test_set_and_dec(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.dec(2)
        assert gauge.value() == 3

    def test_labeled_set(self):
        gauge = Gauge("g")
        gauge.set(1, worker="0")
        gauge.set(0, worker="1")
        assert gauge.value(worker="0") == 1
        assert gauge.value(worker="1") == 0


class TestHistogram:
    def test_observe_counts_and_sums(self):
        hist = Histogram("h_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(5.55)

    def test_buckets_are_cumulative(self):
        hist = Histogram("h_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        samples = {(name, extra): value
                   for name, _, value, extra in hist.samples()}
        assert samples[("h_seconds_bucket", (("le", "0.1"),))] == 1
        assert samples[("h_seconds_bucket", (("le", "1"),))] == 2
        assert samples[("h_seconds_bucket", (("le", "+Inf"),))] == 2


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("a_total")

    def test_get_and_iteration_order(self):
        registry = MetricsRegistry()
        registry.counter("b_total")
        registry.gauge("a_depth")
        assert registry.get("a_depth").kind == "gauge"
        assert registry.get("missing") is None
        assert [m.name for m in registry] == ["a_depth", "b_total"]

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.reset()
        assert registry.get("a_total") is None


class TestPrometheusExposition:
    def test_render_includes_help_type_and_samples(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_cache_total", "Cache lookups")
        counter.inc(2, outcome="hit")
        text = registry.render_prometheus()
        assert "# HELP repro_cache_total Cache lookups\n" in text
        assert "# TYPE repro_cache_total counter\n" in text
        assert 'repro_cache_total{outcome="hit"} 2\n' in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(path='a"b\\c\nd')
        text = registry.render_prometheus()
        assert r'path="a\"b\\c\nd"' in text

    def test_histogram_exposition_shape(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds", buckets=(0.5,)).observe(0.1)
        text = registry.render_prometheus()
        assert '# TYPE h_seconds histogram' in text
        assert 'h_seconds_bucket{le="0.5"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert 'h_seconds_sum 0.1' in text
        assert 'h_seconds_count 1' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestExpositionEdgeCases:
    """Corners of the text format a scraper is entitled to rely on."""

    @pytest.mark.parametrize("raw, escaped", [
        ('back\\slash', r'v="back\\slash"'),
        ('quo"te', r'v="quo\"te"'),
        ('new\nline', r'v="new\nline"'),
        ('all\\three\n"', r'v="all\\three\n\""'),
    ])
    def test_each_escapable_label_character(self, raw, escaped):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(v=raw)
        assert escaped in registry.render_prometheus()

    def test_nan_renders_as_prometheus_nan(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(float("nan"))
        assert registry.render_prometheus() == "# TYPE g gauge\ng NaN\n"

    def test_infinities_render_with_sign_and_capital_inf(self):
        registry = MetricsRegistry()
        registry.gauge("up").set(float("inf"))
        registry.gauge("down").set(float("-inf"))
        text = registry.render_prometheus()
        assert "up +Inf\n" in text
        assert "down -Inf\n" in text

    def test_empty_registry_render_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.render_prometheus() == ""
        registry.reset()
        assert registry.render_prometheus() == ""

    def test_plus_inf_bucket_always_equals_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        for value in (0.01, 0.5, 2.0, 1e9, float("inf")):
            hist.observe(value)
        samples = {(name, extra): value
                   for name, _, value, extra in hist.samples()}
        inf_bucket = samples[("h_seconds_bucket", (("le", "+Inf"),))]
        count = samples[("h_seconds_count", ())]
        assert inf_bucket == count == 5
        # And the finite buckets stay cumulative below it.
        assert samples[("h_seconds_bucket", (("le", "0.1"),))] == 1
        assert samples[("h_seconds_bucket", (("le", "1"),))] == 2

    def test_snapshot_is_plain_data(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help").inc(outcome="hit")
        snap = registry.snapshot()
        assert snap["c_total"]["kind"] == "counter"
        assert snap["c_total"]["values"] == {'{outcome="hit"}': 1.0}


class TestGlobalRegistry:
    def test_pipeline_metrics_are_registered(self):
        # Importing the pipeline registers its instrumentation points
        # with the process-global registry.
        import repro.core.engine.rules    # noqa: F401
        import repro.superset.superset    # noqa: F401
        for name in ("repro_traces_total",
                     "repro_bytes_reclassified_total",
                     "repro_gap_candidates_total",
                     "repro_superset_cache_total",
                     "repro_decode_errors_total"):
            assert REGISTRY.get(name) is not None, name
