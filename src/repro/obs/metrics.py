"""A central metrics registry with Prometheus text exposition.

Counters, gauges and histograms, labeled, stdlib-only.  The pipeline
increments process-global metrics through :data:`REGISTRY` (cache
hits, traces attempted/refuted, bytes reclassified per correction
pass, decode errors); the serving layer keeps a per-server
:class:`MetricsRegistry` so concurrent test servers never share
state.  Exposition formats:

* :meth:`MetricsRegistry.render_prometheus` -- the Prometheus text
  format (``text/plain; version=0.0.4``), served on
  ``GET /metrics?format=prometheus`` and dumped by ``repro metrics``.
* :meth:`MetricsRegistry.snapshot` -- a plain dict for JSON embedding.

Increments are dict updates under the GIL -- cheap enough for the
instrumentation points we use (per trace / per pass / per request,
never per byte).
"""

from __future__ import annotations

import threading

#: Default histogram buckets (seconds), chosen for request latencies
#: from sub-millisecond cache hits to multi-second cold disassemblies.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                   30.0, 60.0)

_LABEL_ESCAPES = str.maketrans({"\\": r"\\", '"': r"\"", "\n": r"\n"})


def _label_key(labels: dict) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: tuple[tuple[str, str], ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [*key, *extra]
    if not pairs:
        return ""
    rendered = ",".join(f'{name}="{value.translate(_LABEL_ESCAPES)}"'
                        for name, value in pairs)
    return "{" + rendered + "}"


def _format_value(value: float) -> str:
    # Prometheus text format spells the specials exactly this way;
    # Python's repr ('nan', '-inf') would not parse at scrape time.
    value = float(value)
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value.is_integer():
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing value, optionally labeled."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[tuple, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        return sum(self._values.values())

    def by_label(self, label: str) -> dict[str, float]:
        """``{label value: value}`` of a one-label metric, first seen first."""
        return {dict(key)[label]: value
                for key, value in self._values.items()}

    def samples(self):
        for key in sorted(self._values):
            yield self.name, key, self._values[key]

    def snapshot_values(self) -> dict:
        return {_format_labels(key) or "": value
                for key, value in sorted(self._values.items())}


class Gauge(Counter):
    """A value that can go up and down (queue depth, liveness)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self._counts: dict[tuple, list[int]] = {}
        self._sums: dict[tuple, float] = {}
        self._totals: dict[tuple, int] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * len(self.buckets)
                self._sums[key] = 0.0
                self._totals[key] = 0
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
            self._sums[key] += value
            self._totals[key] += 1

    def count(self, **labels) -> int:
        return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def samples(self):
        for key in sorted(self._counts):
            for bound, count in zip(self.buckets, self._counts[key]):
                yield (f"{self.name}_bucket", key,
                       count, (("le", _format_value(bound)),))
            yield (f"{self.name}_bucket", key, self._totals[key],
                   (("le", "+Inf"),))
            yield f"{self.name}_sum", key, self._sums[key], ()
            yield f"{self.name}_count", key, self._totals[key], ()

    def snapshot_values(self) -> dict:
        return {_format_labels(key) or "": {
                    "count": self._totals[key],
                    "sum": round(self._sums[key], 6),
                }
                for key in sorted(self._counts)}


class MetricsRegistry:
    """Named metrics with get-or-create registration."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _register(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help, **kwargs)
            elif type(metric) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {cls.kind}")
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._register(Histogram, name, help, buckets=buckets)

    def get(self, name: str):
        return self._metrics.get(name)

    def __iter__(self):
        return iter(sorted(self._metrics.values(),
                           key=lambda m: m.name))

    def reset(self) -> None:
        """Drop every metric (tests only)."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format, trailing newline."""
        lines: list[str] = []
        for metric in self:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample in metric.samples():
                if len(sample) == 3:
                    name, key, value = sample
                    extra: tuple = ()
                else:
                    name, key, value, extra = sample
                lines.append(f"{name}{_format_labels(key, extra)} "
                             f"{_format_value(value)}")
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict:
        """Nested plain-dict view for JSON dumps and tests."""
        return {metric.name: {"kind": metric.kind, "help": metric.help,
                              "values": metric.snapshot_values()}
                for metric in self}


#: The process-global registry the core pipeline records into.
REGISTRY = MetricsRegistry()
