"""Per-layer spans for the pipeline benchmark's traced runs.

A traced run wraps each layer's entry point, looked up where the
pipeline calls it, in a function that records a span: layer name,
start, end, parent span and the operation it belongs to.  Spans stay in
memory and are written as ``repro-trace-v1`` JSONL when the run ends.
The program's own tracing (``REPRO_TRACE``) stays off, so the spans
come only from these wrappers; they are recorded here rather than with
``repro.obs.trace`` so that one harness measures commits whose own
tracing differs.

Self time is a span's duration minus the part of it that child spans
cover.  A layer's ``self_ms`` is the median over operations of the
layer's per-operation self-time sum; its counts are totals over the
census operations (the first inputs of a run, identical for a seed),
so they repeat exactly between runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
import uuid
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SPAN_SCHEMA = "repro-trace-v1"

COLD = frozenset({"cold-mixed", "cold-large", "fleet-triage"})
INCREMENTAL = frozenset({"incremental-patch"})
FLEET = frozenset({"fleet-triage"})
EVERY = COLD | INCREMENTAL


class LayerError(RuntimeError):
    """A wrapped entry point vanished, or never ran where it must."""


def _superset_misses() -> float:
    from repro.obs.metrics import REGISTRY
    counter = REGISTRY.get("repro_superset_cache_total")
    if counter is None:
        raise LayerError("metric repro_superset_cache_total vanished")
    return counter.value(outcome="miss")


def _superset_lookup(result, args, misses_before) -> dict:
    miss = int(_superset_misses() - misses_before)
    return {"lookups": 1, "hits": 1 - miss,
            "offsets": len(result) if miss else 0}


def _scored_all(result, args, _) -> dict:
    return {"offsets_scored": len(args[1].valid_offsets)}


def _rescored(result, args, _) -> dict:
    return {"offsets_scored": len(args[2])}


def _length(key: str) -> Callable:
    return lambda result, args, _: {key: len(result)}


def _disassembly(disassembly) -> dict:
    return {"accepted": len(disassembly.result.instructions),
            "valid": len(disassembly.superset.valid_offsets)}


def _incremental(result, args, _) -> dict:
    disassembly, stats = result
    return {**_disassembly(disassembly), "total": stats.total,
            "redecoded": stats.redecoded,
            "rescored": stats.stat_rescored + stats.behavior_rescored,
            "cold_fallbacks": int(stats.cold)}


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    ``owner`` is ``"module"`` or ``"module:Class"``; ``workloads`` are
    the workloads on which the entry must fire.  ``counts(result, args,
    before)`` returns the span's counts; it runs after the span's end
    time is taken and must be O(1) so enclosing spans barely see it.
    ``before()`` is read just before the call, for counts that are
    deltas.
    """

    layer: str
    owner: str
    attr: str
    workloads: frozenset
    counts: Callable | None = None
    before: Callable | None = None

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attr}"


ENTRIES: tuple[Entry, ...] = (
    Entry("superset", "repro.core.disassembler", "cached_superset", COLD,
          _superset_lookup, _superset_misses),
    Entry("superset", "repro.fleet.analysis", "cached_superset", FLEET,
          _superset_lookup, _superset_misses),
    Entry("superset", "repro.core.engine.incremental", "_patch_superset",
          INCREMENTAL, lambda result, args, _: {"offsets":
                                                 args[3].redecoded}),
    Entry("analysis.behavior", "repro.analysis.behavior:BehaviorAnalyzer",
          "score_all", COLD, _scored_all),
    Entry("analysis.behavior", "repro.analysis.behavior:BehaviorAnalyzer",
          "rescore", INCREMENTAL, _rescored),
    Entry("stats.scoring", "repro.stats.scoring:StatisticalScorer",
          "score_all", COLD, _scored_all),
    Entry("stats.scoring", "repro.stats.scoring:StatisticalScorer",
          "rescore", INCREMENTAL, _rescored),
    Entry("stats.datamodel", "repro.core.disassembler", "find_jump_tables",
          EVERY, _length("found")),
    Entry("analysis.idioms", "repro.core.disassembler",
          "likely_function_starts", COLD, _length("prologues")),
    Entry("analysis.idioms", "repro.core.engine.incremental",
          "_patch_prologues", INCREMENTAL, _length("prologues")),
    Entry("core.engine.ingest", "repro.core.engine.driver:FactEngine",
          "ingest", EVERY),
    Entry("core.engine.solve", "repro.core.engine.driver:FactEngine",
          "solve", EVERY),
    Entry("core.engine.finish", "repro.core.engine.driver:FactEngine",
          "finish", EVERY),
    # The program's "functions" phase: identify_functions plus building
    # the result from the engine state.
    Entry("core.functions", "repro.core.disassembler:Disassembler",
          "_finalize", EVERY,
          lambda result, args, _: {"found": len(result.function_entries)}),
    # Table validation is disassembler glue; its span only carries the
    # kept-table count for stats.datamodel.tables_kept_ratio.
    Entry("core.disassembler", "repro.core.disassembler:Disassembler",
          "_validated_tables", EVERY, _length("kept")),
    Entry("core.disassembler", "repro.core.disassembler:Disassembler",
          "disassemble_rich", COLD,
          lambda result, args, _: _disassembly(result)),
    Entry("core.engine.incremental", "repro.core.engine.incremental",
          "disassemble_incremental", INCREMENTAL, _incremental),
    Entry("lint", "repro.fleet.analysis", "lint_disassembly", FLEET,
          lambda result, args, _: {"diagnostics": len(result.diagnostics)}),
    Entry("baselines", "repro.fleet.analysis", "linear_sweep", FLEET),
    Entry("baselines", "repro.fleet.analysis", "recursive_descent", FLEET),
    Entry("synth", "repro.fleet.analysis", "generate_binary", FLEET),
    Entry("eval", "repro.fleet.analysis", "evaluate", FLEET),
    Entry("fleet", "repro.fleet.driver", "analyze_item", FLEET),
)

#: Layers whose time metric is not ``<layer>.self_ms``.
_TIME_METRIC = {"core.engine.ingest": "core.engine.ingest_ms",
                "core.engine.solve": "core.engine.solve_ms",
                "core.engine.finish": "core.engine.finish_ms"}


def time_metric(layer: str) -> str:
    return _TIME_METRIC.get(layer, f"{layer}.self_ms")


def _owner(entry: Entry):
    module_name, _, class_name = entry.owner.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name, None)
        if owner is None:
            raise LayerError(f"{entry.owner} vanished")
    return owner


class SpanRecorder:
    """In-memory spans of one run.  A span with no parent opens an op."""

    def __init__(self) -> None:
        self.trace_id = uuid.uuid4().hex
        self.spans: list[list] = []
        self.census = False
        self.fired: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._ops = 0
        self._epoch = time.time() - time.perf_counter()

    def wrap(self, entry: Entry, function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            before = entry.before() if entry.before is not None else None
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._ops += 1
                attrs = {"op": self._ops, "census": self.census}
            else:
                attrs = {"op": parent[5]["op"]}
            # [span_id, parent_id, layer, start, end, attrs]
            span = [len(self.spans) + 1, parent[0] if parent else None,
                    entry.layer, 0.0, 0.0, attrs]
            self.spans.append(span)
            self._stack.append(span)
            span[3] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            self.fired[entry.label] += 1
            attrs["entry"] = entry.label
            if entry.counts is not None:
                attrs.update(entry.counts(result, args, before))
            return result

        return wrapper

    def span_dicts(self) -> list[dict]:
        pid = os.getpid()
        return [{"schema": SPAN_SCHEMA, "trace_id": self.trace_id,
                 "span_id": f"{self.trace_id[:8]}{span_id:08x}",
                 "parent_id": (f"{self.trace_id[:8]}{parent:08x}"
                               if parent else None),
                 "name": layer,
                 "start_us": int((self._epoch + start) * 1e6),
                 "dur_us": int((end - start) * 1e6),
                 "pid": pid, "attrs": attrs}
                for span_id, parent, layer, start, end, attrs in self.spans]

    def export_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            for span in self.span_dicts():
                sink.write(json.dumps(span, sort_keys=True) + "\n")

    def check_fired(self, workload: str,
                    entries: tuple[Entry, ...] = ENTRIES) -> None:
        silent = [entry.label for entry in entries
                  if workload in entry.workloads
                  and not self.fired[entry.label]]
        if silent:
            raise LayerError(f"never ran on {workload}: "
                             + ", ".join(silent))


class Wrapped:
    """Context manager: wrap every entry point, restore them on exit."""

    def __init__(self, recorder: SpanRecorder,
                 entries: tuple[Entry, ...] = ENTRIES) -> None:
        self.recorder = recorder
        self.entries = entries
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        try:
            for entry in self.entries:
                owner = _owner(entry)
                original = vars(owner).get(entry.attr)
                if not callable(original):
                    raise LayerError(f"{entry.label} vanished")
                setattr(owner, entry.attr,
                        self.recorder.wrap(entry, original))
                self._saved.append((owner, entry.attr, original))
        except BaseException:
            self._restore()
            raise
        return self.recorder

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Span arithmetic (runs on exported span dicts)
# ----------------------------------------------------------------------

def self_times(spans: list[dict]) -> dict[str, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span["parent_id"] is not None:
            start = span["start_us"]
            children[span["parent_id"]].append(
                (start, start + span["dur_us"]))
    out = {}
    for span in spans:
        lo, hi = span["start_us"], span["start_us"] + span["dur_us"]
        covered, reach = 0, lo
        for start, end in sorted(children[span["span_id"]]):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out[span["span_id"]] = span["dur_us"] - covered
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run (see the module docstring)."""
    selfs = self_times(spans)
    roots = [span for span in spans if span["parent_id"] is None]
    census = {span["attrs"]["op"] for span in roots
              if span["attrs"]["census"]}
    per_op: dict[str, dict[int, float]] = defaultdict(
        lambda: defaultdict(float))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        attrs = span["attrs"]
        per_op[span["name"]][attrs["op"]] += selfs[span["span_id"]] / 1e3
        if attrs["op"] in census:
            for key, value in attrs.items():
                if key not in ("op", "census", "entry"):
                    totals[f"{span['name']}.{key}"] += value

    ops = [span["attrs"]["op"] for span in roots]
    metrics = {time_metric(layer): statistics.median(
                   by_op.get(op, 0.0) for op in ops)
               for layer, by_op in per_op.items()}

    def total(key: str) -> float:
        return totals.get(key, 0.0)

    metrics.update({
        "superset.offsets": total("superset.offsets"),
        "superset.cache_hit_ratio": _ratio(total("superset.hits"),
                                           total("superset.lookups")),
        "analysis.behavior.offsets_scored":
            total("analysis.behavior.offsets_scored"),
        "stats.scoring.offsets_scored":
            total("stats.scoring.offsets_scored"),
        "stats.datamodel.tables_found": total("stats.datamodel.found"),
        "stats.datamodel.tables_kept_ratio": _ratio(
            total("core.disassembler.kept"), total("stats.datamodel.found")),
        "analysis.idioms.prologues": total("analysis.idioms.prologues"),
        "core.engine.accept_ratio": _ratio(
            total("core.disassembler.accepted")
            + total("core.engine.incremental.accepted"),
            total("core.disassembler.valid")
            + total("core.engine.incremental.valid")),
        "core.functions.found": total("core.functions.found"),
    })
    if "core.engine.incremental" in per_op:
        redecoded = total("core.engine.incremental.redecoded")
        metrics.update({
            "core.engine.incremental.redecoded": redecoded,
            "core.engine.incremental.rescored":
                total("core.engine.incremental.rescored"),
            "core.engine.incremental.reused_fraction": 1.0 - _ratio(
                redecoded, total("core.engine.incremental.total")),
            "core.engine.incremental.cold_fallbacks":
                total("core.engine.incremental.cold_fallbacks"),
        })
    if "lint" in per_op:
        metrics["lint.diagnostics"] = total("lint.diagnostics")
    if "fleet" in per_op:
        metrics["fleet.item_ms_p50"] = statistics.median(
            span["dur_us"] / 1e3 for span in roots)
    return metrics


def coverage(spans: list[dict]) -> list[float]:
    """Per op: share of the top span that child spans account for."""
    selfs = self_times(spans)
    return [1.0 - selfs[span["span_id"]] / span["dur_us"]
            for span in spans
            if span["parent_id"] is None and span["dur_us"] > 0]


def layer_shares(spans: list[dict]) -> dict[str, float]:
    """Layer -> its self time as a share of all top-span time."""
    selfs = self_times(spans)
    whole = sum(span["dur_us"] for span in spans
                if span["parent_id"] is None)
    shares: dict[str, float] = defaultdict(float)
    for span in spans:
        shares[span["name"]] += _ratio(selfs[span["span_id"]], whole)
    return dict(shares)
