"""Hierarchical spans with JSONL export (schema ``repro-trace-v1``).

A :class:`Tracer` collects :class:`Span` records: named, timed
operations forming a tree through ``parent_id`` links under one
``trace_id``.  The process-wide tracer (installed with
:func:`set_tracer` / :func:`activate`) is what the pipeline's
instrumentation points consult via :func:`current_tracer`; when none
is installed every hook is a no-op, so the disabled cost is one global
read per phase.

Two usage shapes:

* **Synchronous code** (disassembler phases, correction passes, lint
  rules, eval workers) uses the :meth:`Tracer.span` context manager,
  which maintains a thread-local parent stack.
* **Interleaved async code** (the serving layer) must not rely on a
  shared stack; it uses :meth:`Tracer.start` / :meth:`Tracer.finish`
  or :meth:`Tracer.emit` with explicit parents.

Spans cross the process-pool boundary explicitly: the coordinator
ships a :class:`SpanContext` (trace-id + parent span-id) to the
worker, the worker records into its own :class:`Tracer` seeded from
that context, returns ``[span.to_dict() ...]`` with its results, and
the coordinator re-parents them with :meth:`Tracer.adopt`.  A tracer
inherited through ``fork`` is ignored by :func:`current_tracer` (the
pid no longer matches), so workers never record into a buffer that
nobody will export.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from . import profile as _profile

#: Environment variable holding the trace-output path; setting it
#: activates tracing in the CLI and the serving layer.
TRACE_ENV = "REPRO_TRACE"

#: Schema tag stamped on every exported span line.
SPAN_SCHEMA = "repro-trace-v1"


def _new_id(bits: int = 64) -> str:
    return uuid.uuid4().hex[: bits // 4]


@dataclass(frozen=True)
class SpanContext:
    """The picklable address of a span: where children re-parent to."""

    trace_id: str
    span_id: str

    def as_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, raw: dict | None) -> SpanContext | None:
        if not raw:
            return None
        return cls(trace_id=raw["trace_id"], span_id=raw["span_id"])


@dataclass
class Span:
    """One named, timed operation in a trace tree."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float                 # epoch seconds
    duration: float = 0.0        # seconds
    attrs: dict = field(default_factory=dict)
    pid: int = field(default_factory=os.getpid)

    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def to_dict(self) -> dict:
        return {
            "schema": SPAN_SCHEMA,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_us": int(self.start * 1e6),
            "dur_us": int(self.duration * 1e6),
            "pid": self.pid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> Span:
        return cls(trace_id=raw["trace_id"], span_id=raw["span_id"],
                   parent_id=raw.get("parent_id"), name=raw["name"],
                   start=raw["start_us"] / 1e6,
                   duration=raw["dur_us"] / 1e6,
                   attrs=dict(raw.get("attrs", {})),
                   pid=raw.get("pid", 0))


class Tracer:
    """Collects spans for one trace; exports them as JSONL."""

    def __init__(self, trace_id: str | None = None,
                 parent: SpanContext | None = None) -> None:
        if parent is not None and trace_id is None:
            trace_id = parent.trace_id
        self.trace_id = trace_id if trace_id is not None else _new_id(128)
        #: Default parent for spans opened with an empty stack (set for
        #: worker-side tracers seeded from a coordinator context).
        self.root_parent = parent.span_id if parent is not None else None
        self.finished: list[Span] = []
        self._local = threading.local()
        self._pid = os.getpid()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def context(self) -> SpanContext:
        """The context children (possibly in other processes) attach to."""
        current = self.current_span()
        if current is not None:
            return current.context()
        return SpanContext(self.trace_id,
                           self.root_parent if self.root_parent else "")

    def start(self, name: str, parent: str | None = None,
              **attrs) -> Span:
        """Open a span with an explicit parent (async-safe: no stack)."""
        global _SPANS_STARTED
        _SPANS_STARTED += 1
        if parent is None:
            current = self.current_span()
            parent = (current.span_id if current is not None
                      else self.root_parent)
        span = Span(trace_id=self.trace_id, span_id=_new_id(),
                    parent_id=parent or None, name=name,
                    start=time.time(), attrs=dict(attrs))
        span.attrs["_t0"] = time.perf_counter()
        return span

    def finish(self, span: Span, **attrs) -> Span:
        """Close a span opened with :meth:`start`."""
        t0 = span.attrs.pop("_t0", None)
        span.duration = (time.perf_counter() - t0 if t0 is not None
                         else max(0.0, time.time() - span.start))
        span.attrs.update(attrs)
        with self._lock:
            self.finished.append(span)
        return span

    @contextmanager
    def span(self, name: str, parent: str | None = None, **attrs):
        """Record a span around a ``with`` block (sync code only).

        The thread-local stack supplies the parent, so nested blocks
        form the tree automatically.
        """
        span = self.start(name, parent=parent, **attrs)
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            self.finish(span)

    def emit(self, name: str, duration: float,
             parent: str | None = None, start: float | None = None,
             **attrs) -> Span:
        """Record an externally measured span (e.g. queue-wait time)."""
        span = Span(trace_id=self.trace_id, span_id=_new_id(),
                    parent_id=parent or None, name=name,
                    start=start if start is not None
                    else time.time() - duration,
                    duration=max(0.0, duration), attrs=dict(attrs))
        with self._lock:
            self.finished.append(span)
        return span

    # ------------------------------------------------------------------
    # Cross-process adoption
    # ------------------------------------------------------------------

    def adopt(self, span_dicts, parent: str | None = None) -> int:
        """Re-parent foreign spans (worker-side dumps) into this trace.

        Spans already addressed to this trace (the worker was seeded
        with a :class:`SpanContext`) are taken verbatim; spans from a
        different trace are rewritten onto this one, their roots
        attached under ``parent`` (or the current span).
        """
        if parent is None:
            current = self.current_span()
            parent = current.span_id if current is not None else None
        adopted = 0
        for raw in span_dicts:
            span = Span.from_dict(raw) if isinstance(raw, dict) else raw
            if span.trace_id != self.trace_id:
                span.trace_id = self.trace_id
                if span.parent_id is None:
                    span.parent_id = parent
            with self._lock:
                self.finished.append(span)
            adopted += 1
        return adopted

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def drain(self) -> list[Span]:
        """Remove and return every finished span (for streaming sinks)."""
        with self._lock:
            spans, self.finished = self.finished, []
        return spans

    def export_jsonl(self, path: str | Path, *,
                     append: bool = False) -> Path:
        """Write (or append) every finished span as one-JSON-per-line."""
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = list(self.finished)
        with open(path, "a" if append else "w", encoding="utf-8") as sink:
            for span in spans:
                sink.write(json.dumps(span.to_dict(), sort_keys=True)
                           + "\n")
        return path

    def flush_jsonl(self, path: str | Path) -> int:
        """Append and clear finished spans (long-running processes)."""
        spans = self.drain()
        if not spans:
            return 0
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as sink:
            for span in spans:
                sink.write(json.dumps(span.to_dict(), sort_keys=True)
                           + "\n")
        return len(spans)


# ----------------------------------------------------------------------
# The process-wide tracer
# ----------------------------------------------------------------------

_TRACER: Tracer | None = None

#: Process-wide count of spans ever opened.  The overhead benchmark
#: (``benchmarks/bench_obs.py``) asserts this stays flat across a
#: tracing-off run: the disabled path must do no observability work.
_SPANS_STARTED = 0


def spans_started() -> int:
    return _SPANS_STARTED


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install the process-wide tracer; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def current_tracer() -> Tracer | None:
    """The active tracer, or None when tracing is off.

    A tracer created in a parent process and inherited through
    ``fork`` is treated as absent: its buffer belongs to the parent,
    and worker spans travel back explicitly via :meth:`Tracer.adopt`.
    """
    tracer = _TRACER
    if tracer is not None and tracer._pid != os.getpid():
        return None
    return tracer


def tracing_active() -> bool:
    return current_tracer() is not None


def span_if_tracing(name: str, **attrs):
    """A ``name`` span when tracing, else a no-op context."""
    tracer = current_tracer()
    return nullcontext() if tracer is None else tracer.span(name, **attrs)


def trace_path_from_env() -> str | None:
    """The ``REPRO_TRACE`` output path, or None when unset/empty."""
    return os.environ.get(TRACE_ENV) or None


@contextmanager
def activate(path: str | Path | None = None,
             tracer: Tracer | None = None):
    """Install a tracer for the block; export to ``path`` on exit."""
    tracer = tracer if tracer is not None else Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        if path is not None:
            tracer.export_jsonl(path)


# ----------------------------------------------------------------------
# Phase timing
# ----------------------------------------------------------------------

@contextmanager
def phase_span(name: str, timings: dict[str, float] | None = None, *,
               tracer: Tracer | None = None, **attrs):
    """Time a pipeline phase as a span and add it to ``timings[name]``.

    The single measurement point for phase durations: when tracing is
    active the phase duration *is* the span duration, so ``--profile``
    and ``--trace`` can never disagree; when tracing is off it is a
    plain ``perf_counter`` difference and no span is opened.  Re-entering
    a name accumulates into the same ``timings`` entry.

    This is also where the sampling profiler learns which phase is
    active (:func:`repro.obs.profile.enter_phase`); with no profiler
    installed that hook is a single module-global read.
    """
    tagged = _profile.enter_phase(name)
    try:
        tracer = tracer if tracer is not None else current_tracer()
        if tracer is None:
            started = time.perf_counter()
            try:
                yield None
            finally:
                if timings is not None:
                    elapsed = time.perf_counter() - started
                    timings[name] = timings.get(name, 0.0) + elapsed
            return
        span = None
        try:
            with tracer.span(name, **attrs) as span:
                yield span
        finally:
            if timings is not None and span is not None:
                timings[name] = timings.get(name, 0.0) + span.duration
    finally:
        if tagged:
            _profile.exit_phase()
