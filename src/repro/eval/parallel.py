"""Parallel evaluation driver: one corpus fan-out across processes.

Corpus evaluation is embarrassingly parallel -- every (tool, binary)
pair, and every fleet item, is independent -- so the experiment runners
and the fleet driver (:mod:`repro.fleet.driver`) share one generator,
:func:`fan_out`, over a :class:`~concurrent.futures.ProcessPoolExecutor`.
Three properties it guarantees:

* **Determinism**: results come back in submission order regardless of
  worker scheduling, so every table is byte-identical to a serial run.
* **Worker reuse**: each worker process keeps one
  :class:`~repro.core.disassembler.Disassembler` per distinct
  :class:`ToolSpec` and loads its models from the on-disk cache
  (:mod:`repro.stats.cache`) instead of retraining.
* **Picklability**: tools cross the process boundary as declarative
  :class:`ToolSpec` values (name + config), never as closures.

``jobs=None`` or ``jobs=1`` runs serially in-process (no pool, no
pickling); ``jobs=0`` means "one per CPU"; a negative count is an error.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from ..baselines import (heuristic_descent, linear_sweep,
                         probabilistic_disassembly, recursive_descent)
from ..binary.loader import TestCase
from ..core.config import DisassemblerConfig
from ..core.disassembler import Disassembler
from ..obs.metrics import REGISTRY
from ..obs.trace import (SpanContext, Tracer, activate, current_tracer,
                         span_if_tracing)
from ..result import DisassemblyResult
from ..superset.superset import cached_superset
from .metrics import Evaluation, aggregate, evaluate


@dataclass(frozen=True)
class ToolSpec:
    """A declarative, picklable description of one tool under test."""

    kind: str                               # "baseline" | "repro"
    name: str                               # display / registry name
    config: DisassemblerConfig | None = None   # repro-only override

    def __post_init__(self) -> None:
        if self.kind not in ("baseline", "repro"):
            raise ValueError(f"unknown tool kind: {self.kind!r}")
        if self.kind == "baseline" and self.name not in BASELINE_RUNNERS:
            raise ValueError(f"unknown baseline: {self.name!r}")


def baseline_spec(name: str) -> ToolSpec:
    return ToolSpec(kind="baseline", name=name)


def repro_spec(name: str = "repro (this paper)",
               config: DisassemblerConfig | None = None) -> ToolSpec:
    return ToolSpec(kind="repro", name=name, config=config)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _run_linear_sweep(case: TestCase) -> DisassemblyResult:
    return linear_sweep(case.text, superset=cached_superset(case.text))


def _run_recursive_descent(case: TestCase) -> DisassemblyResult:
    return recursive_descent(case.text, 0,
                             superset=cached_superset(case.text))


def _run_heuristic_descent(case: TestCase) -> DisassemblyResult:
    return heuristic_descent(case.text, 0)


def _run_probabilistic(case: TestCase) -> DisassemblyResult:
    return probabilistic_disassembly(case.text, 0)


#: Baseline registry; keys are the names used throughout the tables.
BASELINE_RUNNERS = {
    "linear-sweep": _run_linear_sweep,
    "recursive-descent": _run_recursive_descent,
    "rd-heuristic": _run_heuristic_descent,
    "probabilistic": _run_probabilistic,
}

#: Per-worker disassembler instances, one per distinct spec, so a worker
#: evaluating many binaries with the same tool builds models/scorers once.
_WORKER_DISASSEMBLERS: dict[ToolSpec, Disassembler] = {}


def disassembler_for(spec: ToolSpec) -> Disassembler:
    """The per-process cached :class:`Disassembler` for a repro spec.

    Every caller that wants warm-model reuse across many runs in one
    process -- the evaluation workers below and the serving layer's
    job workers (:mod:`repro.serve.scheduler`) -- goes through here.
    """
    if spec.kind != "repro":
        raise ValueError(f"no disassembler for tool kind {spec.kind!r}")
    disassembler = _WORKER_DISASSEMBLERS.get(spec)
    if disassembler is None:
        disassembler = (Disassembler(config=spec.config)
                        if spec.config is not None else Disassembler())
        _WORKER_DISASSEMBLERS[spec] = disassembler
    return disassembler


def run_tool(spec: ToolSpec, case: TestCase) -> DisassemblyResult:
    """Run one tool on one binary (reusing per-process disassemblers)."""
    if spec.kind == "baseline":
        return BASELINE_RUNNERS[spec.name](case)
    return disassembler_for(spec).disassemble(case)


def _evaluate_pair(pair: tuple[ToolSpec, TestCase]) -> Evaluation:
    spec, case = pair
    with span_if_tracing("eval-pair", tool=spec.name, case=case.name):
        return evaluate(run_tool(spec, case), case.truth)


def _predict_pair(pair: tuple[ToolSpec, TestCase]) -> DisassemblyResult:
    spec, case = pair
    with span_if_tracing("eval-pair", tool=spec.name, case=case.name):
        return run_tool(spec, case)


def _run_chunk(fn, items: list, ctx: dict | None) -> tuple[list, list]:
    """Worker side of :func:`fan_out`: one chunk, plus its spans.

    With a caller context the worker records under a tracer seeded
    from it (a tracer inherited through fork is ignored by
    :func:`current_tracer` -- wrong pid) and ships its spans home as
    dicts for :meth:`Tracer.adopt`.
    """
    if ctx is None:
        return [fn(item) for item in items], []
    with activate(tracer=Tracer(parent=SpanContext.from_dict(ctx))) \
            as tracer:
        values = [fn(item) for item in items]
    return values, [span.to_dict() for span in tracer.drain()]


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------

#: Chunks :func:`fan_out` re-ran in the coordinator after their future
#: raised (a crashed worker, a broken pool).
FANOUT_RERUNS = REGISTRY.counter(
    "repro_fanout_reruns_total",
    "Fan-out chunks re-run in the coordinator after a worker failure")


def effective_jobs(jobs: int | None) -> int:
    """Resolve a ``--jobs`` value: None/1 serial, 0 one-per-CPU."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = one per CPU), "
                         f"not {jobs}")
    return jobs or os.cpu_count() or 1


def _make_pool(workers: int):
    """The fan-out's worker pool (tests substitute their own)."""
    return ProcessPoolExecutor(max_workers=workers)


def fan_out(fn, items, jobs: int | None, *, chunk: int = 1):
    """Yield ``fn(item)`` for every item, in submission order.

    ``jobs`` None or 1 runs in-process.  Otherwise every ``chunk`` of
    consecutive items goes to one process pool up front, so the pool
    stays busy for as long as the caller keeps consuming; results come
    back in submission order regardless of worker scheduling, which
    makes every pooled table and trend byte-identical to a serial one.
    Models are warmed in the caller first: forked workers inherit the
    in-process cache, spawned ones find it on disk, and no worker ever
    regenerates the training corpus.

    With tracing active each chunk travels with the caller's
    :class:`SpanContext` and its worker spans re-parent into the
    caller's trace, so a pooled run produces *one* trace spanning
    every process.  A chunk whose future raises (a crashed worker, a
    broken pool) is re-run in the coordinator and counted in
    ``repro_fanout_reruns_total``.
    """
    items = list(items)
    chunk = max(1, chunk)
    chunks = [items[start:start + chunk]
              for start in range(0, len(items), chunk)]
    workers = min(effective_jobs(jobs), len(chunks))
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    from ..stats.training import default_models
    default_models()
    tracer = current_tracer()
    ctx = tracer.context().as_dict() if tracer is not None else None
    pool = _make_pool(workers)
    broken = False
    try:
        futures = [pool.submit(_run_chunk, fn, part, ctx)
                   for part in chunks]
        for part, future in zip(chunks, futures):
            try:
                values, spans = future.result()
            except Exception:  # noqa: BLE001 -- re-run below
                broken = True
                FANOUT_RERUNS.inc()
                values, spans = [fn(item) for item in part], []
            if tracer is not None:
                tracer.adopt(spans)
            yield from values
    finally:
        # A broken pool can hang on orderly shutdown; don't wait on it.
        pool.shutdown(wait=not broken, cancel_futures=True)


def evaluate_pairs(pairs: list[tuple[ToolSpec, TestCase]],
                   jobs: int | None = None, *,
                   chunk: int = 1) -> list[Evaluation]:
    """Evaluate (tool, case) pairs, preserving submission order exactly.

    ``chunk`` batches consecutive pairs into one worker task; callers
    that order pairs case-major pass the tool count so all runs over a
    given binary share one worker's superset cache.
    """
    return list(fan_out(_evaluate_pair, pairs, jobs, chunk=chunk))


def predict_pairs(pairs: list[tuple[ToolSpec, TestCase]],
                  jobs: int | None = None) -> list[DisassemblyResult]:
    """Raw tool outputs for (tool, case) pairs, in submission order.

    For experiments that need the predictions themselves (e.g. dynamic
    validation) rather than scored metrics.
    """
    return list(fan_out(_predict_pair, pairs, jobs))


def evaluate_tools(specs: list[ToolSpec], cases,
                   jobs: int | None = None) -> dict[str, Evaluation]:
    """Pooled evaluation of many tools over a corpus in one fan-out.

    Submitting the full (tool x case) cross product to a single pool
    load-balances better than per-tool batches: slow repro runs overlap
    with fast baseline runs.  Pairs go out case-major so consecutive
    runs share the per-process superset cache (every tool decodes the
    same section); results keep tool insertion order regardless.
    """
    cases = tuple(cases)
    pairs = [(spec, case) for case in cases for spec in specs]
    evaluations = evaluate_pairs(pairs, jobs, chunk=len(specs))
    width = len(specs)
    return {
        spec.name: aggregate([evaluations[case_index * width + spec_index]
                              for case_index in range(len(cases))],
                             spec.name)
        for spec_index, spec in enumerate(specs)
    }
