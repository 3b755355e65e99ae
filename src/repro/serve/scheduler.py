"""Bounded job queue feeding a persistent process worker pool.

The serving layer's execution engine.  Requests become
:class:`~repro.serve.protocol.JobRequest` values on a bounded FIFO
queue; a dispatcher task drains the queue into **micro-batches** that
run on a persistent :class:`~concurrent.futures.ProcessPoolExecutor`
(the same worker-reuse machinery as the parallel evaluation driver:
each worker process keeps one warm
:class:`~repro.core.disassembler.Disassembler` per distinct config via
:func:`repro.eval.parallel.disassembler_for` and loads models from the
on-disk cache instead of retraining).

Three service properties:

* **Backpressure** -- a full queue rejects immediately with
  :class:`QueueFullError` carrying a ``Retry-After`` hint derived from
  observed job latency, instead of letting latency grow unboundedly.
* **Deadlines** -- every job has an absolute deadline.  A job whose
  deadline passes while still queued is *cancelled*: it never reaches
  a worker (counted as ``jobs.cancelled``).  A job that exceeds its
  deadline while running produces a timeout response to the caller
  (``jobs.timed_out``) while the worker's eventual result is dropped.
* **Determinism** -- a batch runs its jobs sequentially in one worker
  through the exact offline code path, so serving output is
  byte-identical to ``repro disasm`` for the same container/config.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..obs.trace import SpanContext, Tracer, activate, current_tracer
from .metrics import ServeMetrics
from .protocol import JobRequest

__all__ = [
    "DrainingError",
    "JobCancelledError",
    "JobFailedError",
    "JobScheduler",
    "JobTimeoutError",
    "QueueFullError",
    "SchedulerConfig",
]


class QueueFullError(Exception):
    """The bounded queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(f"job queue full, retry after {retry_after:.0f}s")
        self.retry_after = retry_after


class DrainingError(Exception):
    """The scheduler is draining and accepts no new work."""


class JobCancelledError(Exception):
    """The job's deadline passed while it was still queued."""


class JobTimeoutError(Exception):
    """The job's deadline passed while it was running."""


class JobFailedError(Exception):
    """The worker raised while executing the job."""

    def __init__(self, message: str, error_kind: str = "") -> None:
        super().__init__(message)
        self.error_kind = error_kind


# ----------------------------------------------------------------------
# Worker side (module level: must be picklable for the process pool)
# ----------------------------------------------------------------------

#: Worker-process-local snapshots of recent disassemblies, keyed by
#: ``(sha256(blob), config_fingerprint)``.  A ``base`` fingerprint on a
#: later request that lands on the same worker re-disassembles
#: incrementally from the snapshot (a *near hit*: byte-identical
#: output, most of the superset/scoring phases skipped).  Bounded LRU;
#: purely a cache, so a miss just runs cold.
_FACT_BASES: "OrderedDict[tuple[str, str], object]" = OrderedDict()
_FACT_BASE_LIMIT = 8


def _remember_fact_base(key: tuple[str, str], snapshot: object) -> None:
    _FACT_BASES[key] = snapshot
    _FACT_BASES.move_to_end(key)
    while len(_FACT_BASES) > _FACT_BASE_LIMIT:
        _FACT_BASES.popitem(last=False)


def _execute_job(kind: str, blob: bytes, overrides: dict | None,
                 lint_disable: tuple[str, ...],
                 timings: dict[str, float], base: str = "") -> str:
    """Run one job in a worker; returns the response payload JSON."""
    import hashlib

    from ..binary.container import Binary
    from ..eval.parallel import disassembler_for, repro_spec
    from .protocol import config_from_overrides, config_fingerprint

    binary = Binary.from_bytes(blob)
    spec = repro_spec(config=config_from_overrides(overrides))
    disassembler = disassembler_for(spec)
    config_fp = config_fingerprint(overrides)
    rich = None
    if kind == "disassemble" and base:
        from ..core.engine.incremental import _INCREMENTAL
        snapshot = _FACT_BASES.get((base, config_fp))
        if snapshot is not None:
            from ..core.engine.incremental import disassemble_incremental
            _FACT_BASES.move_to_end((base, config_fp))
            rich, _ = disassemble_incremental(disassembler, snapshot,
                                              binary, timings=timings)
        else:
            _INCREMENTAL.inc(outcome="cold-miss")
    if rich is None:
        rich = disassembler.disassemble_rich(binary, timings=timings)
    if kind == "disassemble":
        from ..core.engine.incremental import FactBase
        _remember_fact_base(
            (hashlib.sha256(blob).hexdigest(), config_fp),
            FactBase.from_run(rich, disassembler.config))
        return rich.result.to_json()
    from ..lint import LintConfig, lint_disassembly
    report = lint_disassembly(rich.result, rich.superset,
                              config=LintConfig(disabled=lint_disable),
                              facts=rich.facts)
    return report.to_json()


def run_batch(items: list[tuple]) -> tuple:
    """Execute one micro-batch of worker items sequentially.

    Returns per-job ``(id, ok, payload-or-message, error_kind)`` tuples
    plus the batch's summed phase seconds for ``/metrics``.  The
    optional tail of each item is a ``base`` fingerprint (sixth
    element) and a span context dict (seventh).  When any item carries
    a span context, the worker records its spans under a tracer seeded
    from it and appends their dicts as a third return element for the
    coordinator to adopt.
    """
    timings: dict[str, float] = {}
    results = []
    spans: list[dict] = []
    for job_id, kind, blob, overrides, lint_disable, *rest in items:
        base = rest[0] if rest else ""
        ctx = SpanContext.from_dict(rest[1]) if len(rest) > 1 else None
        tracer = Tracer(parent=ctx) if ctx is not None else None
        try:
            with (activate(tracer=tracer) if tracer else nullcontext()), \
                    (tracer.span("job", id=job_id, kind=kind)
                     if tracer else nullcontext()):
                payload = _execute_job(kind, blob, overrides,
                                       tuple(lint_disable), timings, base)
            results.append((job_id, True, payload, ""))
        except Exception as error:   # noqa: BLE001 -- ferried to the caller
            results.append((job_id, False, str(error),
                            type(error).__name__))
        if tracer is not None:
            spans.extend(span.to_dict() for span in tracer.drain())
    if spans:
        return results, timings, spans
    return results, timings


def _warm_worker() -> None:
    """Process-pool initializer: load models before the first job."""
    from ..stats.training import default_models

    default_models()


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SchedulerConfig:
    """Queueing and batching knobs.

    Attributes:
        workers: worker processes; ``0`` runs jobs inline on a thread
            (no pool -- used by tests and tiny deployments).
        max_queue: bound on queued (not yet dispatched) jobs; the
            overflow answer is 429 at the HTTP layer.
        batch_max: most jobs dispatched to a worker as one batch.
        batch_window: seconds the dispatcher lingers after the first
            queued job to let a micro-batch fill (0 = no lingering).
    """

    workers: int = 1
    max_queue: int = 64
    batch_max: int = 8
    batch_window: float = 0.0


@dataclass
class _Pending:
    request: JobRequest
    future: asyncio.Future
    abandoned: bool = False
    enqueued: float = field(default_factory=time.monotonic)


def _swallow(future: asyncio.Future) -> None:
    """Consume an abandoned future's exception (silences the warning)."""
    if not future.cancelled():
        future.exception()


class JobScheduler:
    """The bounded queue + dispatcher + worker pool."""

    def __init__(self, config: SchedulerConfig | None = None,
                 metrics: ServeMetrics | None = None) -> None:
        self.config = config if config is not None else SchedulerConfig()
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self._queue: deque[_Pending] = deque()
        self._wakeup: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._slots: asyncio.Semaphore | None = None
        self._in_flight = 0
        self._draining = False
        #: Strong refs to in-flight batch-completion tasks (asyncio
        #: holds tasks weakly; without this they could be collected).
        self._batch_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Warm models, start the pool and the dispatcher task."""
        loop = asyncio.get_running_loop()
        # Train/load once in the parent: forked workers inherit the
        # in-process model cache; spawned workers hit the disk cache.
        from ..stats.training import default_models
        await loop.run_in_executor(None, default_models)
        if self.config.workers >= 1:
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.workers,
                initializer=_warm_worker)
        self._wakeup = asyncio.Event()
        self._slots = asyncio.Semaphore(max(1, self.config.workers))
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def drain(self) -> None:
        """Stop accepting work, finish everything queued and in flight."""
        self._draining = True
        while self._queue or self._in_flight:
            await asyncio.sleep(0.01)
        await self._shutdown()

    async def stop(self) -> None:
        """Immediate shutdown: fail queued jobs, drop the pool."""
        self._draining = True
        while self._queue:
            pending = self._queue.popleft()
            if not pending.future.done():
                pending.future.set_exception(DrainingError("shutting down"))
                pending.future.add_done_callback(_swallow)
        self.metrics.record_queue_depth(0)
        await self._shutdown()

    async def _shutdown(self) -> None:
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def workers_alive(self) -> int:
        """Live worker processes (``/healthz`` liveness probe).

        Pool workers spawn lazily, so before the first job this equals
        zero even on a healthy server; inline mode (``workers=0``)
        reports whether the dispatcher task is running instead.
        """
        if self._pool is None:
            return int(self._dispatcher is not None
                       and not self._dispatcher.done())
        processes = getattr(self._pool, "_processes", None) or {}
        return sum(1 for process in processes.values()
                   if process.is_alive())

    def retry_after(self) -> float:
        """Seconds after which a rejected client should retry.

        Estimated as the time to drain the current queue at the
        observed mean per-job latency across all workers, floored at
        one second so clients never busy-loop.
        """
        jobs = self.metrics.job_seconds.count()
        mean = (self.metrics.job_seconds.sum() / jobs if jobs else 0.0) or 0.5
        workers = max(1, self.config.workers)
        return max(1.0, round(len(self._queue) * mean / workers, 1))

    async def submit(self, request: JobRequest) -> str:
        """Queue one job and await its payload.

        Raises :class:`QueueFullError`, :class:`DrainingError`,
        :class:`JobCancelledError` (deadline passed while queued),
        :class:`JobTimeoutError` (deadline passed while running), or
        :class:`JobFailedError`.
        """
        if self._draining:
            raise DrainingError("scheduler is draining")
        if len(self._queue) >= self.config.max_queue:
            self.metrics.jobs.inc(outcome="rejected_queue_full")
            raise QueueFullError(self.retry_after())
        loop = asyncio.get_running_loop()
        pending = _Pending(request, loop.create_future())
        self._queue.append(pending)
        self.metrics.jobs.inc(outcome="submitted")
        self.metrics.record_queue_depth(len(self._queue))
        assert self._wakeup is not None, "scheduler not started"
        self._wakeup.set()

        remaining = request.deadline - time.monotonic()
        if remaining == float("inf"):
            return await pending.future
        try:
            return await asyncio.wait_for(asyncio.shield(pending.future),
                                          timeout=max(0.0, remaining))
        except asyncio.TimeoutError:
            # Deadline passed while the caller waited.  If the job is
            # still queued the dispatcher will skip it (cancelled); if
            # it is running its eventual result is dropped (timed out).
            pending.abandoned = True
            pending.future.add_done_callback(_swallow)
            self.metrics.jobs.inc(outcome="timed_out")
            raise JobTimeoutError(request.id) from None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None and self._slots is not None
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            while self._queue:
                if self.config.batch_window > 0 and \
                        len(self._queue) < self.config.batch_max:
                    # Linger briefly so a burst coalesces into fewer,
                    # fuller batches (one IPC round per batch).
                    await asyncio.sleep(self.config.batch_window)
                # Acquire the worker slot *before* taking jobs off the
                # queue: jobs waiting for a worker must stay visible to
                # the queue bound, or backpressure would never trigger.
                await self._slots.acquire()
                batch = self._take_batch()
                if not batch:
                    self._slots.release()
                    continue
                self._in_flight += len(batch)
                self.metrics.in_flight.set(self._in_flight)
                self.metrics.record_batch(len(batch))
                tracer = current_tracer()
                if tracer is not None:
                    now = time.monotonic()
                    for pending in batch:
                        ctx = pending.request.trace_ctx
                        if ctx is not None:
                            tracer.emit("queue-wait",
                                        now - pending.enqueued,
                                        parent=ctx.get("span_id"),
                                        id=pending.request.id)
                items = [p.request.worker_item() for p in batch]
                loop = asyncio.get_running_loop()
                task = loop.run_in_executor(self._pool, run_batch, items)
                finisher = asyncio.ensure_future(
                    self._finish_batch(batch, task))
                self._batch_tasks.add(finisher)
                finisher.add_done_callback(self._batch_tasks.discard)

    def _take_batch(self) -> list[_Pending]:
        """Pop up to ``batch_max`` runnable jobs; cancel expired ones."""
        now = time.monotonic()
        batch: list[_Pending] = []
        while self._queue and len(batch) < self.config.batch_max:
            pending = self._queue.popleft()
            if pending.request.deadline <= now or pending.abandoned:
                # Never reached a worker: genuinely cancelled.
                self.metrics.jobs.inc(outcome="cancelled")
                if not pending.future.done():
                    pending.future.set_exception(
                        JobCancelledError(pending.request.id))
                    pending.future.add_done_callback(_swallow)
                continue
            batch.append(pending)
        self.metrics.record_queue_depth(len(self._queue))
        return batch

    async def _finish_batch(self, batch: list[_Pending],
                            task: asyncio.Future) -> None:
        started = time.monotonic()
        try:
            # Tolerate both shapes: ``(results, phases)`` from untraced
            # workers and test stand-ins, ``(results, phases, spans)``
            # from tracing workers.
            results, phases, *extra = await task
        except Exception as error:   # noqa: BLE001 -- pool died
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(JobFailedError(
                        f"worker pool failure: {error}",
                        type(error).__name__))
                    pending.future.add_done_callback(_swallow)
                self.metrics.jobs.inc(outcome="failed")
        else:
            elapsed = time.monotonic() - started
            for _ in batch:
                self.metrics.job_seconds.observe(elapsed / max(1, len(batch)))
            self.metrics.record_worker_phases(phases)
            tracer = current_tracer()
            if tracer is not None:
                if extra and extra[0]:
                    tracer.adopt(extra[0])
                tracer.emit("worker-batch", elapsed, jobs=len(batch))
            by_id = {pending.request.id: pending for pending in batch}
            for job_id, ok, payload, error_kind in results:
                pending = by_id.pop(job_id, None)
                if pending is None:
                    continue
                if ok:
                    self.metrics.jobs.inc(outcome="completed")
                    if not pending.future.done():
                        pending.future.set_result(payload)
                else:
                    self.metrics.jobs.inc(outcome="failed")
                    if not pending.future.done():
                        pending.future.set_exception(
                            JobFailedError(payload, error_kind))
                        pending.future.add_done_callback(_swallow)
        finally:
            self._in_flight -= len(batch)
            self.metrics.in_flight.set(self._in_flight)
            assert self._slots is not None
            self._slots.release()
