"""Tests for the job scheduler: batching, backpressure, deadlines, drain.

These drive :class:`~repro.serve.scheduler.JobScheduler` directly on a
private event loop with ``workers=0`` (inline thread execution) and a
monkeypatched ``run_batch``, so queueing semantics are tested without
paying for real disassembly.  ``run_batch`` is resolved as a module
global at dispatch time, which is what makes the monkeypatch visible.
"""

import asyncio
import threading
import time

import pytest

from repro.serve import scheduler as sched_mod
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import JobRequest
from repro.serve.scheduler import (DrainingError, JobFailedError,
                                   JobScheduler, JobTimeoutError,
                                   QueueFullError, SchedulerConfig)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30.0))


def make_scheduler(**overrides) -> JobScheduler:
    config = SchedulerConfig(**{"workers": 0, **overrides})
    return JobScheduler(config, metrics=ServeMetrics())


def job(job_id: str, deadline: float = float("inf")) -> JobRequest:
    return JobRequest(id=job_id, kind="disassemble", blob=b"blob",
                      deadline=deadline)


def jobs(scheduler: JobScheduler) -> dict[str, int]:
    """The scheduler's job counters, by outcome."""
    return scheduler.metrics.snapshot()["jobs"]


def echo_batch(items):
    """A run_batch stand-in: each job succeeds with its own id."""
    return ([(job_id, True, f"payload-{job_id}", "")
             for job_id, *_ in items], {"superset": 0.001})


class GatedBatch:
    """A run_batch stand-in that blocks until .release() is called."""

    def __init__(self):
        self.gate = threading.Event()
        self.calls: list[list[str]] = []

    def __call__(self, items):
        self.calls.append([job_id for job_id, *_ in items])
        assert self.gate.wait(20.0), "test forgot to release the gate"
        return echo_batch(items)

    def release(self):
        self.gate.set()


class TestExecution:
    def test_submit_returns_worker_payload(self, monkeypatch):
        monkeypatch.setattr(sched_mod, "run_batch", echo_batch)
        scheduler = make_scheduler()

        async def go():
            await scheduler.start()
            try:
                return await scheduler.submit(job("j1"))
            finally:
                await scheduler.stop()

        assert run(go()) == "payload-j1"
        assert jobs(scheduler)["submitted"] == 1
        assert jobs(scheduler)["completed"] == 1
        # Worker phase timings flow back into the shared metrics.
        phases = scheduler.metrics.snapshot()["worker_phases_s"]
        assert phases["superset"] > 0
        assert scheduler.metrics.job_seconds.count() == 1

    def test_worker_failure_becomes_job_failed_error(self, monkeypatch):
        def failing_batch(items):
            return ([(job_id, False, "kaboom", "RuntimeError")
                     for job_id, *_ in items], {})

        monkeypatch.setattr(sched_mod, "run_batch", failing_batch)
        scheduler = make_scheduler()

        async def go():
            await scheduler.start()
            try:
                with pytest.raises(JobFailedError, match="kaboom") as exc:
                    await scheduler.submit(job("j1"))
                return exc.value.error_kind
            finally:
                await scheduler.stop()

        assert run(go()) == "RuntimeError"
        assert jobs(scheduler)["failed"] == 1

    def test_micro_batch_coalesces_burst(self, monkeypatch):
        gated = GatedBatch()
        monkeypatch.setattr(sched_mod, "run_batch", gated)
        scheduler = make_scheduler(batch_max=8, batch_window=0.05)

        async def go():
            await scheduler.start()
            try:
                tasks = [asyncio.ensure_future(scheduler.submit(job(f"j{i}")))
                         for i in range(3)]
                await asyncio.sleep(0)      # let all three enqueue
                gated.release()
                return await asyncio.gather(*tasks)
            finally:
                await scheduler.stop()

        payloads = run(go())
        assert sorted(payloads) == ["payload-j0", "payload-j1",
                                    "payload-j2"]
        # The linger window turned the burst into a single batch.
        assert gated.calls == [["j0", "j1", "j2"]]
        batching = scheduler.metrics.snapshot()["batching"]
        assert batching["batches"] == 1
        assert batching["batched_jobs"] == 3


class TestBackpressure:
    def test_queue_full_rejects_with_retry_hint(self, monkeypatch):
        gated = GatedBatch()
        monkeypatch.setattr(sched_mod, "run_batch", gated)
        scheduler = make_scheduler(max_queue=1, batch_max=1)

        async def go():
            await scheduler.start()
            try:
                first = asyncio.ensure_future(scheduler.submit(job("j1")))
                # Wait for the dispatcher to hand j1 to the (blocked)
                # worker so the single worker slot is occupied.
                while not gated.calls:
                    await asyncio.sleep(0.005)
                second = asyncio.ensure_future(scheduler.submit(job("j2")))
                await asyncio.sleep(0.02)   # j2 sits queued: queue is full
                with pytest.raises(QueueFullError) as exc:
                    await scheduler.submit(job("j3"))
                gated.release()
                await asyncio.gather(first, second)
                return exc.value.retry_after
            finally:
                await scheduler.stop()

        retry_after = run(go())
        assert retry_after >= 1.0
        assert jobs(scheduler)["rejected_queue_full"] == 1
        # j3 never entered the queue; j1 and j2 both completed.
        assert jobs(scheduler)["completed"] == 2
        assert [call for call in gated.calls] == [["j1"], ["j2"]]

    def test_retry_hint_uses_mean_job_latency(self):
        scheduler = make_scheduler()
        scheduler._queue.extend([None] * 10)
        # No finished job yet: the 0.5 s fallback mean.
        assert scheduler.retry_after() == 5.0
        scheduler.metrics.job_seconds.observe(1.5)
        scheduler.metrics.job_seconds.observe(2.5)
        assert scheduler.retry_after() == 20.0


class TestDeadlines:
    def test_expired_queued_job_is_cancelled_not_run(self, monkeypatch):
        gated = GatedBatch()
        monkeypatch.setattr(sched_mod, "run_batch", gated)
        scheduler = make_scheduler(batch_max=1)

        async def go():
            await scheduler.start()
            try:
                first = asyncio.ensure_future(scheduler.submit(job("j1")))
                while not gated.calls:
                    await asyncio.sleep(0.005)
                # j2's deadline expires while it waits for the slot.
                deadline = time.monotonic() + 0.05
                with pytest.raises(JobTimeoutError):
                    await scheduler.submit(job("j2", deadline=deadline))
                gated.release()
                await first
                # Give the dispatcher a beat to pop and cancel j2.
                await asyncio.sleep(0.05)
            finally:
                await scheduler.stop()

        run(go())
        # j2 never reached a worker: the dispatcher discarded it.
        assert gated.calls == [["j1"]]
        assert jobs(scheduler)["timed_out"] == 1
        assert jobs(scheduler)["cancelled"] == 1

    def test_timeout_while_running_drops_late_result(self, monkeypatch):
        gated = GatedBatch()
        monkeypatch.setattr(sched_mod, "run_batch", gated)
        scheduler = make_scheduler()

        async def go():
            await scheduler.start()
            try:
                deadline = time.monotonic() + 0.05
                with pytest.raises(JobTimeoutError):
                    await scheduler.submit(job("j1", deadline=deadline))
                gated.release()             # worker finishes too late
                await asyncio.sleep(0.05)
            finally:
                await scheduler.stop()

        run(go())
        assert gated.calls == [["j1"]]      # it did run...
        assert jobs(scheduler)["timed_out"] == 1
        # ...and its late completion is still accounted as completed
        # work, just never delivered to the (gone) caller.
        assert jobs(scheduler)["completed"] == 1


class TestDrain:
    def test_drain_finishes_queued_work(self, monkeypatch):
        monkeypatch.setattr(sched_mod, "run_batch", echo_batch)
        scheduler = make_scheduler(batch_max=2)

        async def go():
            await scheduler.start()
            tasks = [asyncio.ensure_future(scheduler.submit(job(f"j{i}")))
                     for i in range(5)]
            await asyncio.sleep(0)
            await scheduler.drain()
            return await asyncio.gather(*tasks)

        payloads = run(go())
        assert len(payloads) == 5
        assert jobs(scheduler)["completed"] == 5

    def test_draining_scheduler_rejects_new_work(self, monkeypatch):
        monkeypatch.setattr(sched_mod, "run_batch", echo_batch)
        scheduler = make_scheduler()

        async def go():
            await scheduler.start()
            await scheduler.drain()
            with pytest.raises(DrainingError):
                await scheduler.submit(job("late"))

        run(go())

    def test_stop_fails_queued_jobs_immediately(self, monkeypatch):
        gated = GatedBatch()
        monkeypatch.setattr(sched_mod, "run_batch", gated)
        scheduler = make_scheduler(batch_max=1)

        async def go():
            await scheduler.start()
            first = asyncio.ensure_future(scheduler.submit(job("j1")))
            while not gated.calls:
                await asyncio.sleep(0.005)
            second = asyncio.ensure_future(scheduler.submit(job("j2")))
            await asyncio.sleep(0.02)
            gated.release()
            await scheduler.stop()
            results = await asyncio.gather(first, second,
                                           return_exceptions=True)
            return results

        first, second = run(go())
        assert first == "payload-j1"
        assert isinstance(second, DrainingError)
