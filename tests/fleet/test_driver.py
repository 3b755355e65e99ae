"""The fleet driver: checkpoints, resume, pools, invariance.

The acceptance property under test throughout: the trend document is
byte-identical no matter how the run was scheduled -- serial or pooled,
any shard size, interrupted and resumed, or re-aggregated later.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.fleet import FleetConfig, Manifest, run_fleet
from repro.fleet.driver import (_shard_path, detect_shard_size,
                                load_run_reports, pin_manifest)
from repro.obs.schema import validate_jsonl
from repro.obs.trace import activate


@pytest.fixture(scope="module")
def reference(small_manifest, models, tmp_path_factory):
    """One serial run to compare every other schedule against."""
    rundir = tmp_path_factory.mktemp("fleet-ref")
    run_fleet(small_manifest, rundir, FleetConfig(shard_size=2))
    return (rundir / "trend.json").read_text()


def test_run_writes_trend_and_checkpoints(small_manifest, models,
                                          tmp_path):
    trend = run_fleet(small_manifest, tmp_path, FleetConfig(shard_size=3))
    assert (tmp_path / "trend.json").exists()
    assert (tmp_path / "manifest.json").exists()
    shards = sorted((tmp_path / "shards").glob("shard-*.json"))
    assert len(shards) == 2                     # 3 + 1 items
    assert trend["binaries"]["ok"] == 4


def test_shard_size_does_not_change_the_trend(small_manifest, models,
                                              tmp_path, reference):
    run_fleet(small_manifest, tmp_path, FleetConfig(shard_size=1))
    assert (tmp_path / "trend.json").read_text() == reference


def test_thread_pool_does_not_change_the_trend(small_manifest, models,
                                               tmp_path, reference,
                                               monkeypatch):
    # Exercise the pooled collection path without process-fork cost by
    # running the in-process analysis on a thread pool.
    import repro.eval.parallel as parallel
    from concurrent.futures import ThreadPoolExecutor
    monkeypatch.setattr(parallel, "_make_pool",
                        lambda workers: ThreadPoolExecutor(workers))
    run_fleet(small_manifest, tmp_path,
              FleetConfig(jobs=3, shard_size=2))
    assert (tmp_path / "trend.json").read_text() == reference


def test_resume_skips_checkpointed_shards(small_manifest, models,
                                          tmp_path, reference):
    run_fleet(small_manifest, tmp_path, FleetConfig(shard_size=2))
    # Simulate a kill mid-run: drop the second shard and the trend.
    _shard_path(tmp_path, 1).unlink()
    (tmp_path / "trend.json").unlink()
    # Poison the surviving checkpoint's mtime-invisible content to prove
    # it is *reused*, not recomputed: inject a recognizable failure.
    path = _shard_path(tmp_path, 0)
    raw = json.loads(path.read_text())
    raw["reports"][0]["status"] = "failed"
    raw["reports"][0]["error"] = "sentinel: loaded from checkpoint"
    raw["reports"][0].pop("tools", None)
    raw["reports"][0].pop("diff", None)
    path.write_text(json.dumps(raw))

    trend = run_fleet(small_manifest, tmp_path, FleetConfig(shard_size=2))
    assert trend["binaries"]["failed"] == 1
    assert "sentinel" in trend["failures"][0]["error"]


def test_resume_after_torn_checkpoint(small_manifest, models, tmp_path,
                                      reference):
    run_fleet(small_manifest, tmp_path, FleetConfig(shard_size=2))
    # A kill -9 mid-write leaves a torn file; resume must recompute it.
    _shard_path(tmp_path, 1).write_text('{"schema": "repro-fleet-shard')
    (tmp_path / "trend.json").unlink()
    run_fleet(small_manifest, tmp_path, FleetConfig(shard_size=2))
    assert (tmp_path / "trend.json").read_text() == reference


def test_checkpoint_with_wrong_ids_is_recomputed(small_manifest, models,
                                                 tmp_path, reference):
    run_fleet(small_manifest, tmp_path, FleetConfig(shard_size=2))
    path = _shard_path(tmp_path, 0)
    raw = json.loads(path.read_text())
    raw["reports"] = list(reversed(raw["reports"]))   # id order mismatch
    path.write_text(json.dumps(raw))
    (tmp_path / "trend.json").unlink()
    run_fleet(small_manifest, tmp_path, FleetConfig(shard_size=2))
    assert (tmp_path / "trend.json").read_text() == reference


def test_traced_pooled_run_is_one_trace(small_manifest, models, tmp_path,
                                        reference):
    path = tmp_path / "fleet.jsonl"
    with activate(path) as tracer:
        with tracer.span("caller") as caller:
            run_fleet(small_manifest, tmp_path / "run",
                      FleetConfig(jobs=2, shard_size=2))
    assert (tmp_path / "run" / "trend.json").read_text() == reference

    # Worker spans come home from other processes and hang under the
    # run's span, which hangs under the caller's: every worker-side
    # root is a fleet-item span and re-parents onto the run.
    (run,) = [s for s in tracer.finished if s.name == "fleet-run"]
    assert run.parent_id == caller.span_id
    workers = [s for s in tracer.finished if s.pid != os.getpid()]
    assert workers
    worker_ids = {s.span_id for s in workers}
    worker_roots = [s for s in workers if s.parent_id not in worker_ids]
    assert {s.name for s in worker_roots} == {"fleet-item"}
    assert all(s.parent_id == run.span_id for s in worker_roots)
    summary = validate_jsonl(path)
    assert summary["traces"] == 1
    assert summary["roots"] == 1
    assert summary["pids"] > 1
    assert summary["dangling_parents"] == 0


def test_traced_serial_run_is_one_tree(small_manifest, models, tmp_path):
    path = tmp_path / "fleet.jsonl"
    with activate(path) as tracer:
        run_fleet(small_manifest, tmp_path / "run",
                  FleetConfig(shard_size=2))
    summary = validate_jsonl(path)
    assert summary["roots"] == 1
    assert summary["dangling_parents"] == 0
    spans = {s.span_id: s for s in tracer.finished}
    (run,) = [s for s in spans.values() if s.parent_id is None]
    assert run.name == "fleet-run"
    items = [s for s in spans.values() if s.name == "fleet-item"]
    assert len(items) == len(small_manifest)
    assert all(s.parent_id == run.span_id for s in items)

    def item_of(span):
        while span.name != "fleet-item":
            span = spans[span.parent_id]
        return span

    # Each item's three lint passes sit under that item.
    lint = [s for s in spans.values() if s.name.startswith("lint:")]
    assert lint
    assert all(item_of(s) in items for s in lint)


def test_driver_resolves_analyze_item_at_call_time(small_manifest, models,
                                                   tmp_path, monkeypatch):
    # The pipeline benchmark times each fleet item by patching this
    # module attribute; a serial run must route every item through it.
    import repro.fleet.driver as driver
    seen = []
    analyze_item = driver.analyze_item

    def spy(item_dict, **kwargs):
        seen.append(item_dict)
        return analyze_item(item_dict, **kwargs)

    monkeypatch.setattr(driver, "analyze_item", spy)
    run_fleet(small_manifest, tmp_path, FleetConfig(shard_size=3))
    assert seen == [item.to_dict() for item in small_manifest]


def test_broken_pool_falls_back_to_coordinator(small_manifest, models,
                                               tmp_path, reference,
                                               monkeypatch):
    import repro.eval.parallel as parallel

    class _DoomedFuture:
        def result(self):
            raise RuntimeError("worker exploded")

    class _DoomedPool:
        def submit(self, fn, *args):
            return _DoomedFuture()

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(parallel, "_make_pool",
                        lambda workers: _DoomedPool())
    reruns = parallel.FANOUT_RERUNS.total()
    lines: list[str] = []
    trend = run_fleet(small_manifest, tmp_path,
                      FleetConfig(jobs=2, shard_size=2),
                      progress=lines.append)
    assert trend["binaries"]["ok"] == 4       # all recomputed in-process
    assert (tmp_path / "trend.json").read_text() == reference
    # One chunk per item, each counted once and reported at the end.
    assert parallel.FANOUT_RERUNS.total() - reruns == 4
    assert "4 chunks re-run in-process" in lines[-1]


def test_pin_manifest_rejects_a_different_corpus(small_manifest,
                                                 tmp_path):
    pin_manifest(tmp_path, small_manifest)
    other = Manifest(small_manifest.items[:2])
    with pytest.raises(ValueError, match="different manifest"):
        pin_manifest(tmp_path, other)


def test_empty_manifest_is_an_error(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        run_fleet(Manifest([]), tmp_path, FleetConfig())


def test_detect_shard_size(small_manifest, models, tmp_path):
    assert detect_shard_size(tmp_path) is None
    run_fleet(small_manifest, tmp_path, FleetConfig(shard_size=3))
    assert detect_shard_size(tmp_path) == 3


def test_load_run_reports_partial_view(small_manifest, models, tmp_path):
    run_fleet(small_manifest, tmp_path, FleetConfig(shard_size=2))
    _shard_path(tmp_path, 1).unlink()
    manifest, reports, missing = load_run_reports(tmp_path)
    assert len(manifest) == 4
    assert len(reports) == 2
    assert missing == 1


def test_config_validation():
    with pytest.raises(ValueError):
        FleetConfig(via="carrier-pigeon")
    with pytest.raises(ValueError):
        FleetConfig(via="serve")              # server required
    with pytest.raises(ValueError, match="jobs must be >= 0"):
        FleetConfig(jobs=-4)
