"""The fleet driver: sharded, fault-tolerant, resumable fan-out.

A fleet run materializes a manifest into per-binary reports through
the corpus fan-out (:func:`repro.eval.parallel.fan_out`: in-process or
on process workers, which run the corrected tool themselves or ask a
running ``repro serve`` instance for it), writing each completed
*shard* of reports to disk as an atomic checkpoint as soon as its
reports arrive.  Three failure domains are handled explicitly:

* **A failed binary** (malformed file, analysis crash) is quarantined
  inside its report by :func:`~repro.fleet.analysis.analyze_item` --
  the shard completes, the failure shows up in the trend.
* **A crashed worker** (OOM-killed child, broken pool) is detected at
  result-collection time; the fan-out re-runs the affected items in
  the coordinator and counts them in ``repro_fanout_reruns_total``, so
  the fleet still completes.
* **A killed run** (kill -9, preempted CI job) loses at most the
  shards in flight: a rerun over the same run directory loads every
  completed checkpoint, recomputes only the rest, and -- because
  aggregation is order- and schedule-independent -- produces a trend
  byte-identical to an uninterrupted run.

The run directory pins its manifest: resuming against a different
manifest is an error, not a silent mix of two corpora.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from ..eval.parallel import FANOUT_RERUNS, effective_jobs, fan_out
from ..obs.trace import span_if_tracing
from .aggregate import aggregate, publish_metrics, write_trend
from .analysis import analyze_item
from .manifest import Manifest

#: Schema tag embedded in every shard checkpoint.
SHARD_SCHEMA = "repro-fleet-shard-v1"

#: Default items per checkpoint shard.
DEFAULT_SHARD_SIZE = 25


@dataclass(frozen=True)
class FleetConfig:
    """How one fleet run executes (never *what* it evaluates)."""

    jobs: int | None = None          # None/1 serial, 0 = one per CPU
    via: str = "inprocess"           # "inprocess" | "serve"
    server: str = ""                 # host:port when via="serve"
    shard_size: int = DEFAULT_SHARD_SIZE
    limit: int | None = None

    def __post_init__(self) -> None:
        if self.via not in ("inprocess", "serve"):
            raise ValueError(f"unknown via mode {self.via!r}")
        if self.via == "serve" and not self.server:
            raise ValueError("--via serve needs a --server host:port")
        effective_jobs(self.jobs)    # rejects a negative count


def _shard_path(rundir: Path, index: int) -> Path:
    return rundir / "shards" / f"shard-{index:05d}.json"


def _write_atomic(path: Path, payload: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(payload)
    os.replace(tmp, path)


def _load_checkpoint(path: Path, expected_ids: list[str]) -> list | None:
    """A shard's reports, or None when absent/torn/mismatched."""
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if raw.get("schema") != SHARD_SCHEMA:
        return None
    reports = raw.get("reports")
    if not isinstance(reports, list):
        return None
    if [r.get("id") for r in reports] != expected_ids:
        return None
    return reports


def _write_checkpoint(path: Path, index: int, reports: list) -> None:
    _write_atomic(path, json.dumps({
        "schema": SHARD_SCHEMA,
        "shard": index,
        "reports": reports,
    }, sort_keys=True) + "\n")


def pin_manifest(rundir: str | Path, manifest: Manifest) -> Path:
    """Store (or verify) the run directory's manifest."""
    rundir = Path(rundir)
    rundir.mkdir(parents=True, exist_ok=True)
    pinned = rundir / "manifest.json"
    if pinned.exists():
        if Manifest.load(pinned).to_json() != manifest.to_json():
            raise ValueError(
                f"{pinned} pins a different manifest; use a fresh "
                f"--rundir for a different corpus")
    else:
        manifest.save(pinned)
    return pinned


def _analyze_args(args: tuple) -> dict:
    # Resolves ``analyze_item`` at call time: the pipeline benchmark
    # patches this module attribute to time each item.
    item_dict, via, server = args
    with span_if_tracing("fleet-item", **item_dict):
        return analyze_item(item_dict, via=via, server=server)


def run_fleet(manifest: Manifest, rundir: str | Path,
              config: FleetConfig = FleetConfig(),
              progress=None) -> dict:
    """Execute (or resume) a fleet run; returns the trend document.

    ``progress`` is an optional ``callable(str)`` fed one line per
    shard -- the CLI passes ``print``, tests pass nothing.
    """
    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    from ..obs.metrics import REGISTRY
    rundir = Path(rundir)
    manifest = manifest.limit(config.limit)
    if not len(manifest):
        raise ValueError("empty manifest")
    pin_manifest(rundir, manifest)

    shards = manifest.shards(config.shard_size)
    shard_ids = [[item.id for item in shard] for shard in shards]
    shard_gauge = REGISTRY.gauge(
        "repro_fleet_shards", "Fleet shard progress, by state")
    shard_seconds = REGISTRY.histogram(
        "repro_fleet_shard_seconds",
        "Wall-clock seconds per computed fleet shard")
    shard_gauge.set(len(shards), state="total")

    # Load completed checkpoints; collect what still needs computing.
    reports_by_shard: dict[int, list] = {}
    pending: list[int] = []
    for index, ids in enumerate(shard_ids):
        loaded = _load_checkpoint(_shard_path(rundir, index), ids)
        if loaded is not None:
            reports_by_shard[index] = loaded
        else:
            pending.append(index)
    if reports_by_shard:
        say(f"resume: {len(reports_by_shard)}/{len(shards)} shards "
            f"already checkpointed")
    shard_gauge.set(len(reports_by_shard), state="done")

    started = time.perf_counter()
    reruns_before = FANOUT_RERUNS.total()
    items = [(item.to_dict(), config.via, config.server)
             for index in pending for item in shards[index]]
    with span_if_tracing("fleet-run", items=len(items)), \
            closing(fan_out(_analyze_args, items, config.jobs)) as results:
        for index in pending:
            shard_started = time.perf_counter()
            reports = list(islice(results, len(shards[index])))
            seconds = time.perf_counter() - shard_started
            _write_checkpoint(_shard_path(rundir, index), index, reports)
            reports_by_shard[index] = reports
            shard_gauge.inc(1, state="done")
            shard_seconds.observe(seconds)
            failed = sum(1 for r in reports if r["status"] != "ok")
            suffix = f" ({failed} quarantined)" if failed else ""
            say(f"shard {index:05d}: {len(reports)} binaries in "
                f"{seconds:.1f}s{suffix}")
    elapsed = time.perf_counter() - started
    reruns = int(FANOUT_RERUNS.total() - reruns_before)

    reports = [report for index in range(len(shards))
               for report in reports_by_shard[index]]
    trend = aggregate(reports)
    write_trend(rundir / "trend.json", trend)
    publish_metrics(trend)
    computed = sum(len(shard_ids[i]) for i in pending)
    say(f"fleet: {trend['binaries']['ok']}/{trend['binaries']['total']} "
        f"ok, {trend['binaries']['failed']} quarantined "
        f"({computed} computed in {elapsed:.1f}s, "
        f"{len(reports) - computed} from checkpoints"
        + (f", {reruns} chunks re-run in-process" if reruns else "")
        + ")")
    return trend


def detect_shard_size(rundir: str | Path) -> int | None:
    """The shard size of a run directory's existing checkpoints.

    Recovered as the longest checkpointed shard (every shard but the
    last is full-size).  ``None`` when nothing is checkpointed yet --
    ``evalfleet resume`` uses this so a resumed run keeps the
    interrupted run's sharding without re-passing ``--shard-size``.
    """
    shard_dir = Path(rundir) / "shards"
    sizes = []
    if shard_dir.is_dir():
        for path in sorted(shard_dir.glob("shard-*.json")):
            try:
                sizes.append(len(json.loads(path.read_text())["reports"]))
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                continue
    return max(sizes, default=None)


def load_run_reports(rundir: str | Path) -> tuple[Manifest, list, int]:
    """Checkpointed reports of a (possibly unfinished) run directory.

    Returns the pinned manifest, every checkpointed report in manifest
    order, and the number of shards still missing -- ``repro evalfleet
    report`` uses this to summarize a run in flight.  The shard size
    is recovered from the first checkpoint on disk.
    """
    rundir = Path(rundir)
    manifest = Manifest.load(rundir / "manifest.json")
    shard_size = detect_shard_size(rundir) or DEFAULT_SHARD_SIZE
    reports: list = []
    missing = 0
    for index, shard in enumerate(manifest.shards(shard_size)):
        loaded = _load_checkpoint(_shard_path(rundir, index),
                                  [item.id for item in shard])
        if loaded is None:
            missing += 1
        else:
            reports.extend(loaded)
    return manifest, reports, missing
