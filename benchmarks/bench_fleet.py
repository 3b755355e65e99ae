"""Fleet throughput benchmark: serial vs worker pool vs via-serve.

Runs one small synthetic corpus through ``repro.fleet`` three ways --
serially in one process, fanned over ``--jobs N`` worker processes, and
through a live ``repro serve`` subprocess -- and reports binaries/second
for each.  Every pass uses a fresh run directory (checkpoints off the
table), and all three trends are asserted byte-identical before any
number is reported: a throughput figure for a schedule that changes the
answer would be meaningless.

The emitted BENCH JSON carries throughput only.  The committed
accuracy baseline is the trend document itself,
``benchmarks/results/TREND_fleet.json`` (the ``trend.json`` of the
60-binary CI grid, ``evalfleet plan --functions 6,8 --seed-range
0:10``), which the run-record store diffs against each revision's
fresh trend.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py --jobs 2
    PYTHONPATH=src python benchmarks/bench_fleet.py --binaries 24 \
        --json benchmarks/results/BENCH_fleet.json
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.fleet import (FleetConfig, check_separation, plan_grid,  # noqa: E402
                         run_fleet, trend_json)
from repro.perf import bench_envelope, write_bench_json  # noqa: E402
from repro.serve.client import ServeClient              # noqa: E402
from repro.synth.styles import STYLES                   # noqa: E402


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start_server(port: int, workers: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--workers", str(workers)],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def timed_pass(manifest, workdir: Path, label: str,
               config: FleetConfig) -> tuple[dict, float]:
    rundir = workdir / label
    shutil.rmtree(rundir, ignore_errors=True)
    started = time.perf_counter()
    trend = run_fleet(manifest, rundir, config)
    return trend, time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binaries", type=int, default=18,
                        help="corpus size (split across all styles)")
    parser.add_argument("--functions", type=int, default=6,
                        help="functions per generated binary")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for the pooled pass")
    parser.add_argument("--serve-workers", type=int, default=2,
                        help="server workers for the via-serve pass")
    parser.add_argument("--shard-size", type=int, default=6)
    parser.add_argument("--skip-serve", action="store_true",
                        help="omit the via-serve pass (e.g. sandboxes "
                             "without subprocess servers)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the numbers as a BENCH_*.json dump")
    args = parser.parse_args(argv)

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    if args.jobs > cores:
        print(f"note: {args.jobs} jobs but only {cores} usable CPU(s) "
              f"-- per-binary analysis is CPU-bound, so the pooled "
              f"pass cannot scale past the core count on this machine")

    seeds_per_cell = max(1, args.binaries // (len(STYLES) * 2))
    manifest = plan_grid(sorted(STYLES),
                         [args.functions, args.functions + 2],
                         range(seeds_per_cell)).limit(args.binaries)
    print(f"corpus: {len(manifest)} binaries "
          f"({args.functions}/{args.functions + 2} functions, "
          f"{len(STYLES)} styles)")

    workdir = Path(tempfile.mkdtemp(prefix="bench-fleet-"))
    passes: dict[str, float] = {}
    trends: dict[str, dict] = {}
    try:
        trends["serial"], passes["serial"] = timed_pass(
            manifest, workdir, "serial",
            FleetConfig(shard_size=args.shard_size))

        trends["pooled"], passes["pooled"] = timed_pass(
            manifest, workdir, "pooled",
            FleetConfig(jobs=args.jobs, shard_size=args.shard_size))

        if not args.skip_serve:
            port = free_port()
            server = start_server(port, args.serve_workers)
            try:
                ServeClient(port=port, timeout=300.0).wait_ready(
                    timeout=120.0)
                trends["serve"], passes["serve"] = timed_pass(
                    manifest, workdir, "serve",
                    FleetConfig(jobs=args.jobs, via="serve",
                                server=f"127.0.0.1:{port}",
                                shard_size=args.shard_size))
            finally:
                server.send_signal(signal.SIGTERM)
                server.wait(timeout=60)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    canonical = trend_json(trends["serial"])
    for label, trend in trends.items():
        if trend_json(trend) != canonical:
            raise SystemExit(f"trend mismatch: {label} pass disagrees "
                             f"with serial -- determinism bug")
    problems = check_separation(trends["serial"])
    if problems:
        raise SystemExit("separation violated: " + "; ".join(problems))

    for label, elapsed in passes.items():
        print(f"{label:>7s}: {len(manifest) / elapsed:6.2f} binaries/s "
              f"({elapsed:6.1f}s)")
    print(f"all {len(passes)} schedules produced byte-identical trends; "
          f"paper-predicted separation holds")

    if args.json:
        write_bench_json(args.json, bench_envelope(
            "fleet",
            config={"usable_cores": cores, "binaries": len(manifest),
                    "functions": args.functions, "jobs": args.jobs},
            metrics={
                "throughput": {
                    label: round(len(manifest) / elapsed, 3)
                    for label, elapsed in passes.items()},
                "seconds": {label: round(elapsed, 2)
                            for label, elapsed in passes.items()},
            },
        ))
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
