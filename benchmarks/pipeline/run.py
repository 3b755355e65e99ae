"""Pipeline benchmark: latency, throughput and memory of cold, incremental
and fleet disassembly, plus a traced per-layer breakdown.

Usage::

    PYTHONPATH=src python benchmarks/pipeline/run.py [--workload NAME]
        [--seed N] [--seconds S] [--trace [0|1]] [--json PATH]
        [--spans PATH] [--src DIR]

Every workload runs in a fresh child process (``workloads.py``) with its
own empty model cache, one after another.  An untraced run reports the
end-to-end metrics; ``--trace`` reports the per-layer metrics instead,
from spans recorded around each layer's entry point.  ``--src`` points
the same harness at another checkout's ``src/``, so two commits are
measured by identical benchmark code.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every operation passed its
correctness check.  See README.md for the metrics and how to compare
two commits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

import layers  # noqa: E402  (HERE is sys.path[0] when run as a script)
from workloads import WORKLOADS  # noqa: E402

#: Default measuring time per workload, in seconds (``run_seconds`` in
#: BENCHMARK.json).
DEFAULT_SECONDS = 20

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 3

#: Hard limit on one workload child, in seconds.
CHILD_TIMEOUT = 150

#: Scratch space inside the checkout; each run takes a fresh
#: subdirectory and removes it when it ends.
SCRATCH = ROOT / ".pipeline-bench"

#: (name, unit) of the end-to-end metrics, reported by untraced runs.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_kb_s", "KiB/s"),
    ("peak_rss_mb", "MiB"),
)

#: (name, unit) of the per-layer metrics every workload reports under
#: ``--trace``.  Layers that only some workloads reach (lint, baselines,
#: synth, eval, fleet, core.engine.incremental) are printed and written
#: to ``--json`` too, but are not part of this fixed set.
PER_LAYER = (
    ("superset.self_ms", "ms"),
    ("superset.offsets", "count"),
    ("superset.cache_hit_ratio", "ratio"),
    ("analysis.behavior.self_ms", "ms"),
    ("analysis.behavior.offsets_scored", "count"),
    ("stats.scoring.self_ms", "ms"),
    ("stats.scoring.offsets_scored", "count"),
    ("stats.datamodel.self_ms", "ms"),
    ("stats.datamodel.tables_found", "count"),
    ("stats.datamodel.tables_kept_ratio", "ratio"),
    ("analysis.idioms.self_ms", "ms"),
    ("analysis.idioms.prologues", "count"),
    ("core.engine.ingest_ms", "ms"),
    ("core.engine.solve_ms", "ms"),
    ("core.engine.finish_ms", "ms"),
    ("core.engine.accept_ratio", "ratio"),
    ("core.functions.self_ms", "ms"),
    ("core.functions.found", "count"),
    ("core.disassembler.self_ms", "ms"),
    ("trace.overhead", "ratio"),
)

_SETUP_PROBE = ("import sys, time\n"
                "from repro.core import Disassembler\n"
                "Disassembler()\n"
                "sys.stdout.write(repr(time.monotonic()))\n")


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to an output being wrong)."""


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------

#: Candidate tail percentiles, in per mille, highest first.
_TAIL_PER_MILLE = (999, 990, 950, 900, 750)


def percentile(values: list[float], per_mille: int) -> float:
    """Nearest-rank percentile (``per_mille`` / 10 percent)."""
    ordered = sorted(values)
    rank = -(-per_mille * len(ordered) // 1000)
    return ordered[max(rank, 1) - 1]


def tail_per_mille(count: int) -> int | None:
    """The highest tail percentile with at least ten samples beyond it.

    None when even the 75th has fewer than ten beyond it; the 90th
    needs at least 100 samples.
    """
    for per_mille in _TAIL_PER_MILLE:
        if count - -(-per_mille * count // 1000) >= 10:
            return per_mille
    return None


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

def child_env(src: Path, workdir: Path) -> dict:
    """The environment of every child: the default program, no tracing."""
    for name, default in (("REPRO_DECODER", "compiled"),
                          ("REPRO_ENGINE", "facts")):
        value = os.environ.get(name, "").strip().lower()
        if value not in ("", default):
            raise BenchError(f"refusing to run with {name}={value}: the "
                             f"benchmark measures the default {default}")
    env = {key: value for key, value in os.environ.items()
           if key not in ("REPRO_TRACE", "REPRO_PROFILE",
                          "REPRO_NO_MODEL_CACHE", "REPRO_CACHE_DIR")}
    env.update(PYTHONPATH=str(src), TMPDIR=str(workdir),
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def measure_setup(env: dict, workdir: Path) -> list[float]:
    """Seconds from spawn until ``Disassembler()`` returns, per probe.

    Each probe starts with an empty model cache, so this covers the
    import and training the default models.  The probe reports
    ``time.monotonic()``, which on Linux is one clock for every process.
    """
    times = []
    for index in range(SETUP_PROBES):
        cache = workdir / f"setup-cache-{index}"
        started = time.monotonic()
        try:
            probe = subprocess.run(
                [sys.executable, "-c", _SETUP_PROBE],
                env=dict(env, REPRO_CACHE_DIR=str(cache)), cwd=ROOT,
                capture_output=True, text=True, timeout=60, check=True)
        except (subprocess.SubprocessError, OSError) as error:
            raise BenchError(f"setup probe failed: {error}") from error
        times.append(float(probe.stdout) - started)
    return times


def run_workload(workload: str, args, env: dict, workdir: Path) -> dict:
    """Run one workload child; returns its result document."""
    out = workdir / f"{workload}.json"
    command = [sys.executable, str(HERE / "workloads.py"), workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out),
               "--workdir", str(workdir)]
    if args.trace:
        command += ["--spans", str(workdir / f"{workload}.spans.jsonl")]
    cache = workdir / f"cache-{workload}"
    try:
        subprocess.run(command, env=dict(env, REPRO_CACHE_DIR=str(cache)),
                       cwd=ROOT, stdout=sys.stderr, timeout=CHILD_TIMEOUT,
                       check=True)
    except (subprocess.SubprocessError, OSError) as error:
        raise BenchError(f"{workload}: {error}") from error
    return json.loads(out.read_text())


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def end_to_end(result: dict, setup_s: float) -> dict:
    """End-to-end metrics of an untraced run, plus printed-only extras."""
    latencies = result["latencies_ms"]
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(latencies),
        "throughput_kb_s": result["text_bytes"] / 1024 / result["timed_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_fraction": result["failed"] / max(result["attempted"], 1),
        "ops": len(latencies),
    }
    if result["scored_bytes"]:     # incremental results have no labels
        metrics.update({
            "byte_error_rate": result["error_bytes"] / result["scored_bytes"],
            "error_bytes": result["error_bytes"],
            "census_error_bytes": result["census_error_bytes"]})
    tail = tail_per_mille(len(latencies))
    if tail is not None:
        metrics[f"latency_p{tail / 10:g}_ms"] = percentile(latencies, tail)
    return metrics


def per_layer(result: dict, spans: list[dict]) -> dict:
    """Per-layer metrics of a traced run."""
    metrics = layers.layer_metrics(spans)
    untraced = result["text_bytes"] / result["timed_s"]
    traced = result["traced_text_bytes"] / result["traced_timed_s"]
    metrics["trace.overhead"] = 1.0 - traced / untraced
    shares = layers.coverage(spans)
    metrics["trace.coverage_median"] = statistics.median(shares)
    metrics["trace.coverage_min"] = min(shares)
    metrics["ops"] = len(result["traced_latencies_ms"])
    if result["scored_bytes"]:
        metrics["census_error_bytes"] = result["census_error_bytes"]
    return metrics


def load_spans(path: Path) -> list[dict]:
    """Spans of a traced child, validated against ``repro-trace-v1``."""
    from repro.obs.schema import SchemaError, validate_jsonl
    try:
        validate_jsonl(path)
    except (OSError, SchemaError) as error:
        raise BenchError(f"span export {path}: {error}") from error
    return [json.loads(line) for line in path.read_text().splitlines()]


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

_UNITS = dict(END_TO_END + PER_LAYER)


def _unit(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith("_ms") or name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("_ratio") or name.endswith("_fraction") \
            or name.endswith("_rate") or name.startswith("trace."):
        return "ratio"
    return "count"


def print_end_to_end(workload: str, result: dict, metrics: dict) -> None:
    ops = metrics["ops"]
    print(f"{workload}: {ops} ops, {result['attempted']} attempted, "
          f"{result['failed']} failed")
    samples = {"setup_s": SETUP_PROBES, "peak_rss_mb": 1,
               "census_error_bytes": result["census_ops"]}
    for name, value in metrics.items():
        if name != "ops":
            print(f"  {name:<20} {value:>12.6g} {_unit(name):<6} "
                  f"n={samples.get(name, ops)}")
    if not any(name.startswith("latency_p") and name != "latency_p50_ms"
               for name in metrics):
        print(f"  (no tail percentile: n={ops} leaves fewer than ten "
              f"samples beyond p75; p90 needs n >= 100)")
    for message in result["failures"]:
        print(f"  FAILED {message}")


def print_per_layer(workload: str, result: dict, metrics: dict,
                    spans: list[dict]) -> None:
    print(f"{workload}: {metrics['ops']} traced ops, "
          f"trace.overhead {metrics['trace.overhead']:+.1%}, child spans "
          f"cover {metrics['trace.coverage_median']:.1%} of the top span "
          f"(min {metrics['trace.coverage_min']:.1%})")
    print(f"  {'layer':<26} {'self ms/op':>10} {'share':>7}")
    for layer, share in sorted(layers.layer_shares(spans).items(),
                               key=lambda item: -item[1]):
        self_ms = metrics[layers.time_metric(layer)]
        print(f"  {layer:<26} {self_ms:>10.2f} {share:>7.1%}")
    for name, value in sorted(metrics.items()):
        if name != "ops":
            print(f"  {name:<40} {value:>12.6g} {_unit(name)}")
    for message in result["failures"]:
        print(f"  FAILED {message}")


def final_line(results: dict[str, dict], metrics: dict[str, dict],
               trace: bool) -> dict:
    """The machine-read last line of standard output."""
    names = PER_LAYER if trace else END_TO_END
    single = len(metrics) == 1
    out = {}
    for workload, values in metrics.items():
        for name, unit in names:
            key = name if single else f"{workload}.{name}"
            out[key] = {"value": values[name], "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": out}


def write_envelope(path: str, args, stamp: dict,
                   metrics: dict[str, dict]) -> None:
    from repro.perf import (bench_envelope, validate_bench_envelope,
                            write_bench_json)
    envelope = bench_envelope(
        "pipeline",
        config={"seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "workloads": list(metrics), **stamp},
        metrics=metrics)
    problems = validate_bench_envelope(envelope)
    if problems:
        raise BenchError("envelope: " + "; ".join(problems))
    write_bench_json(path, envelope)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0].replace("\n", " "))
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write a repro-bench-v1 envelope")
    parser.add_argument("--spans", metavar="PATH", default=None,
                        help="with --trace: write the spans as JSONL")
    parser.add_argument("--src", metavar="DIR", default=str(ROOT / "src"),
                        help="the src/ directory of the code to measure")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        env = child_env(src, workdir)
        setup_s = None
        if not args.trace:
            setup_s = statistics.median(measure_setup(env, workdir))
        results, metrics, spans_by_workload = {}, {}, {}
        for workload in workloads:
            result = results[workload] = run_workload(workload, args, env,
                                                      workdir)
            if args.trace:
                spans = load_spans(workdir / f"{workload}.spans.jsonl")
                spans_by_workload[workload] = spans
                metrics[workload] = per_layer(result, spans)
            else:
                metrics[workload] = end_to_end(result, setup_s)
        if args.trace and args.spans:
            with open(args.spans, "w", encoding="utf-8") as sink:
                for workload in workloads:
                    sink.write((workdir / f"{workload}.spans.jsonl")
                               .read_text())
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    stamp = results[workloads[0]]["stamp"]
    print(f"pipeline benchmark: seed {args.seed}, {args.seconds:g} s per "
          f"workload, {'traced' if args.trace else 'untraced'}; "
          + ", ".join(f"{key} {value}" for key, value in stamp.items()))
    for workload in workloads:
        if args.trace:
            print_per_layer(workload, results[workload], metrics[workload],
                            spans_by_workload[workload])
        else:
            print_end_to_end(workload, results[workload], metrics[workload])
    if args.json:
        write_envelope(args.json, args, stamp, metrics)
    line = final_line(results, metrics, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
