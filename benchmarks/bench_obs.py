"""Observability overhead benchmark: what does the instrumentation cost?

Measures the t2 corpus (one seed per style) under five modes:

* **control** -- the pipeline with the tracing hook swapped for a
  bare phase timer (the pre-observability baseline).
* **off** -- the shipped default: hooks present, tracing, profiling
  and provenance disabled.  The script fails unless a disabled run
  opens exactly zero spans and takes exactly zero profiler samples,
  and reports its overhead over control.
* **trace** -- spans on (in-memory tracer), measuring the tracing tax.
* **sampled** -- the sampling profiler on (default 5 ms interval):
  continuous profiling must stay cheap enough to leave on for whole
  fleet runs.
* **provenance** -- the per-byte audit trail on, measuring why it is
  opt-in (see DESIGN.md).

Per-mode times are best-of ``--repeats`` with modes interleaved, so
machine drift hits every mode equally.  The overhead ceilings
(``obs-off-overhead`` and ``obs-sampling-overhead``, <= 5%) live in
``benchmarks/slo.toml`` and are enforced by ``repro obs gate`` once
the JSON artifact is recorded.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py
    PYTHONPATH=src python benchmarks/bench_obs.py --repeats 5 \
        --json BENCH_obs.json
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import disassembler as disassembler_mod  # noqa: E402
from repro.core.config import DEFAULT_CONFIG             # noqa: E402
from repro.core.disassembler import Disassembler         # noqa: E402
from repro.eval.dataset import evaluation_corpus         # noqa: E402
from repro.obs.profile import (samples_taken,            # noqa: E402
                               start_profiler, stop_profiler)
from repro.obs.trace import activate, spans_started      # noqa: E402
from repro.perf import bench_envelope, write_bench_json  # noqa: E402


@contextmanager
def _plain_phase(name, timings=None, *, tracer=None, **attrs):
    """The bare phase timer: perf_counter + dict add, no tracing hook."""
    started = time.perf_counter()
    try:
        yield None
    finally:
        if timings is not None:
            elapsed = time.perf_counter() - started
            timings[name] = timings.get(name, 0.0) + elapsed


def _time_one(disassembler, case) -> float:
    # CPU time, not wall clock: the pipeline is single-threaded, and
    # process_time is immune to the scheduling noise of shared CI
    # runners, which dwarfs a sub-2% effect.  Collections are forced
    # between measurements (and the collector kept off inside them) so
    # GC pauses from earlier allocations never land in a timed region.
    gc.collect()
    started = time.process_time()
    disassembler.disassemble(case)
    return time.process_time() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--functions", type=int, default=40,
                        help="functions per generated binary")
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved rounds per mode (best-of)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write results as a BENCH_*.json artifact")
    args = parser.parse_args(argv)

    corpus = evaluation_corpus(seeds=(0,),
                               function_count=args.functions)
    plain = Disassembler()
    audited = Disassembler(config=replace(DEFAULT_CONFIG,
                                          record_provenance=True))

    print(f"warming up ({len(corpus)} binaries, "
          f"{args.functions} functions each)...")
    for case in corpus:                      # superset cache + models
        plain.disassemble(case)

    def run_control(case) -> float:
        original = disassembler_mod.phase_span
        disassembler_mod.phase_span = _plain_phase
        try:
            return _time_one(plain, case)
        finally:
            disassembler_mod.phase_span = original

    def run_off(case) -> float:
        return _time_one(plain, case)

    def run_trace(case) -> float:
        with activate():                     # in-memory, discarded
            return _time_one(plain, case)

    def run_provenance(case) -> float:
        return _time_one(audited, case)

    def run_sampled(case) -> float:
        start_profiler()
        try:
            return _time_one(plain, case)
        finally:
            stop_profiler()

    modes = {"control": run_control, "off": run_off,
             "trace": run_trace, "sampled": run_sampled,
             "provenance": run_provenance}
    order = list(modes)
    minima: dict[str, list[float]] = {
        name: [float("inf")] * len(corpus) for name in modes}

    # Modes run back-to-back per binary, their order rotating every
    # measurement, so machine drift (frequency scaling, contention)
    # biases no mode; summed per-case minima then filter what remains.
    spans_before = spans_started()
    spans_disabled = 0
    samples_disabled = 0
    gc.disable()
    for round_index in range(max(1, args.repeats)):
        for case_index, case in enumerate(corpus):
            rotation = round_index * len(corpus) + case_index
            shift = rotation % len(order)
            for name in order[shift:] + order[:shift]:
                if name != "trace":
                    counted = spans_started()
                if name != "sampled":
                    sampled = samples_taken()
                elapsed = modes[name](case)
                if name != "trace":
                    spans_disabled += spans_started() - counted
                if name != "sampled":
                    samples_disabled += samples_taken() - sampled
                minima[name][case_index] = min(
                    minima[name][case_index], elapsed)
    gc.enable()
    spans_in_disabled_modes = spans_disabled
    spans_traced = spans_started() - spans_before
    samples_total = samples_taken()
    best = {name: sum(times) for name, times in minima.items()}

    overhead = 100.0 * (best["off"] - best["control"]) / best["control"]
    sampled_overhead = 100.0 * (best["sampled"] - best["control"]) \
        / best["control"]
    print(f"control     {best['control']:8.3f}s  (bare phase timer)")
    print(f"off         {best['off']:8.3f}s  ({overhead:+.2f}% vs control)")
    print(f"trace       {best['trace']:8.3f}s  "
          f"({100.0 * (best['trace'] / best['control'] - 1):+.2f}%)")
    print(f"sampled     {best['sampled']:8.3f}s  "
          f"({sampled_overhead:+.2f}%)")
    print(f"provenance  {best['provenance']:8.3f}s  "
          f"({100.0 * (best['provenance'] / best['control'] - 1):+.2f}%)")
    print(f"spans opened with observability off: "
          f"{spans_in_disabled_modes} (traced runs opened "
          f"{spans_traced - spans_in_disabled_modes})")
    print(f"profiler samples while disabled: {samples_disabled} "
          f"(sampled runs took {samples_total - samples_disabled})")

    if args.json:
        write_bench_json(args.json, bench_envelope(
            "obs",
            config={"functions": args.functions,
                    "repeats": args.repeats},
            metrics={
                "seconds": dict(sorted(best.items())),
                "off_overhead_pct": round(overhead, 3),
                "sampled_overhead_pct": round(sampled_overhead, 3),
                "spans_disabled": spans_in_disabled_modes,
                "samples_disabled": samples_disabled,
            },
        ))

    failures = []
    if spans_in_disabled_modes != 0:
        failures.append(f"disabled modes opened "
                        f"{spans_in_disabled_modes} spans (expected 0)")
    if samples_disabled != 0:
        failures.append(f"disabled modes took {samples_disabled} "
                        f"profiler samples (expected 0)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("ok: zero spans and zero samples while disabled")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
