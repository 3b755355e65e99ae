"""Workload runners of the pipeline benchmark.

``run.py`` starts each workload in a fresh child process::

    python benchmarks/pipeline/workloads.py WORKLOAD --seed N \\
        --seconds S --trace 0|1 --out RESULT.json --workdir DIR \\
        [--spans SPANS.jsonl]

Every workload is a closed loop with one caller on one thread: the next
operation starts only after the previous one returns.  Inputs are
generated from ``--seed`` alone.  A run keeps going until ``--seconds``
of wall time have passed and its census inputs (the first few, the same
for a seed) are done; only the calls into the program are timed, while
input generation, ``gc.collect()`` and the correctness checks run
between them.  With ``--trace 1`` each input runs twice, untraced and
traced (alternating which goes first), so the traced spans and the
tracing overhead come from the same inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import random
import resource
import shutil
import time
from contextlib import nullcontext
from itertools import chain, count
from pathlib import Path

import layers

WORKLOADS = ("cold-mixed", "cold-large", "incremental-patch", "fleet-triage")

#: Styles interleave, so a run cut short by its deadline stays balanced.
STYLE_ORDER = ("gcc-like", "clang-like", "msvc-like")

#: Generator seed of the k-th binary of a stream is seed * SEED_STRIDE
#: + k // 3, so different benchmark seeds share no binaries.
SEED_STRIDE = 1000

#: A result with more wrong bytes than this share is wrong, not just
#: imprecise: it is above linear sweep's pooled error rate on the fleet
#: corpus (0.052), and about seven times the worst of 141 binaries
#: tried at 20, 40 and 160 functions in all three styles (0.0072).
ERROR_RATE_CEILING = 0.05

#: Functions per generated binary.
FUNCTIONS = {"cold-mixed": 40, "cold-large": 160, "incremental-patch": 40,
             "fleet-triage": 20}

#: Census inputs per workload: always run, and the only ones counts and
#: error bytes are totalled over.  Each covers every style.
CENSUS = {"cold-mixed": 6, "cold-large": 3, "incremental-patch": 27}

#: Patches re-disassembled per incremental base.
PATCHES_PER_BASE = 9

#: Fleet corpus: every style x this many seeds.
FLEET_SEEDS = 8

#: Failure messages kept in the result (the count is always exact).
MAX_MESSAGES = 20


class Tally:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.latencies: dict[bool, list[float]] = {False: [], True: []}
        self.text_bytes = {False: 0, True: 0}
        self.seconds = {False: 0.0, True: 0.0}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.error_bytes = 0
        self.scored_bytes = 0
        self.census_error_bytes = 0
        self.census_ops = 0

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def score(self, name: str, errors: int, scored: int,
              census: bool) -> None:
        self.error_bytes += errors
        self.scored_bytes += scored
        if census:
            self.census_error_bytes += errors
            self.census_ops += 1
        if errors > ERROR_RATE_CEILING * scored:
            self.fail(f"{name}: {errors}/{scored} bytes wrong")

    def as_dict(self) -> dict:
        return {
            "latencies_ms": [s * 1e3 for s in self.latencies[False]],
            "traced_latencies_ms": [s * 1e3 for s in self.latencies[True]],
            "text_bytes": self.text_bytes[False],
            "timed_s": self.seconds[False],
            "traced_text_bytes": self.text_bytes[True],
            "traced_timed_s": self.seconds[True],
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.messages,
            "error_bytes": self.error_bytes,
            "scored_bytes": self.scored_bytes,
            "census_error_bytes": self.census_error_bytes,
            "census_ops": self.census_ops,
        }


def binary_stream(seed: int, functions: int):
    """Endless interleaved-style stream of generated test cases."""
    from repro.synth.corpus import BinarySpec, generate_binary
    from repro.synth.styles import STYLES
    for k in count():
        style = STYLE_ORDER[k % len(STYLE_ORDER)]
        yield generate_binary(BinarySpec(
            name=f"{style}-{k}", style=STYLES[style],
            function_count=functions,
            seed=seed * SEED_STRIDE + k // len(STYLE_ORDER)))


def patch_binary(binary, offset: int):
    """The binary with one text byte flipped at ``offset``."""
    text = bytearray(binary.text.data)
    text[offset] ^= 0x55
    new_text = dataclasses.replace(binary.text, data=bytes(text))
    sections = tuple(new_text if s is binary.text else s
                     for s in binary.sections)
    return dataclasses.replace(binary, sections=sections)


def drive(tally: Tally, recorder: layers.SpanRecorder, items, execute, *,
          seconds: float, census: int, trace: bool) -> None:
    """The closed loop shared by the per-operation workloads.

    ``execute(item, traced, census)`` runs and times one operation and
    returns a digest of its output.  The first item runs once untimed
    as the warm-up and again as the first timed operation; the two
    digests must match.  Under ``trace`` every item runs untraced and
    traced, and the two digests must match.
    """
    items = iter(items)
    first = next(items)
    gc.collect()
    warm = execute(first, False, None)
    started = time.perf_counter()
    for index, item in enumerate(chain([first], items)):
        if index >= census and time.perf_counter() - started >= seconds:
            break
        in_census = index < census
        modes = ((False,) if not trace
                 else (False, True) if index % 2 == 0 else (True, False))
        digests = {}
        for traced in modes:
            tally.attempted += 1
            recorder.census = in_census
            gc.collect()
            try:
                digests[traced] = execute(item, traced, in_census)
            except Exception as error:  # noqa: BLE001 -- counted, reported
                tally.fail(f"op {index}: {type(error).__name__}: {error}")
        if index == 0 and False in digests and digests[False] != warm:
            tally.fail("op 0: output differs from the warm-up run")
        if trace and len(digests) == 2 and digests[False] != digests[True]:
            tally.fail(f"op {index}: traced output differs from untraced")


def _tracing(recorder: layers.SpanRecorder, traced: bool):
    return layers.Wrapped(recorder) if traced else nullcontext()


def cold(args, tally: Tally, recorder: layers.SpanRecorder) -> None:
    """Cold disassembly of fresh binaries, superset cache cleared per op."""
    from repro.core import Disassembler
    from repro.eval.metrics import evaluate
    from repro.superset.superset import cached_superset
    disassembler = Disassembler()

    def execute(case, traced: bool, census: bool | None) -> str:
        cached_superset.cache_clear()
        with _tracing(recorder, traced):
            started = time.perf_counter()
            rich = disassembler.disassemble_rich(case)
            elapsed = time.perf_counter() - started
        if census is not None:
            tally.latencies[traced].append(elapsed)
            tally.text_bytes[traced] += len(case.text)
            tally.seconds[traced] += elapsed
            scored = evaluate(rich.result, case.truth).bytes
            tally.score(case.name, scored.total_errors,
                        scored.code_bytes + scored.data_bytes,
                        census and not traced)
        return rich.result.to_json()

    drive(tally, recorder,
          binary_stream(args.seed, FUNCTIONS[args.workload]), execute,
          seconds=args.seconds, census=CENSUS[args.workload],
          trace=args.trace)


def incremental_patch(args, tally: Tally,
                      recorder: layers.SpanRecorder) -> None:
    """Single-byte patches re-disassembled from a FactBase snapshot.

    Bases come from the binary stream and are snapshotted, untimed, when
    the loop reaches them.  Each gets PATCHES_PER_BASE patches at seeded
    random offsets; the first of them is also re-run cold and must give
    the identical result.
    """
    from repro.core import Disassembler, FactBase
    from repro.core.engine import incremental
    from repro.superset.superset import cached_superset
    disassembler = Disassembler()
    rng = random.Random(args.seed)

    def patches():
        for case in binary_stream(args.seed, FUNCTIONS[args.workload]):
            base = FactBase.from_run(disassembler.disassemble_rich(case),
                                     disassembler.config)
            for patch in range(PATCHES_PER_BASE):
                offset = rng.randrange(len(case.text))
                yield (f"{case.name} patch @{offset:#x}", base,
                       patch_binary(case.binary, offset), patch == 0)

    def execute(item, traced: bool, census: bool | None) -> str:
        name, base, target, check_cold = item
        cached_superset.cache_clear()   # drop supersets of the cold runs
        with _tracing(recorder, traced):
            started = time.perf_counter()
            rich, stats = incremental.disassemble_incremental(
                disassembler, base, target)
            elapsed = time.perf_counter() - started
        output = rich.result.to_json()
        if census is None:
            return output
        tally.latencies[traced].append(elapsed)
        tally.text_bytes[traced] += len(target.text.data)
        tally.seconds[traced] += elapsed
        if stats.cold:
            tally.fail(f"{name}: cold fallback ({stats.reason})")
        elif check_cold and not traced and output != \
                disassembler.disassemble_rich(target).result.to_json():
            tally.fail(f"{name}: incremental differs from cold")
        return output

    drive(tally, recorder, patches(), execute, seconds=args.seconds,
          census=CENSUS[args.workload], trace=args.trace)


def fleet_triage(args, tally: Tally, recorder: layers.SpanRecorder) -> None:
    """Serial fleet passes over one manifest, fresh run directory each.

    An operation is one fleet item; the item timer wraps
    ``analyze_item`` where the fleet driver calls it.  Throughput is
    over whole passes, so aggregation and checkpointing count too.
    """
    from repro.fleet import (FleetConfig, check_separation, plan_grid,
                             run_fleet, trend_json)
    from repro.fleet import analysis
    from repro.fleet import driver as fleet_driver
    from repro.superset.superset import cached_superset
    first_seed = args.seed * SEED_STRIDE
    manifest = plan_grid(STYLE_ORDER, [FUNCTIONS[args.workload]],
                         range(first_seed, first_seed + FLEET_SEEDS))
    analysis.analyze_item(manifest.items[0].to_dict())   # warm-up

    items: list[tuple[float, dict]] = []
    analyze_item = fleet_driver.analyze_item

    def timed_item(*call_args, **kwargs) -> dict:
        started = time.perf_counter()
        report = analyze_item(*call_args, **kwargs)
        items.append((time.perf_counter() - started, report))
        return report

    reference = None
    fleet_driver.analyze_item = timed_item
    try:
        started = time.perf_counter()
        for index in count():
            # Whole passes only: stop before one that would overrun.
            spent = time.perf_counter() - started
            if index >= 2 and spent * (index + 1) / index > args.seconds:
                break
            traced = bool(args.trace) and index % 2 == 1
            census = index == (1 if args.trace else 0)
            recorder.census = census
            rundir = Path(args.workdir) / f"fleet-pass-{index}"
            items.clear()
            cached_superset.cache_clear()
            gc.collect()
            with _tracing(recorder, traced):
                pass_started = time.perf_counter()
                trend = run_fleet(manifest, rundir, FleetConfig())
                elapsed = time.perf_counter() - pass_started
            shutil.rmtree(rundir)
            tally.attempted += len(items)
            tally.seconds[traced] += elapsed
            for seconds, report in items:
                tally.latencies[traced].append(seconds)
                if report["status"] != "ok":
                    tally.fail(f"{report['id']}: {report['error']}")
                    continue
                tally.text_bytes[traced] += report["text_bytes"]
                gt = report["tools"]["corrected"]["gt"]
                tally.score(report["id"],
                            gt["false_code"] + gt["missed_code"],
                            gt["code_bytes"] + gt["data_bytes"], census)
            problems = check_separation(trend)
            if reference is None:
                reference = trend_json(trend)
            elif trend_json(trend) != reference:
                problems.append("trend differs from the first pass")
            if problems:
                tally.fail(f"pass {index}: " + "; ".join(problems),
                           ops=len(items))
    finally:
        fleet_driver.analyze_item = analyze_item


RUNNERS = {
    "cold-mixed": cold,
    "cold-large": cold,
    "incremental-patch": incremental_patch,
    "fleet-triage": fleet_triage,
}


def stamp() -> dict:
    """The program configuration the numbers belong to."""
    from repro.core import engine
    from repro.isa.decoder import decoder_backend
    # The worklist-engine seam (and with it engine_backend) is slated
    # for removal; the fact engine is the only backend without it.
    engine_backend = getattr(engine, "engine_backend", lambda: "facts")
    return {"decoder_backend": decoder_backend(),
            "engine_backend": engine_backend(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def run_workload(args) -> dict:
    """Run one workload in this process; returns the result document."""
    recorder = layers.SpanRecorder()
    tally = Tally()
    RUNNERS[args.workload](args, tally, recorder)
    if args.trace:
        recorder.check_fired(args.workload)
        if args.spans:
            recorder.export_jsonl(args.spans)
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "stamp": stamp(),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            **tally.as_dict()}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--workdir", required=True,
                        help="scratch directory for fleet run dirs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run_workload(args)
    Path(args.out).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
